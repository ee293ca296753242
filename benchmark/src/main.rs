//! Load benchmark for the serving stack. See `README.md` beside this
//! package for the workloads, the metrics and how to read the output.
//!
//! ```text
//! loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what BENCHMARK.json's command makes)
//! loadbench --seed <n> [--trace]                                       the four workloads, one child process each
//! loadbench --aa <N>                                                   two sets of N suites, spreads against the bounds
//! loadbench --smoke ...                                                the same code over tiny inputs
//! ```

mod gen;
mod host;
mod ladder;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;
mod world;

use gen::{Pace, Phase, Tracing};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use world::{serve_config, Sizes};

/// Metric name → value; a `BTreeMap` so output order repeats.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Share of `--seconds` the closed-loop phase takes; the open loop
/// takes the rest.
const SAT_SHARE: f64 = 0.4;

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
    smoke: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: loadbench [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--aa N] [--smoke]",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 14.0,
        trace: false,
        aa: None,
        smoke: false,
    };
    let mut seconds_given = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        i += match (argv[i].as_str(), value) {
            ("--smoke", _) => {
                args.smoke = true;
                1
            }
            // `--trace` alone means on; `--trace 0|1` is the driver's form.
            ("--trace", Some(v @ ("0" | "1"))) => {
                args.trace = v == "1";
                2
            }
            ("--trace", _) => {
                args.trace = true;
                1
            }
            ("--workload", Some(name)) => {
                args.workload = Some(spec::workload_index(name).unwrap_or_else(|| usage()));
                2
            }
            ("--seed", Some(v)) => {
                args.seed = v.parse().unwrap_or_else(|_| usage());
                2
            }
            ("--seconds", Some(v)) => {
                args.seconds = v.parse().unwrap_or_else(|_| usage());
                seconds_given = true;
                2
            }
            ("--aa", Some(v)) => {
                args.aa = Some(v.parse().unwrap_or_else(|_| usage()));
                2
            }
            _ => usage(),
        };
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.aa == Some(0) {
        usage();
    }
    if args.smoke && !seconds_given {
        args.seconds = 0.5;
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let ok = match (args.aa, args.workload) {
        (Some(runs), _) => suite::aa(&args, runs),
        (None, None) => suite::all_workloads(&args),
        (None, Some(index)) => run(index, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where the traced run leaves its spans: `out/` of this package,
/// wherever the command was started from.
fn trace_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/trace.json")
}

/// Slices a measured phase is run in.
const SLICES: u64 = 8;

/// One measured phase, run as `SLICES` equal sub-phases, each on fresh
/// generator threads and — on the wire workloads — a fresh connection,
/// so fresh server threads too. Where the scheduler places those
/// threads on the two cores sets a latency and throughput level that
/// holds for as long as they live, and the shared host the benchmark
/// runs on slows down for seconds at a time; a figure is taken over
/// the slices, so it belongs to the system and not to one placement,
/// and one stall costs one slice.
#[derive(Default)]
struct Sliced {
    slices: Vec<Phase>,
}

impl Sliced {
    /// Runs the next slice at `slice_pace`. Request ids start at
    /// `first_request` and the first `record` of the phase are traced,
    /// shared evenly between the slices.
    fn push(
        &mut self,
        workload: &mut dyn workloads::Workload,
        slice_pace: Pace,
        seed: u64,
        first_request: u64,
        record: u64,
    ) {
        let i = self.slices.len() as u64;
        workload.fresh_threads();
        let tracing = Tracing {
            first_request: first_request + (i << 24),
            record: record / SLICES,
        };
        self.slices
            .push(workload.phase(slice_pace, seed ^ (i << 8), tracing));
    }

    /// The whole phase, slice after slice.
    fn run(
        workload: &mut dyn workloads::Workload,
        slice_pace: Pace,
        seed: u64,
        first_request: u64,
        record: u64,
    ) -> Sliced {
        let mut phase = Sliced::default();
        for _ in 0..SLICES {
            phase.push(workload, slice_pace, seed, first_request, record);
        }
        phase
    }

    fn attempted(&self) -> u64 {
        self.slices.iter().map(|p| p.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.slices.iter().map(|p| p.failed).sum()
    }

    fn each(&self, figure: impl Fn(&Phase) -> f64) -> Vec<f64> {
        self.slices.iter().map(figure).collect()
    }

    /// Median over the slices of `figure`.
    fn median(&self, figure: impl Fn(&Phase) -> f64) -> f64 {
        stats::median(&self.each(figure))
    }

    /// The second-lowest `figure` of the slices: a latency as the
    /// least disturbed slices saw it. Whatever else the host runs only
    /// ever adds to a latency, so between runs the low slices agree
    /// where the middle ones do not; the second and not the lowest, so
    /// that one lucky slice does not set the figure.
    fn quiet(&self, figure: impl Fn(&Phase) -> f64) -> f64 {
        let v = stats::sorted(&self.each(figure));
        v.get(1).or(v.first()).copied().unwrap_or(0.0)
    }

    fn print(&self, name: &str) {
        println!(
            "phase {name}: attempted {} succeeded {} failed {} in {SLICES} slices of {:.3} s",
            self.attempted(),
            self.attempted() - self.failed(),
            self.failed(),
            self.slices[0].box_ns as f64 / 1e9,
        );
    }

    fn take_spans(&mut self) -> Vec<trace::Span> {
        self.slices
            .iter_mut()
            .flat_map(|p| std::mem::take(&mut p.spans))
            .collect()
    }
}

/// One run of one workload in this process. Prints what it measured
/// and, last, the result line; returns whether every output was
/// correct and no operation failed.
fn run(index: usize, args: &Args) -> bool {
    let (name, why) = WORKLOADS[index];
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("workload {name}: {why}");
    println!(
        "config: seed {} seconds {} trace {} available_parallelism {nproc} {:?}",
        args.seed,
        args.seconds,
        args.trace,
        serve_config()
    );

    // Set-up, repeated: the median is steadier than one reading, and
    // each build starts from nothing (the previous one is shut down).
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..sizes.setup_reps {
        if let Some(previous) = built.take() {
            workloads::Workload::shutdown(previous);
        }
        let t = Instant::now();
        built = Some(workloads::build(index, args.seed, &sizes));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut workload = built.expect("setup_reps >= 1");
    let setup_s = stats::median(&setups);
    println!("setup: {setups:?} s, median {setup_s}");

    // Warm-up fills the verdict cache and the hot tenant tier and
    // finishes lazy set-up; nothing of it is reported.
    let base = |phase: u64| phase << 32;
    let warm = Pace::Sat {
        secs: sizes.warmup_secs,
    };
    workload.phase(warm, args.seed ^ 0xAA, Tracing::off(base(1)));

    let rate = sizes.paced_rate[index];
    // One slice of `share` of the full-length phase.
    let sat_pace = |share: f64| Pace::Sat {
        secs: args.seconds * SAT_SHARE * share / SLICES as f64,
    };
    let paced_pace = |share: f64| Pace::Paced {
        secs: args.seconds * (1.0 - SAT_SHARE) * share / SLICES as f64,
        rate,
    };
    let mut metrics = Metrics::new();
    let (attempted, failed, verify);
    if args.trace {
        // A quarter-length replay: closed loop untraced, then traced
        // (same stream, so the ratio is the tracing overhead), then
        // the open loop traced.
        let record = sizes.traced_requests;
        let w = workload.as_mut();
        let plain = Sliced::run(w, sat_pace(0.25), args.seed ^ 1, base(2), 0);
        let counters_before = w.counters();
        let mut sat = Sliced::run(w, sat_pace(0.25), args.seed ^ 1, base(3), record);
        let mut paced = Sliced::run(w, paced_pace(0.25), args.seed ^ 2, base(4), record);
        let counters = w.counters();
        plain.print("sat (untraced)");
        sat.print("sat (traced)");
        paced.print("paced (traced)");
        verify = workload.verify();

        metrics.extend(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)));
        metrics.insert("gen.late_us_p99", paced.median(Phase::late_p99_us));
        metrics.insert("gen.sent_per_s", paced.median(Phase::sent_per_s));
        metrics.insert("gen.paced_p50_us", paced.median(|p| p.latency_us(0.5)));
        metrics.insert("p99_us", paced.median(|p| p.latency_us(0.99)));
        metrics.insert("gen.traced_lines_per_s", sat.median(Phase::lines_per_s));
        metrics.insert(
            "gen.traced_requests",
            (sat.attempted() + paced.attempted()) as f64,
        );
        metrics.insert("gen.traced_failed", (sat.failed() + paced.failed()) as f64);
        metrics.insert(
            "trace.overhead_ratio",
            sat.median(Phase::lines_per_s) / plain.median(Phase::lines_per_s).max(1e-9),
        );
        counters.report_since(&counters_before, &mut metrics);
        let parts = workload.setup_parts();
        metrics.insert("core.pipeline.pretrain_s", parts.pretrain_s);
        metrics.insert("core.embed.exemplar_embed_s", parts.exemplar_embed_s);
        workload.probes(&mut metrics);
        let spec = workload.ladder_spec(&sizes);
        ladder::run(workload.world(), &spec, &sizes, &mut metrics);
        // The workload's own set-up is the build the offline path
        // runs; the ladder's is a rebuild of the same index alone.
        metrics.insert("index.build_s", parts.index_build_s);

        let mut spans = sat.take_spans();
        spans.append(&mut paced.take_spans());
        metrics.insert("trace.spans", spans.len() as f64);
        let path = trace_path();
        match trace::write_json(&path, &mut spans) {
            Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("trace: writing {}: {e}", path.display());
                return false;
            }
        }
        attempted = plain.attempted() + sat.attempted() + paced.attempted() + verify.attempted;
        failed = plain.failed() + sat.failed() + paced.failed() + verify.failed;
        assert_eq!(
            metrics.len(),
            PER_LAYER.len(),
            "an unlisted per-layer metric"
        );
    } else {
        // The two phases take turns, slice by slice: each then spans
        // the whole measured time, and a slow spell of the host falls
        // on a few slices of both instead of on most of one.
        let w = workload.as_mut();
        let (mut sat, mut paced) = (Sliced::default(), Sliced::default());
        let mut host = host::HostSpeed::new();
        host.sample();
        for _ in 0..SLICES {
            sat.push(w, sat_pace(1.0), args.seed ^ 1, base(2), 0);
            host.sample();
            paced.push(w, paced_pace(1.0), args.seed ^ 2, base(3), 0);
            host.sample();
        }
        sat.print("sat");
        paced.print("paced");
        println!(
            "slices: lines_per_s {:?} p50_us {:?}",
            sat.each(Phase::lines_per_s),
            paced.each(|p| p.latency_us(0.5)),
        );
        println!(
            "paced: rate {rate} req/s offered, {:.1} req/s sent, generator late p99 {:.1} us, {} latency samples, p99 {:.1} us",
            paced.median(Phase::sent_per_s),
            paced.median(Phase::late_p99_us),
            paced.attempted(),
            paced.median(|p| p.latency_us(0.99)),
        );
        verify = workload.verify();
        metrics.insert("setup_s", setup_s);
        // Throughput and latency at the host's nominal speed.
        let (lines_per_s, p50_us) = (
            sat.median(Phase::lines_per_s),
            paced.quiet(|p| p.latency_us(0.5)),
        );
        println!(
            "host: reference kernel {:.3} ms, slowdown {:.4}; unscaled lines_per_s {lines_per_s:.1} p50_us {p50_us:.1}",
            host.reference_s() * 1e3,
            host.slowdown(),
        );
        metrics.insert("lines_per_s", lines_per_s * host.slowdown());
        metrics.insert("p50_us", p50_us / host.slowdown());
        metrics.insert("peak_rss_mib", stats::peak_rss_mib());
        metrics.insert("f1", verify.f1);
        attempted = sat.attempted() + paced.attempted() + verify.attempted;
        failed = sat.failed() + paced.failed() + verify.failed;
    }
    workload.shutdown();

    println!(
        "phase verify: attempted {} succeeded {} failed {}",
        verify.attempted,
        verify.attempted - verify.failed.min(verify.attempted),
        verify.failed
    );
    println!("verdict_checksum {name} {:#018x}", verify.checksum);
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    for (metric, value) in &metrics {
        println!("metric {name} {metric} {value} {}", units[metric]);
    }
    let correct = failed == 0 && metrics.values().all(|v| v.is_finite());
    println!(
        "{}",
        suite::result_line(correct, attempted, failed, &metrics, &units)
    );
    correct
}
