//! Criterion bench + acceptance gate for the online detector
//! lifecycle: a background refit racing live score traffic must
//! converge to verdicts **bit-identical** to a stop-the-world refit
//! on exact backends, deliver exactly one verdict per submitted line
//! across the epoch swap, and keep serving while the replacement
//! epoch fits off to the side.
//!
//! Measurements (persisted to `BENCH_lifecycle.json`, with a summary
//! co-written into the `lifecycle` section of `BENCH_serve.json`
//! beside the micro-batching and net figures):
//!
//! * **quiet refit latency** — take-training + off-lock fit + epoch
//!   swap with no competing traffic;
//! * **refit-under-load latency and serving throughput** — the same
//!   refit while concurrent producers stream scores; the swap holds
//!   the engine write lock only for the installation instant, so
//!   serving throughput during the refit is the headline;
//! * **drift tracker throughput** — PSI observations per second
//!   (the per-micro-batch bookkeeping added to the scoring path).

use bench::{perf, Experiment};
use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{EmbeddingStore, FittedEngine, ScoringEngine};
use cmdline_ids::pipeline::PipelineConfig;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use serve::{DriftConfig, DriftDetector, Frontend, LifecycleConfig, RefitSource, ServeConfig};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use anomaly::{PcaMethod, RetrievalMethod, VanillaKnnMethod};

const PRODUCERS: usize = 8;
const PER_PRODUCER: usize = 64;

fn experiment() -> Experiment {
    let mut config = PipelineConfig::fast();
    config.train_size = 700;
    config.test_size = 400;
    config.attack_prob = 0.2;
    Experiment::setup(23, config)
}

/// PCA between the two neighbour methods: the refittable resident
/// whose verdicts actually move across an epoch swap.
fn fit_set(exp: &Experiment) -> FittedEngine {
    let store = EmbeddingStore::new(&exp.pipeline);
    let train_lines = exp.train_lines();
    let train = store.view(&train_lines, Pooling::Mean);
    ScoringEngine::new()
        .register(Box::new(RetrievalMethod::new(1)))
        .register(Box::new(PcaMethod::new(0.95)))
        .register(Box::new(VanillaKnnMethod::new(3)))
        .fit(&train, &exp.train_labels())
        .expect("detector set fits")
}

fn lifecycle(exp: &Experiment) -> LifecycleConfig {
    let train: Vec<String> = exp.train_lines().iter().map(|s| s.to_string()).collect();
    let source = RefitSource::new(train, exp.train_labels()).expect("aligned source");
    LifecycleConfig::new(source)
        .with_drift(DriftConfig {
            window: 64,
            bins: 4,
            threshold: 1e9,
            append_threshold: 0,
        })
        .manual()
}

fn spawn(exp: &Experiment) -> Frontend {
    Frontend::spawn_with_lifecycle(
        exp.pipeline.clone(),
        fit_set(exp),
        1,
        ServeConfig {
            queue_capacity: 64,
            max_batch: 32,
            batch_window: Duration::from_millis(1),
            workers: 2,
        },
        lifecycle(exp),
    )
    .expect("service spawns")
}

fn bench_lifecycle(c: &mut Criterion) {
    let exp = experiment();
    let lines: Vec<String> = exp.dataset.test.iter().map(|r| r.line.clone()).collect();
    let burst: Vec<String> = lines.iter().take(24).cloned().collect();
    let burst_labels: Vec<bool> = burst.iter().map(|l| exp.is_alert(l)).collect();

    // ── Stop-the-world comparator: append, refit quietly, score. ──
    let quiet = spawn(&exp);
    quiet.append(&burst, &burst_labels).expect("quiet append");
    let pre: HashMap<&str, Vec<f32>> = lines
        .iter()
        .map(|l| (l.as_str(), quiet.score_line(l).expect("pre-refit score")))
        .collect();
    let t0 = Instant::now();
    assert_eq!(quiet.refit().expect("quiet refit"), 1);
    let t_quiet_refit = t0.elapsed();
    let post: HashMap<&str, Vec<f32>> = lines
        .iter()
        .map(|l| (l.as_str(), quiet.score_line(l).expect("post-refit score")))
        .collect();
    quiet.shutdown();

    // ── Refit under load: producers stream while the epoch swaps. ──
    let racy = spawn(&exp);
    racy.append(&burst, &burst_labels).expect("racy append");
    let barrier = Barrier::new(PRODUCERS + 1);
    let mut replies = 0usize;
    let mut t_racy_refit = Duration::ZERO;
    let t_load = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let client = racy.client();
            let (barrier, lines, pre, post) = (&barrier, &lines, &pre, &post);
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut seen = 0usize;
                for i in 0..PER_PRODUCER {
                    let line = &lines[(p * 31 + i) % lines.len()];
                    let got = client.score_line(line).expect("service alive");
                    // Exactly one epoch per verdict, never a torn mix.
                    assert!(
                        got == pre[line.as_str()] || got == post[line.as_str()],
                        "torn verdict for {line:?} during the swap"
                    );
                    seen += 1;
                }
                seen
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        assert_eq!(racy.refit().expect("refit under load"), 1);
        t_racy_refit = t0.elapsed();
        for handle in handles {
            replies += handle.join().expect("producer survives the swap");
        }
    });
    let t_load = t_load.elapsed();
    let submitted = PRODUCERS * PER_PRODUCER;
    assert_eq!(
        replies, submitted,
        "a line was dropped or double-scored across the epoch swap"
    );

    // The acceptance gate: refit-under-load ≡ stop-the-world, bit for
    // bit, on the exact backends.
    for line in &lines {
        let got = racy.score_line(line).expect("post-race score");
        assert_eq!(
            got,
            post[line.as_str()],
            "refit under load diverged from stop-the-world for {line:?}"
        );
    }
    let under_load_lines_per_s = submitted as f64 / t_load.as_secs_f64();
    println!(
        "lifecycle/refit: quiet {t_quiet_refit:.2?}, under load {t_racy_refit:.2?}; \
         {submitted} lines served concurrently ({under_load_lines_per_s:.0} lines/s) — \
         verdicts bit-identical to stop-the-world, exactly one per line"
    );

    // ── Drift tracker: per-observation cost of the scoring path. ──
    let mut tracker = DriftDetector::new(DriftConfig::default()).expect("valid config");
    let observations = 1_000_000usize;
    let t0 = Instant::now();
    for i in 0..observations {
        tracker.observe((i % 997) as f32 / 997.0);
    }
    let t_drift = t0.elapsed();
    black_box(tracker.statistic());
    let drift_obs_per_s = observations as f64 / t_drift.as_secs_f64();
    println!(
        "lifecycle/drift: {observations} observations in {t_drift:.2?} \
         ({drift_obs_per_s:.0} obs/s)"
    );

    // Full record beside the other BENCH_* files, plus a summary
    // section co-written into BENCH_serve.json without clobbering the
    // micro_batching / net sections.
    let mut record = perf::Value::object();
    record
        .push("lines", perf::Value::Int(lines.len() as i64))
        .push("methods", perf::Value::Int(3))
        .push("producers", perf::Value::Int(PRODUCERS as i64))
        .push("submitted_during_refit", perf::Value::Int(submitted as i64))
        .push(
            "quiet_refit_ms",
            perf::Value::Float(t_quiet_refit.as_secs_f64() * 1e3),
        )
        .push(
            "under_load_refit_ms",
            perf::Value::Float(t_racy_refit.as_secs_f64() * 1e3),
        )
        .push(
            "under_load_lines_per_s",
            perf::Value::Float(under_load_lines_per_s),
        )
        .push("drift_obs_per_s", perf::Value::Float(drift_obs_per_s))
        .push(
            "gate_bit_identical_to_stop_the_world",
            perf::Value::Bool(true),
        )
        .push("gate_exactly_one_score_per_line", perf::Value::Bool(true));
    let path = perf::write_report("BENCH_lifecycle.json", &record);
    println!("lifecycle: report → {}", path.display());
    let mut summary = perf::Value::object();
    summary
        .push(
            "under_load_refit_ms",
            perf::Value::Float(t_racy_refit.as_secs_f64() * 1e3),
        )
        .push(
            "under_load_lines_per_s",
            perf::Value::Float(under_load_lines_per_s),
        )
        .push("parity", perf::Value::Str("bit-identical".into()));
    let path = perf::merge_report("BENCH_serve.json", "lifecycle", summary);
    println!(
        "lifecycle: summary → {} (lifecycle section)",
        path.display()
    );

    // Criterion timings: the repeated epoch swap itself (empty append
    // log: take-training + fit over the baseline + install).
    let mut group = c.benchmark_group("lifecycle");
    group.sample_size(10);
    group.bench_function("refit_epoch_swap", |b| {
        b.iter(|| racy.refit().expect("refit"))
    });
    group.finish();
    racy.shutdown();
}

criterion_group!(benches, bench_lifecycle);
criterion_main!(benches);
