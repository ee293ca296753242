//! `ServeConfig` / `RouterConfig` / `NetConfig` shapes that can never
//! serve must be rejected with a typed [`ServeError::InvalidConfig`]
//! at validation time — not discovered as a deadlocked queue, a
//! silently clamped knob, or a downstream panic.

use serve::{NetConfig, RouterConfig, ServeConfig, ServeError};
use std::time::Duration;

fn invalid(result: Result<(), ServeError>, needle: &str) {
    match result {
        Err(ServeError::InvalidConfig(why)) => {
            assert!(why.contains(needle), "message {why:?} misses {needle:?}")
        }
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(()) => panic!("expected rejection"),
    }
}

#[test]
fn zero_knobs_are_rejected_with_typed_errors() {
    // One table over the one path a spawn validates through:
    // `RouterConfig::validate`, which covers its nested serve knobs.
    let ok = RouterConfig::default();
    assert!(ok.validate().is_ok());
    let serve = |serve: ServeConfig| RouterConfig { serve, ..ok };
    let rejected = [
        (
            serve(ServeConfig {
                queue_capacity: 0,
                ..ok.serve
            }),
            "queue_capacity",
        ),
        (
            serve(ServeConfig {
                workers: 0,
                ..ok.serve
            }),
            "workers",
        ),
        (
            serve(ServeConfig {
                max_batch: 0,
                ..ok.serve
            }),
            "max_batch",
        ),
        (RouterConfig { shards: 0, ..ok }, "shards"),
        (
            RouterConfig {
                shard_workers: 0,
                ..ok
            },
            "shard_workers",
        ),
    ];
    for (config, needle) in rejected {
        invalid(config.validate(), needle);
    }

    // One shard is legal: every detector resident, no pool.
    assert!(RouterConfig { shards: 1, ..ok }.validate().is_ok());
    // A zero batch *window* stays legal: it is the documented
    // score-every-request-alone mode.
    assert!(serve(ServeConfig {
        batch_window: Duration::ZERO,
        ..ok.serve
    })
    .validate()
    .is_ok());
}

#[test]
fn net_zero_knobs_are_rejected_with_typed_errors() {
    let ok = NetConfig::default();
    assert!(ok.validate().is_ok());

    invalid(NetConfig { port: 0, ..ok }.validate(), "port");
    invalid(NetConfig { backlog: 0, ..ok }.validate(), "backlog");
    invalid(
        NetConfig {
            max_connections: 0,
            ..ok
        }
        .validate(),
        "max_connections",
    );
    // A zero-entry cache is a config error, not "cache disabled" —
    // `None` is how you disable it.
    invalid(
        NetConfig {
            cache: Some(0),
            ..ok
        }
        .validate(),
        "cache capacity",
    );
    assert!(NetConfig { cache: None, ..ok }.validate().is_ok());
}

#[test]
fn net_absurd_knobs_are_rejected_not_clamped() {
    let ok = NetConfig::default();

    // Too small to frame even a control response.
    invalid(
        NetConfig {
            max_frame: 1023,
            ..ok
        }
        .validate(),
        "max_frame",
    );
    // Too large to be anything but a typo.
    invalid(
        NetConfig {
            max_frame: (1 << 30) + 1,
            ..ok
        }
        .validate(),
        "absurd",
    );
    invalid(
        NetConfig {
            backlog: (1 << 20) + 1,
            ..ok
        }
        .validate(),
        "absurd",
    );
    invalid(
        NetConfig {
            max_connections: (1 << 16) + 1,
            ..ok
        }
        .validate(),
        "absurd",
    );
    invalid(
        NetConfig {
            cache: Some((1 << 24) + 1),
            ..ok
        }
        .validate(),
        "absurd",
    );

    // Boundary values on each side stay legal.
    assert!(NetConfig {
        max_frame: 1024,
        cache: Some(1 << 24),
        backlog: 1 << 20,
        max_connections: 1 << 16,
        ..NetConfig::default()
    }
    .validate()
    .is_ok());
}
