//! Concurrency battery for the topology cache: schedules are computed
//! outside the map lock, each shape once.
//!
//! - misses on *different* shapes compute in parallel (a pair of
//!   colorings that rendezvous on a barrier would deadlock if the map
//!   lock were held across `compute`);
//! - concurrent misses on the *same* shape compute once, the rest wait
//!   and count as hits;
//! - a failing or panicking computation wakes its waiters and stores
//!   nothing;
//! - a capacity bound holds at every instant under concurrent inserts,
//!   and responses stay byte-identical to an uncached engine.
//!
//! Every blocking scenario runs under a watchdog, so a regression fails
//! the test instead of hanging the suite.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use lll_core::dist::{Schedule, ScheduleKind};
use lll_graphs::{gen, Graph};
use lll_serve::{serve, Engine, EngineConfig, ServeConfig, TopologyCache};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread and returns its result, failing the test
/// if `f` panics or makes no progress within [`WATCHDOG`].
fn with_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no progress in {WATCHDOG:?} (deadlock)"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: worker panicked"),
    }
}

fn edge_schedule(g: &Graph) -> Result<Schedule, String> {
    Schedule::edge(g, 5, 1).map_err(|e| e.to_string())
}

#[test]
fn different_shapes_compute_in_parallel() {
    let (hits, misses, len) = with_watchdog("two distinct misses", || {
        let cache = TopologyCache::new();
        let both_computing = Barrier::new(2);
        std::thread::scope(|s| {
            for n in [10usize, 12] {
                let (cache, both_computing) = (&cache, &both_computing);
                s.spawn(move || {
                    let g = gen::ring(n);
                    cache
                        .get_or_compute(&g, 5, ScheduleKind::Edge, || {
                            // Both computations must be running at once
                            // to get past this point.
                            both_computing.wait();
                            edge_schedule(&g)
                        })
                        .expect("schedule");
                });
            }
        });
        (cache.hits(), cache.misses(), cache.len())
    });
    assert_eq!((hits, misses, len), (0, 2, 2));
}

#[test]
fn same_shape_computes_once_and_waiters_hit() {
    const N: usize = 8;
    let (computed, hits, misses, len, all_shared) = with_watchdog("same-shape misses", || {
        let cache = TopologyCache::new();
        let start = Barrier::new(N);
        let computed = AtomicUsize::new(0);
        let g = gen::torus(6, 6);
        let schedules: Vec<Arc<Schedule>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..N)
                .map(|_| {
                    let (cache, start, computed, g) = (&cache, &start, &computed, &g);
                    s.spawn(move || {
                        start.wait();
                        cache
                            .get_or_compute(g, 5, ScheduleKind::Distance2, || {
                                computed.fetch_add(1, Ordering::SeqCst);
                                // Widens the window in which the others
                                // find the slot in flight; a late one
                                // hits the stored entry, so the counts
                                // hold for every interleaving.
                                std::thread::sleep(Duration::from_millis(50));
                                Schedule::distance2(g, 5, 1).map_err(|e| e.to_string())
                            })
                            .expect("schedule")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let all_shared = schedules.iter().all(|s| Arc::ptr_eq(s, &schedules[0]));
        (
            computed.into_inner(),
            cache.hits(),
            cache.misses(),
            cache.len(),
            all_shared,
        )
    });
    assert_eq!(computed, 1, "the schedule must be computed exactly once");
    assert_eq!(misses, 1);
    assert_eq!(hits, N as u64 - 1);
    assert_eq!(len, 1);
    assert!(
        all_shared,
        "every request must get the one computed schedule"
    );
}

/// A request that finds a failing computation in flight is woken when
/// it fails, then computes the schedule itself; the failure stores
/// nothing.
fn failure_releases_waiters(panics: bool) {
    let (first_failed, recomputed, hits, misses, len) =
        with_watchdog("waiter on a failing computation", move || {
            let cache = TopologyCache::new();
            let g = gen::ring(14);
            let (started_tx, started_rx) = mpsc::channel();
            let recomputed = AtomicUsize::new(0);
            let first_failed = std::thread::scope(|s| {
                let (cache, g) = (&cache, &g);
                let failing = s.spawn(move || {
                    cache.get_or_compute(g, 5, ScheduleKind::Edge, || {
                        started_tx.send(()).unwrap();
                        // Widens the window in which the second request
                        // waits on this slot; if it arrives after the
                        // failure it simply misses, with the same counts.
                        std::thread::sleep(Duration::from_millis(100));
                        if panics {
                            panic!("coloring panicked");
                        }
                        Err("coloring failed".to_owned())
                    })
                });
                started_rx.recv().unwrap();
                let schedule = cache.get_or_compute(g, 5, ScheduleKind::Edge, || {
                    recomputed.fetch_add(1, Ordering::SeqCst);
                    edge_schedule(g)
                });
                assert!(schedule.is_ok());
                match failing.join() {
                    Ok(result) => result.is_err(),
                    Err(_) => panics,
                }
            });
            (
                first_failed,
                recomputed.into_inner(),
                cache.hits(),
                cache.misses(),
                cache.len(),
            )
        });
    assert!(first_failed, "the failing computation must report failure");
    assert_eq!(recomputed, 1, "the waiter must compute after the failure");
    assert_eq!((hits, misses, len), (0, 2, 1));
}

#[test]
fn failing_compute_wakes_waiters() {
    failure_releases_waiters(false);
}

#[test]
fn panicking_compute_wakes_waiters() {
    failure_releases_waiters(true);
}

#[test]
fn failing_compute_stores_nothing_and_next_request_recomputes() {
    let cache = TopologyCache::new();
    let g = gen::ring(9);
    let failed: Result<_, String> =
        cache.get_or_compute(&g, 5, ScheduleKind::Edge, || Err("no".to_owned()));
    assert!(failed.is_err());
    assert_eq!((cache.len(), cache.approx_bytes()), (0, 0));
    let mut ran = false;
    cache
        .get_or_compute(&g, 5, ScheduleKind::Edge, || {
            ran = true;
            edge_schedule(&g)
        })
        .expect("schedule");
    assert!(ran, "a failed computation must not leave a schedule behind");
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 1));
    assert!(cache.approx_bytes() > 0);
}

/// Distinct rank-3 ring shapes, each requested twice, interleaved with
/// rank-2 JSON rings.
fn distinct_shape_stream() -> String {
    let mut input = String::new();
    for pass in 0..2 {
        for m in (10..22).step_by(2) {
            let cnf = lll_apps::sat::ring_formula(m, 5, 3);
            input.push_str(&format!(
                "{{\"id\":\"cnf-{pass}-{m}\",\"dimacs\":{}}}\n",
                serde_json::to_string(&cnf.to_string()).unwrap()
            ));
            let n = m + 1;
            let vars: Vec<String> = (0..n)
                .map(|j| format!("{{\"affects\":[{},{}],\"k\":3}}", j, (j + 1) % n))
                .collect();
            let events: Vec<String> = (0..n)
                .map(|j| format!("{{\"vars\":[{},{}],\"values\":[0,0]}}", (j + n - 1) % n, j))
                .collect();
            input.push_str(&format!(
                "{{\"id\":\"ring-{pass}-{n}\",\"instance\":{{\"variables\":[{}],\"events\":[{}]}}}}\n",
                vars.join(","),
                events.join(",")
            ));
        }
    }
    input
}

#[test]
fn capacity_bound_holds_under_concurrent_misses() {
    let input = distinct_shape_stream();
    let uncached = Engine::new(EngineConfig {
        cache: false,
        ..EngineConfig::default()
    });
    let mut expected = Vec::new();
    serve(
        &uncached,
        input.as_bytes(),
        &mut expected,
        &ServeConfig::default(),
    )
    .expect("uncached serve");

    let (out, max_len, evictions) = with_watchdog("bounded concurrent serve", move || {
        let bounded = Engine::new(EngineConfig {
            cache_capacity: Some(1),
            ..EngineConfig::default()
        });
        let stop = AtomicBool::new(false);
        let mut out = Vec::new();
        let max_len = std::thread::scope(|s| {
            let (bounded, stop) = (&bounded, &stop);
            let monitor = s.spawn(move || {
                let mut max_len = 0;
                while !stop.load(Ordering::Relaxed) {
                    max_len = max_len.max(bounded.cached_schedules());
                    std::thread::yield_now();
                }
                max_len
            });
            serve(
                bounded,
                input.as_bytes(),
                &mut out,
                &ServeConfig {
                    threads: 4,
                    batch: 32,
                    ..ServeConfig::default()
                },
            )
            .expect("bounded serve");
            stop.store(true, Ordering::Relaxed);
            monitor.join().unwrap()
        });
        (out, max_len, bounded.stats().cache_evictions)
    });
    assert!(max_len <= 1, "capacity 1 exceeded: saw {max_len} entries");
    assert!(evictions > 0, "distinct shapes at capacity 1 must evict");
    assert_eq!(
        String::from_utf8(out).unwrap(),
        String::from_utf8(expected).unwrap(),
        "bounded concurrent responses diverged from the uncached engine"
    );
}
