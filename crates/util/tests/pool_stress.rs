//! Stress tests for the work-stealing pool: panic propagation from every
//! primitive, deeply nested fork/join on saturated pools, and randomized
//! workload shapes pinned against sequential execution. The unit tests in
//! `pool.rs` cover the happy paths; this binary hammers the scheduling
//! edges that only show up under contention.

use hyperear_util::pool::Pool;
use hyperear_util::rng::Xoshiro256pp;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A deterministic per-item workload whose cost varies with the index,
/// so items finish out of order and stealing actually happens.
fn work_item(i: usize) -> u64 {
    let rounds = 64 + (i % 7) * 211;
    (0..rounds as u64).fold(i as u64, |acc, k| {
        acc.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k
    })
}

#[test]
fn randomized_map_shapes_match_sequential() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5745_u64);
    for threads in [1usize, 2, 3, 8] {
        let pool = Pool::new(threads);
        for _ in 0..20 {
            let len = rng.next_below(400) as usize;
            let par = pool.parallel_map(len, work_item);
            let seq: Vec<u64> = (0..len).map(work_item).collect();
            assert_eq!(par, seq, "threads {threads}, len {len}");
        }
    }
}

#[test]
fn nested_joins_to_depth_under_saturation() {
    // Binary recursion to depth 12 on a small pool: 2^12 leaves all
    // funnel through two workers plus the caller, exercising the
    // reclaim-unstarted-task path and worker help-while-waiting.
    fn sum(pool: &Pool, lo: u64, hi: u64, depth: usize) -> u64 {
        if depth == 0 || hi - lo < 2 {
            return (lo..hi).map(|x| x * x).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = pool.join(
            || sum(pool, lo, mid, depth - 1),
            || sum(pool, mid, hi, depth - 1),
        );
        a + b
    }
    let expected: u64 = (0..4096).map(|x: u64| x * x).sum();
    for threads in [1, 3] {
        let pool = Pool::new(threads);
        assert_eq!(sum(&pool, 0, 4096, 12), expected, "threads {threads}");
    }
}

#[test]
fn repeated_panics_never_wedge_the_pool() {
    let pool = Pool::new(3);
    for round in 0..50 {
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_each(16, |i| {
                assert!(i != round % 16, "poisoned item");
            });
        }));
        assert!(r.is_err(), "round {round} must propagate the item panic");
        // The pool must stay fully functional between failures.
        let ok = pool.parallel_map(8, |i| i * 3);
        assert_eq!(ok, vec![0, 3, 6, 9, 12, 15, 18, 21], "round {round}");
    }
}

#[test]
fn panic_inside_nested_join_unwinds_cleanly() {
    let pool = Pool::new(2);
    let executed = AtomicU64::new(0);
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.join(
            || {
                pool.join(
                    || executed.fetch_add(1, Ordering::SeqCst),
                    || panic!("inner right boom"),
                )
            },
            || executed.fetch_add(1, Ordering::SeqCst),
        )
    }));
    assert!(r.is_err());
    // Both non-panicking closures ran to completion before the unwind.
    assert_eq!(executed.load(Ordering::SeqCst), 2);
    let (a, b) = pool.join(|| 5, || 6);
    assert_eq!((a, b), (5, 6));
}

#[test]
fn scope_survives_mixed_panicking_spawns() {
    let pool = Pool::new(3);
    let done = AtomicU64::new(0);
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            for i in 0..32 {
                s.spawn(|| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
                if i == 17 {
                    s.spawn(|| panic!("spawn seventeen-and-a-half"));
                }
            }
        });
    }));
    assert!(r.is_err(), "spawned panic must re-throw from scope");
    // Every non-panicking spawn still ran: scope waits for all tasks
    // before propagating.
    assert_eq!(done.load(Ordering::SeqCst), 32);
}

#[test]
fn interleaved_primitives_share_one_pool() {
    // Regions, joins and scopes interleaved on the same pool from the
    // same caller: the stress shape of a batch engine running sessions
    // whose internals also fork.
    let pool = Pool::new(4);
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    for _ in 0..10 {
        let len = 8 + rng.next_below(48) as usize;
        let outer = pool.parallel_map(len, |i| {
            let (a, b) = pool.join(|| work_item(i), || work_item(i + 1));
            a ^ b
        });
        let seq: Vec<u64> = (0..len).map(|i| work_item(i) ^ work_item(i + 1)).collect();
        assert_eq!(outer, seq);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..len {
                s.spawn(|| {
                    total.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst) as usize, len);
    }
}

/// Two threads that alternate 20 µs of spinning with 20 µs of sleep
/// until dropped. Every wakeup preempts whichever thread holds the CPU
/// at an arbitrary instruction, which stretches a nanosecond race
/// window in the pool to a scheduler slice.
struct PreemptionLoad {
    stop: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl PreemptionLoad {
    fn start() -> Self {
        const PHASE: Duration = Duration::from_micros(20);
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..2)
            .map(|_| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        while t.elapsed() < PHASE {
                            std::hint::spin_loop();
                        }
                        thread::sleep(PHASE);
                    }
                })
            })
            .collect();
        PreemptionLoad { stop, threads }
    }
}

impl Drop for PreemptionLoad {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Completion race: a participant that touches a fork's stack frame
/// (latch included) after signalling completion corrupts the next fork,
/// which reuses the same addresses — a hang, or a fork that returns
/// before its work ran. Every participant runs its own stream of tiny
/// joins and regions, so owners wait both parked (the calling thread)
/// and spinning while they help (workers). The streams have different
/// lengths, so each pass ends with participants going idle while others
/// still fork — the phase where the race showed — and the pool must
/// still shut down cleanly afterwards. A sound pool takes well under a
/// second.
#[test]
fn nested_tiny_forks_complete_under_a_watchdog() {
    const THREADS: usize = 3;
    const PASSES: u64 = 30;
    const DEADLINE: Duration = Duration::from_secs(60);
    let rounds = |participant: usize| 10_000 * (participant as u64 + 1) / THREADS as u64;
    let total = PASSES * (0..THREADS).map(rounds).sum::<u64>();
    let _load = PreemptionLoad::start();
    let done = Arc::new(AtomicU64::new(0));
    let progress = Arc::clone(&done);
    let (tx, rx) = mpsc::channel();
    // The forks run on their own thread so a hung pool fails the test at
    // the deadline instead of hanging it (the stuck thread stays parked
    // until the test binary exits).
    let forks = thread::spawn(move || {
        let pool = Pool::new(THREADS);
        for _ in 0..PASSES {
            pool.parallel_for_each(THREADS, |participant| {
                let mut ctxs = [0u64; THREADS];
                let mut items = [0u64; 3];
                for round in 1..=rounds(participant) {
                    let (a, b) = pool.join(|| round, || round + 1);
                    assert_eq!(a + 1, b);
                    pool.parallel_update(&mut ctxs, &mut items, |_, _, item| *item += 1);
                    assert_eq!(items, [round; 3], "round {round} returned early");
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        drop(pool);
        let _ = tx.send(());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = forks.join() {
                panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "pool stalled: {} of {total} rounds finished within {DEADLINE:?}",
            done.load(Ordering::Relaxed)
        ),
    }
}
