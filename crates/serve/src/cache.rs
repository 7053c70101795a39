//! The topology cache.
//!
//! Schedules ([`Schedule`]: coloring + palette + round bill) are pure
//! functions of `(dependency graph, seed)`, so requests sharing a
//! graph shape can reuse one schedule and pay only the fixing sweep.
//! The cache is bucketed by [`lll_graphs::Graph::fingerprint`] — cheap,
//! label-sensitive, seed-independent — but a fingerprint is only a
//! hash: every slot also keeps the graph's *compact key* (node count +
//! canonical sorted edge list, narrowed to `u32` pairs), and a hit is
//! taken only when that key equals the requested graph's. `Graph`'s
//! ports, edge ids and twin-port involution are pure functions of the
//! node count and sorted edge list, so key equality is `Graph`
//! equality at ≈8 bytes per edge instead of the full CSR clone. A
//! fingerprint collision costs a recompute, never a wrong schedule.
//!
//! The map lock covers lookup and insert only; a schedule is never
//! computed under it, so requests for different shapes color in
//! parallel. A miss first inserts an *in-flight* slot for its key and
//! computes outside the lock; concurrent requests for the same
//! `(graph, seed, kind)` block on that slot and count as hits, so each
//! shape is computed once and `misses` equals "schedules computed". A
//! failed (or panicking) computation removes its slot and wakes its
//! waiters, which retry the lookup — the next one in computes the
//! schedule itself. Nothing is stored on failure.
//!
//! An unbounded cache ([`TopologyCache::new`]) never evicts — the
//! daemon's workloads are bounded batches, and `--no-cache` exists for
//! the cold baseline. [`TopologyCache::with_capacity`] bounds the
//! entry count with least-recently-used eviction: every hit stamps the
//! entry with a monotone use tick, and an insert past capacity drops
//! the stored entry with the oldest stamp (in-flight slots hold no
//! schedule and are neither counted nor evicted). Eviction only ever
//! costs a recompute on the next request for that shape — the
//! recomputed schedule is the same pure function of `(graph, seed)`,
//! so responses stay byte-identical.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use lll_core::dist::{Schedule, ScheduleKind};
use lll_graphs::Graph;

/// A graph's identity without its CSR layout: node count plus the
/// canonical (sorted) edge list.
struct CompactKey {
    nodes: usize,
    edges: Box<[(u32, u32)]>,
}

impl CompactKey {
    /// The key of `g`, or `None` if an endpoint does not fit in `u32`
    /// (such a graph is computed uncached).
    fn of(g: &Graph) -> Option<CompactKey> {
        let edges = g
            .edges()
            .iter()
            .map(|&(u, v)| Some((u32::try_from(u).ok()?, u32::try_from(v).ok()?)))
            .collect::<Option<Box<[_]>>>()?;
        Some(CompactKey {
            nodes: g.num_nodes(),
            edges,
        })
    }

    fn matches(&self, g: &Graph) -> bool {
        self.nodes == g.num_nodes()
            && self.edges.len() == g.num_edges()
            && self
                .edges
                .iter()
                .zip(g.edges())
                .all(|(&(a, b), &(u, v))| a as usize == u && b as usize == v)
    }
}

/// A schedule being computed by one request; others for the same key
/// wait on it.
#[derive(Default)]
struct InFlight {
    outcome: Mutex<Outcome>,
    done: Condvar,
}

#[derive(Default)]
enum Outcome {
    #[default]
    Pending,
    Ready(Arc<Schedule>),
    Failed,
}

// The outcome is only ever replaced whole, so a poisoned lock still
// guards a valid value.
impl InFlight {
    fn finish(&self, outcome: Outcome) {
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = outcome;
        self.done.notify_all();
    }

    /// Blocks until the computation ends; `None` if it failed.
    fn wait(&self) -> Option<Arc<Schedule>> {
        let mut outcome = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*outcome {
                Outcome::Pending => {
                    outcome = self
                        .done
                        .wait(outcome)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Outcome::Ready(schedule) => return Some(Arc::clone(schedule)),
                Outcome::Failed => return None,
            }
        }
    }
}

enum State {
    Ready {
        schedule: Arc<Schedule>,
        /// Monotone use stamp for LRU: updated on every hit and on insert.
        last_used: u64,
    },
    Computing(Arc<InFlight>),
}

struct Slot {
    key: CompactKey,
    seed: u64,
    kind: ScheduleKind,
    state: State,
}

impl Slot {
    fn matches(&self, g: &Graph, seed: u64, kind: ScheduleKind) -> bool {
        self.seed == seed && self.kind == kind && self.key.matches(g)
    }

    fn computing(&self, flight: &Arc<InFlight>) -> bool {
        matches!(&self.state, State::Computing(f) if Arc::ptr_eq(f, flight))
    }

    /// Approximate resident bytes of a stored slot (its key + schedule).
    fn approx_bytes(&self, schedule: &Schedule) -> usize {
        std::mem::size_of::<Slot>()
            + self.key.edges.len() * std::mem::size_of::<(u32, u32)>()
            + schedule.approx_bytes()
    }
}

type Slots = HashMap<u64, Vec<Slot>>;

/// A concurrent schedule cache with hit/miss/eviction counters.
///
/// Counters are observability only (stderr stats, metrics export);
/// they never reach a response body, which must stay byte-identical
/// hit vs. miss vs. post-eviction recompute.
pub struct TopologyCache {
    slots: Mutex<Slots>,
    /// Maximum number of stored schedules; `None` = unbounded.
    capacity: Option<usize>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Stored schedules and their approximate bytes: running tallies,
    /// changed only under the map lock, so readers never walk the map.
    len: AtomicUsize,
    bytes: AtomicUsize,
}

impl TopologyCache {
    /// An empty, unbounded cache (never evicts).
    pub fn new() -> TopologyCache {
        TopologyCache::with_capacity(None)
    }

    /// An empty cache holding at most `capacity` schedules, evicting
    /// the least-recently-used entry when full. `None` is unbounded;
    /// `Some(0)` caches nothing (every request is a miss).
    pub fn with_capacity(capacity: Option<usize>) -> TopologyCache {
        TopologyCache {
            slots: Mutex::new(HashMap::new()),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Returns the cached schedule for `(g, seed, kind)`, or computes,
    /// stores, and returns it. `compute` runs on the calling thread
    /// with no cache lock held; a concurrent request for the same key
    /// waits for it and counts as a hit, while requests for other keys
    /// proceed in parallel.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; nothing is stored on failure, and
    /// requests that were waiting on this computation retry.
    pub fn get_or_compute<E>(
        &self,
        g: &Graph,
        seed: u64,
        kind: ScheduleKind,
        compute: impl FnOnce() -> Result<Schedule, E>,
    ) -> Result<Arc<Schedule>, E> {
        self.get_or_compute_fingerprinted(g.fingerprint(), g, seed, kind, compute)
    }

    /// [`TopologyCache::get_or_compute`] for a caller that already
    /// holds `fingerprint == g.fingerprint()`.
    pub(crate) fn get_or_compute_fingerprinted<E>(
        &self,
        fingerprint: u64,
        g: &Graph,
        seed: u64,
        kind: ScheduleKind,
        compute: impl FnOnce() -> Result<Schedule, E>,
    ) -> Result<Arc<Schedule>, E> {
        if self.capacity == Some(0) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return compute().map(Arc::new);
        }
        let flight = loop {
            let mut slots = self.lock();
            let found = slots
                .get_mut(&fingerprint)
                .and_then(|bucket| bucket.iter_mut().find(|s| s.matches(g, seed, kind)));
            match found.map(|slot| &mut slot.state) {
                Some(State::Ready {
                    schedule,
                    last_used,
                }) => {
                    *last_used = self.stamp();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(schedule));
                }
                Some(State::Computing(flight)) => {
                    let flight = Arc::clone(flight);
                    drop(slots);
                    if let Some(schedule) = flight.wait() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(schedule);
                    }
                    // That computation failed and removed its slot:
                    // look again, and compute if nobody else has.
                }
                None => {
                    let Some(key) = CompactKey::of(g) else {
                        drop(slots);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return compute().map(Arc::new);
                    };
                    let flight = Arc::new(InFlight::default());
                    slots.entry(fingerprint).or_default().push(Slot {
                        key,
                        seed,
                        kind,
                        state: State::Computing(Arc::clone(&flight)),
                    });
                    break flight;
                }
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let claim = Claim {
            cache: self,
            fingerprint,
            flight,
            stored: false,
        };
        let schedule = Arc::new(compute()?);
        claim.store(Arc::clone(&schedule));
        Ok(schedule)
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().expect("cache lock poisoned")
    }

    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Removes the stored entry with the oldest `last_used` stamp.
    /// O(entries) scan — fine at daemon cache sizes, and only paid on
    /// insert past capacity.
    fn evict_lru(&self, slots: &mut Slots) {
        let victim = slots
            .iter()
            .flat_map(|(fp, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, s)| match s.state {
                        State::Ready { last_used, .. } => Some((last_used, *fp, i)),
                        State::Computing(_) => None,
                    })
            })
            .min()
            .map(|(_, fp, i)| (fp, i));
        if let Some((fp, i)) = victim {
            let bucket = slots.get_mut(&fp).expect("victim bucket exists");
            let slot = bucket.remove(i);
            if bucket.is_empty() {
                slots.remove(&fp);
            }
            if let State::Ready { schedule, .. } = &slot.state {
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.bytes
                    .fetch_sub(slot.approx_bytes(schedule), Ordering::Relaxed);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cache hits so far (including requests that waited on another
    /// request's computation of the same schedule).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= schedules computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU bound so far (always 0 unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The configured entry bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of stored schedules (in-flight computations excluded).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of all stored keys + schedules.
    /// Telemetry estimate (capacities, not allocator book-keeping).
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Default for TopologyCache {
    fn default() -> TopologyCache {
        TopologyCache::new()
    }
}

/// A miss's claim on its in-flight slot. [`Claim::store`] turns the
/// slot into a stored entry; dropping the claim unstored (the
/// computation failed or panicked) removes the slot and wakes its
/// waiters.
struct Claim<'a> {
    cache: &'a TopologyCache,
    fingerprint: u64,
    flight: Arc<InFlight>,
    stored: bool,
}

impl Claim<'_> {
    fn store(mut self, schedule: Arc<Schedule>) {
        let cache = self.cache;
        {
            let mut slots = cache.lock();
            if cache.capacity.is_some_and(|cap| cache.len() >= cap) {
                cache.evict_lru(&mut slots);
            }
            let slot = slots
                .get_mut(&self.fingerprint)
                .and_then(|bucket| bucket.iter_mut().find(|s| s.computing(&self.flight)))
                .expect("in-flight slot is only removed by its claim");
            slot.state = State::Ready {
                schedule: Arc::clone(&schedule),
                last_used: cache.stamp(),
            };
            cache.len.fetch_add(1, Ordering::Relaxed);
            cache
                .bytes
                .fetch_add(slot.approx_bytes(&schedule), Ordering::Relaxed);
        }
        self.flight.finish(Outcome::Ready(schedule));
        self.stored = true;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.stored {
            return;
        }
        {
            // No panic in drop: removing one slot leaves even a
            // poisoned map consistent.
            let mut slots = self
                .cache
                .slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(bucket) = slots.get_mut(&self.fingerprint) {
                bucket.retain(|s| !s.computing(&self.flight));
                if bucket.is_empty() {
                    slots.remove(&self.fingerprint);
                }
            }
        }
        self.flight.finish(Outcome::Failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The tallies recomputed the slow way: a walk over every stored
    /// slot.
    fn walk(cache: &TopologyCache) -> (usize, usize) {
        let slots = cache.lock();
        slots
            .values()
            .flatten()
            .filter_map(|s| match &s.state {
                State::Ready { schedule, .. } => Some(s.approx_bytes(schedule)),
                State::Computing(_) => None,
            })
            .fold((0, 0), |(n, b), bytes| (n + 1, b + bytes))
    }

    #[test]
    fn running_tallies_match_a_fresh_walk() {
        let mut rng = StdRng::seed_from_u64(0x7a11);
        for capacity in [None, Some(1), Some(3), Some(8)] {
            let cache = TopologyCache::with_capacity(capacity);
            for _ in 0..200 {
                let g = gen::ring(rng.random_range(3usize..15));
                let seed = rng.random_range(0u64..3);
                let kind = if rng.random_bool(0.5) {
                    ScheduleKind::Edge
                } else {
                    ScheduleKind::Distance2
                };
                let fail = rng.random_bool(0.1);
                let misses = cache.misses();
                let got = cache.get_or_compute(&g, seed, kind, || {
                    if fail {
                        return Err("refused".to_owned());
                    }
                    match kind {
                        ScheduleKind::Edge => Schedule::edge(&g, seed, 1),
                        ScheduleKind::Distance2 => Schedule::distance2(&g, seed, 1),
                    }
                    .map_err(|e| e.to_string())
                });
                assert_eq!(got.is_err(), fail && cache.misses() > misses);
                assert_eq!(
                    (cache.len(), cache.approx_bytes()),
                    walk(&cache),
                    "tallies drifted at capacity {capacity:?}"
                );
                if let Some(cap) = capacity {
                    assert!(cache.len() <= cap);
                }
            }
            if capacity.is_some_and(|cap| cap < 8) {
                assert!(cache.evictions() > 0, "sequence never evicted");
            }
            assert_eq!(cache.lock().values().flatten().count(), cache.len());
        }
    }
}
