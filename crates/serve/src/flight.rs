//! Generic single-flight computation table.
//!
//! Concurrent misses on the same unit of work elect one **leader** under
//! the table's lock; the leader computes once and publishes the result
//! (or its error) to every waiter. The table does not know what a unit
//! is; [`crate::server::TileServer`] keys its flights by tile and data
//! generation, `(zoom, tx, ty, generation)`, because a tile computed
//! for a *newer state of the data* is fresh work, not a duplicate. A
//! frozen point set stays at generation 0. The counters are unit-neutral
//! (`serve.flight.*`).
//!
//! The table also keeps the ever-computed key set, bounded by the key
//! space (pyramid tiles × the generations computed; a patch retires the
//! generation it advanced from with [`FlightTable::forget`]), so
//! *duplicate* computes — recomputing a key this table already saw,
//! which only a cache eviction or a dedup bug can cause — are
//! observable. [`FlightStats::duplicate_computes`] must stay at zero
//! under an adequately sized cache however many threads hammer the
//! server, which `ci.sh serve-load` (trace and live-feed replays) and
//! the live hammer test both assert.
//!
//! Every lock here recovers from poisoning: each critical section is one
//! insert, remove or slot write, so the guarded state is consistent
//! whenever the lock is free, and a panic on one request's thread must
//! not fail every later request that touches the same table.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use kdv_core::{KdvError, Result};

/// One in-flight computation: the leader publishes the value (or its
/// error) into `slot` exactly once and wakes every waiter.
pub struct Flight<T> {
    slot: Mutex<Option<Result<T>>>,
    done: Condvar,
}

impl<T: Clone> Flight<T> {
    fn new() -> Self {
        Self { slot: Mutex::new(None), done: Condvar::new() }
    }

    /// Publishes the leader's result exactly once and wakes all waiters.
    pub fn publish(&self, result: Result<T>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(result);
        }
        self.done.notify_all();
    }

    /// Blocks until the leader publishes, then returns a clone of the
    /// result.
    pub fn wait(&self) -> Result<T> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        while slot.is_none() {
            slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        slot.as_ref().expect("published").clone()
    }
}

/// Saturating single-flight counters. `computed` counts computations
/// actually executed, `joined` counts misses that reused another
/// request's in-flight computation instead of starting their own, and
/// `duplicate_computes` counts computes of a key this table had already
/// recorded before — wasted work that only a cache eviction (or a dedup
/// bug) can cause.
#[derive(Debug, Default)]
pub struct FlightStats {
    computed: kdv_obs::Counter,
    joined: kdv_obs::Counter,
    duplicates: kdv_obs::Counter,
}

impl FlightStats {
    /// Computations executed through this table.
    pub fn computed(&self) -> u64 {
        self.computed.get()
    }

    /// Misses that joined an in-flight computation instead of starting a
    /// duplicate one.
    pub fn joined(&self) -> u64 {
        self.joined.get()
    }

    /// Computes of a key that had already been computed before (zero
    /// unless the cache evicted it in between).
    pub fn duplicate_computes(&self) -> u64 {
        self.duplicates.get()
    }
}

/// A single-flight table over work keyed by `K`: misses claim keys
/// (becoming leader or joiner), leaders record completion, and the table
/// remembers every key ever computed for duplicate detection.
pub struct FlightTable<K, T> {
    inflight: Mutex<HashMap<K, Arc<Flight<T>>>>,
    computed: Mutex<HashSet<K>>,
    stats: FlightStats,
}

impl<K: Eq + Hash + Clone, T: Clone> FlightTable<K, T> {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
            computed: Mutex::new(HashSet::new()),
            stats: FlightStats::default(),
        }
    }

    /// The table's saturating counters.
    pub fn stats(&self) -> &FlightStats {
        &self.stats
    }

    /// Splits one request's missing keys into flights this request
    /// **leads** (it was first; it must compute and publish) and flights
    /// it **joins** (another request is already computing the same key).
    /// All keys are claimed under one lock acquisition, so two requests
    /// missing an overlapping key set agree on exactly one leader per
    /// key.
    #[allow(clippy::type_complexity)]
    pub fn claim(&self, keys: &[K]) -> (Vec<(K, Arc<Flight<T>>)>, Vec<(K, Arc<Flight<T>>)>) {
        use std::collections::hash_map::Entry;
        let mut lead = Vec::new();
        let mut join = Vec::new();
        let mut map = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        for key in keys {
            match map.entry(key.clone()) {
                Entry::Occupied(e) => {
                    self.stats.joined.bump();
                    kdv_obs::metrics::global().counter("serve.flight.joined").bump();
                    join.push((key.clone(), Arc::clone(e.get())));
                }
                Entry::Vacant(v) => {
                    let flight = Arc::new(Flight::new());
                    v.insert(Arc::clone(&flight));
                    lead.push((key.clone(), flight));
                }
            }
        }
        (lead, join)
    }

    /// Removes a finished flight from the in-flight table (waiters that
    /// already hold the `Arc` still read its published result).
    pub fn deregister(&self, key: &K) {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(key);
    }

    /// Retires a key from the ever-computed set: its result was
    /// deliberately discarded (e.g. a streaming tile patched forward to
    /// a newer generation retires the stale generation), so a later
    /// recompute of it is legitimate work, not a dedup failure.
    pub fn forget(&self, key: &K) {
        self.computed.lock().unwrap_or_else(PoisonError::into_inner).remove(key);
    }

    /// Records that `key` was computed, bumping the computed counter and
    /// — if this table had already recorded the same key — the duplicate
    /// counter. Returns whether it was a duplicate.
    pub fn record_computed(&self, key: K) -> bool {
        let duplicate = !self.computed.lock().unwrap_or_else(PoisonError::into_inner).insert(key);
        self.stats.computed.bump();
        let metrics = kdv_obs::metrics::global();
        metrics.counter("serve.flight.computed").bump();
        if duplicate {
            self.stats.duplicates.bump();
            metrics.counter("serve.flight.duplicate_computes").bump();
            // A duplicate compute is wasted work the dedup design says
            // cannot happen under an adequate cache — worth a flight dump.
            kdv_obs::ring::trigger("duplicate.compute", None);
        }
        duplicate
    }

    /// A publish-on-drop lease for a led flight: if the leader panics
    /// before [`FlightLease::complete`], waiters receive an error instead
    /// of blocking forever, and the flight is deregistered either way.
    pub fn lease<'a>(&'a self, key: K, flight: &'a Arc<Flight<T>>) -> FlightLease<'a, K, T> {
        FlightLease { table: self, key, flight, published: false }
    }
}

impl<K: Eq + Hash + Clone, T: Clone> Default for FlightTable<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Publish-on-drop guard for a led flight (see [`FlightTable::lease`]).
pub struct FlightLease<'a, K: Eq + Hash + Clone, T: Clone> {
    table: &'a FlightTable<K, T>,
    key: K,
    flight: &'a Arc<Flight<T>>,
    published: bool,
}

impl<K: Eq + Hash + Clone, T: Clone> FlightLease<'_, K, T> {
    /// Publishes the leader's result and deregisters the flight.
    pub fn complete(&mut self, result: Result<T>) {
        self.flight.publish(result);
        self.table.deregister(&self.key);
        self.published = true;
    }
}

impl<K: Eq + Hash + Clone, T: Clone> Drop for FlightLease<'_, K, T> {
    fn drop(&mut self) {
        if !self.published {
            self.flight.publish(Err(KdvError::Internal("single-flight leader panicked")));
            self.table.deregister(&self.key);
            kdv_obs::ring::trigger("leader.panic", None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn one_leader_per_key_and_joiners_share_the_result() {
        let table: FlightTable<u32, u64> = FlightTable::new();
        let (lead, join) = table.claim(&[1, 2]);
        assert_eq!((lead.len(), join.len()), (2, 0));
        let (lead2, join2) = table.claim(&[2, 3]);
        assert_eq!((lead2.len(), join2.len()), (1, 1), "key 2 joins, key 3 leads");
        for (key, flight) in lead.iter().chain(lead2.iter()) {
            let mut lease = table.lease(*key, flight);
            table.record_computed(*key);
            lease.complete(Ok(u64::from(*key) * 10));
        }
        assert_eq!(join2[0].1.wait().unwrap(), 20);
        assert_eq!(table.stats().computed(), 3);
        assert_eq!(table.stats().joined(), 1);
        assert_eq!(table.stats().duplicate_computes(), 0);
    }

    #[test]
    fn recompute_of_a_recorded_key_counts_as_duplicate() {
        let table: FlightTable<u32, u64> = FlightTable::new();
        assert!(!table.record_computed(7));
        assert!(table.record_computed(7));
        assert_eq!(table.stats().duplicate_computes(), 1);
    }

    #[test]
    fn dropped_lease_fails_waiters_instead_of_hanging() {
        let table: FlightTable<u32, u64> = FlightTable::new();
        let (lead, _) = table.claim(&[9]);
        let (_, join) = table.claim(&[9]);
        let waiter = {
            let flight = Arc::clone(&join[0].1);
            thread::spawn(move || flight.wait())
        };
        drop(table.lease(9, &lead[0].1)); // leader "panics" without publishing
        assert!(waiter.join().unwrap().is_err());
        // the flight is deregistered, so the key can be claimed afresh
        let (lead2, join2) = table.claim(&[9]);
        assert_eq!((lead2.len(), join2.len()), (1, 0));
    }

    /// Poisons `mutex` by panicking on a thread that holds it.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = mutex.lock();
                panic!("holder panics with the lock held");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn poisoned_slot_still_publishes_and_waits() {
        let flight: Flight<u64> = Flight::new();
        poison(&flight.slot);
        flight.publish(Ok(5));
        assert_eq!(flight.wait().unwrap(), 5);
    }

    #[test]
    fn poisoned_inflight_table_still_claims_and_deregisters() {
        let table: FlightTable<u32, u64> = FlightTable::new();
        poison(&table.inflight);
        let (lead, join) = table.claim(&[1]);
        assert_eq!((lead.len(), join.len()), (1, 0));
        assert_eq!(table.claim(&[1]).1.len(), 1, "key 1 is in flight");
        table.lease(1, &lead[0].1).complete(Ok(10));
        assert_eq!(table.claim(&[1]).0.len(), 1, "completed flight was deregistered");
    }

    #[test]
    fn poisoned_computed_set_still_records_and_forgets() {
        let table: FlightTable<u32, u64> = FlightTable::new();
        poison(&table.computed);
        assert!(!table.record_computed(3));
        assert!(table.record_computed(3));
        table.forget(&3);
        assert!(!table.record_computed(3), "a forgotten key is fresh work");
        assert_eq!(table.stats().duplicate_computes(), 1);
    }
}
