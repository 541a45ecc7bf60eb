//! Poison-tolerant locking helpers, and the dense-id bitset the
//! session-long "seen this job" records are kept in.
//!
//! A `Mutex` is *poisoned* when a thread panics while holding it; every
//! later `lock().unwrap()` then propagates the panic, so one software
//! fault cascades through every thread that touches the same state.
//! None of the runtime's shared state holds cross-field invariants that
//! a mid-update panic could break (counters, queues of owned values,
//! already-validated messages), so recovery is always safe: take the
//! inner guard and keep going. These helpers centralize that decision —
//! shared paths say [`lock`] instead of `lock().unwrap()` and survive a
//! panicking peer.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering from poison.
pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering from poison.
pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering the guard from poison.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` with a timeout, recovering the guard from poison. The
/// timed-out flag is dropped — callers re-check their predicate and
/// deadline anyway.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, timeout) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

/// A growable set of small integers, one bit each: what a session-long
/// per-job record costs instead of a hash-table entry. Memory follows
/// the *largest* member, so only dense ids (job ids) belong in it.
#[derive(Debug, Default)]
pub struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// Adds `id`; `true` if it was not yet a member.
    pub fn insert(&mut self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u64) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn id_set_inserts_once_and_never_grows_on_a_probe() {
        let mut set = IdSet::default();
        assert!(!set.contains(0) && !set.contains(u64::MAX));
        assert!(set.insert(130));
        assert!(!set.insert(130), "second insert is not fresh");
        assert!(set.contains(130) && !set.contains(129) && !set.contains(131));
        assert!(set.insert(0) && set.insert(63) && set.insert(64));
        assert_eq!(set.words.len(), 3, "130 / 64 + 1 words, probes added none");
    }

    #[test]
    fn poisoned_mutex_recovers_instead_of_cascading() {
        let shared = Arc::new(Mutex::new(7u32));
        let clone = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.is_poisoned(), "the panic poisoned the mutex");
        // A poison-tolerant lock still reads (and can repair) the state.
        assert_eq!(*lock(&shared), 7);
        *lock(&shared) = 8;
        assert_eq!(*lock(&shared), 8);
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let shared = Arc::new(RwLock::new(1u32));
        let clone = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = clone.write().unwrap();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*read(&shared), 1);
        *write(&shared) = 2;
        assert_eq!(*read(&shared), 2);
    }

    #[test]
    fn condvar_wait_survives_poison() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let clone = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let mut started = lock(&clone.0);
            *started = true;
            clone.1.notify_all();
            panic!("poison while holding the condvar mutex");
        })
        .join();
        let (m, cv) = (&pair.0, &pair.1);
        let mut guard = lock(m);
        while !*guard {
            guard = wait_timeout(cv, guard, Duration::from_millis(10));
        }
        assert!(*guard);
    }
}
