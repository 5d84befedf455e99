//! The one lock layer: `std::sync` with poisoning ignored.
//!
//! The serve supervisor catches job panics with `catch_unwind`, and a
//! panic that unwinds through a held `std::sync` guard poisons its lock.
//! Every lock site in the workspace goes through these functions, which
//! hand out the data of a poisoned lock as usual, so a caught panic never
//! turns into a second panic at the next lock site. The workspace
//! `clippy.toml` disallows the raw `std::sync` methods everywhere else.
#![allow(clippy::disallowed_methods)]

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Locks `m`, poisoned or not.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes shared access to `l`, poisoned or not.
pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes exclusive access to `l`, poisoned or not.
pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Releases `guard` until `cv` is notified or `timeout` passes, and
/// returns it re-acquired, poisoned or not. Callers re-check their
/// condition in a loop, so a timeout and a spurious wakeup look alike.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, timeout) {
        Ok((g, _)) => g,
        Err(p) => p.into_inner().0,
    }
}

/// The data of `m` through exclusive access: no lock is taken.
pub fn get_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Consumes `m` and returns its data, poisoned or not.
pub fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_caught_panic_leaves_every_lock_usable() {
        let m = Mutex::new(1u32);
        let l = RwLock::new(vec![1u32]);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _g = lock(&m);
            let _w = write(&l);
            panic!("job panicked under both locks");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned() && l.is_poisoned());

        *lock(&m) += 1;
        write(&l).push(2);
        assert_eq!(*lock(&m), 2);
        assert_eq!(*read(&l), vec![1, 2]);

        // a timed wait on the poisoned mutex hands its guard back
        let cv = Condvar::new();
        let g = wait_timeout(&cv, lock(&m), Duration::from_millis(1));
        assert_eq!(*g, 2);
        drop(g);
        let mut m = m;
        *get_mut(&mut m) += 1;
        assert_eq!(into_inner(m), 3);
    }
}
