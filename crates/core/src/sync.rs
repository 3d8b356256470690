//! Poison-tolerant locking for the threads the pipeline and the store
//! reader start.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Lock a std mutex, shrugging off poisoning: every guarded value (plain
/// counters, queued tasks, whole memoized outcomes, read-ahead batches)
/// is valid between any two updates, and a thread's panic is separately
/// propagated.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Wait on `cv` with `guard` held, shrugging off poisoning like [`lock`].
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|p| p.into_inner())
}
