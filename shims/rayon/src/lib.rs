//! Offline stand-in for the subset of the `rayon` API this workspace uses.
//!
//! Provides `Vec::into_par_iter().map(f).collect::<Vec<_>>()` plus
//! [`ThreadPoolBuilder`]/[`ThreadPool::install`] and
//! [`current_num_threads`]. The execution engine is a scoped worker pool
//! over an atomic work index: results land in their input slot, so output
//! order — and therefore everything a caller derives from it — is identical
//! for every worker count. `RAYON_NUM_THREADS` is honoured like upstream.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod iter;

/// Re-exports for `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelIterator};
}

thread_local! {
    static POOL_SIZE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The width used outside any [`ThreadPool::install`]: `RAYON_NUM_THREADS`
/// if set to a positive number, else the host's available parallelism. Read
/// once per process, as upstream reads it once when its global pool starts:
/// `available_parallelism` costs a system call, and this is asked at every
/// parallel map.
fn default_num_threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Number of worker threads parallel operations will currently use.
pub fn current_num_threads() -> usize {
    POOL_SIZE.with(|p| p.get()).unwrap_or_else(default_num_threads)
}

/// Builds a [`ThreadPool`] with a chosen worker count.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error building a pool (this shim never fails; kept for API parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    _private: (),
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Starts a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 means "default", like upstream).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => default_num_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A worker pool. In this shim a pool owns no persistent threads — workers
/// are scoped per operation — so a pool is just its configured width.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool as the ambient parallel executor.
    pub fn install<R, F: FnOnce() -> R>(&self, op: F) -> R {
        POOL_SIZE.with(|p| {
            let previous = p.replace(Some(self.num_threads));
            let result = op();
            p.set(previous);
            result
        })
    }

    /// This pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Order-preserving parallel map: the engine behind the iterator facade.
pub(crate) fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = current_num_threads().clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("each slot taken once");
                let value = f(item);
                *out[i].lock().unwrap() = Some(value);
            });
        }
    });
    out.into_iter().map(|m| m.into_inner().unwrap().expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order_for_any_worker_count() {
        let input: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = input.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 7] {
            let pool = ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            let got: Vec<usize> =
                pool.install(|| input.clone().into_par_iter().map(|x| x * 3).collect());
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn default_width_is_stable_and_install_overrides_it() {
        let width = current_num_threads();
        assert!(width >= 1);
        for _ in 0..3 {
            assert_eq!(current_num_threads(), width, "read once per process");
        }
        let other = width + 2;
        let pool = ThreadPoolBuilder::new().num_threads(other).build().unwrap();
        assert_eq!(pool.install(current_num_threads), other);
        assert_eq!(ThreadPoolBuilder::new().build().unwrap().current_num_threads(), width);
        assert_eq!(current_num_threads(), width);
    }

    #[test]
    fn install_scopes_the_pool_width() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }
}
