//! A bound on parallelism with a scoped, order-preserving `map_chunks`.
//!
//! The offline workspace has no `rayon`; this module provides the one
//! parallel shape the engine needs — *split a slice into chunks, run a
//! pure function over every chunk on up to N threads, and collect the
//! results in chunk order* — on `std::thread::scope`. No thread outlives
//! the call that spawned it, so there is no queue, no worker to wake and
//! no borrow to smuggle past the compiler.
//!
//! The type keeps the name `ThreadPool` because the benchmark workspace
//! (`benchmark/src/trace.rs`) constructs it and passes it to the engine.
//!
//! Results are returned **in chunk order regardless of completion
//! order**, so every caller is deterministic by construction as long as
//! the mapped function is. A panic in any chunk is re-raised on the
//! calling thread with its own payload, once every other started chunk
//! has returned. Work that is a single chunk never leaves the calling
//! thread.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many threads one engine call may run at once. Holds no threads
/// of its own: each [`map_chunks`](Self::map_chunks) runs the calling
/// thread plus scoped helpers, all joined before it returns.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A bound of `threads.max(1)` threads per call.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The per-call thread bound.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `items` into chunks of `chunk_size` and maps `f(chunk_index,
    /// chunk)` over them, blocking until every chunk is done. Results
    /// come back in chunk order.
    ///
    /// The calling thread works too: it and `min(threads, chunks) − 1`
    /// scoped helpers pull chunk indices from one shared counter, so a
    /// **single** chunk runs on the calling thread and spawns nothing (a
    /// one-gap request is three such calls).
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let chunk_size = chunk_size.max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        // Relaxed: the counter only hands out indices; the chunks' results
        // are published to the caller by `join`.
        let next = AtomicUsize::new(0);
        // `f` keeps this one call site whatever thread runs it: a second,
        // direct `f(0, items)` cost `habit fit` 5 % — its accumulate
        // closure was no longer inlined whole.
        let work = || {
            let mut done = Vec::new();
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    return done;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                done.push((c, f(c, &items[lo..hi])));
            }
        };
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..self.threads.min(n_chunks))
                .map(|_| s.spawn(work))
                .collect();
            // A panic here unwinds through `scope`, which joins the
            // helpers before re-raising it.
            let mut done = work();
            let mut panic = None;
            for helper in helpers {
                match helper.join() {
                    Ok(part) => done.extend(part),
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
            done
        });
        done.sort_unstable_by_key(|&(c, _)| c);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Maps `f` over every item, chunking so each thread gets a few
    /// chunks (load-balancing against uneven item costs). Results are in
    /// item order.
    pub fn map_items<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let chunk = items.len().div_ceil(self.threads() * 4).max(1);
        self.map_chunks(items, chunk, |_, slice| {
            slice.iter().map(&f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn map_chunks_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..103).collect();
        let out = pool.map_chunks(&items, 10, |idx, chunk| (idx, chunk.iter().sum::<u64>()));
        assert_eq!(out.len(), 11);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
        let total: u64 = out.iter().map(|(_, s)| s).sum();
        assert_eq!(total, items.iter().sum::<u64>());
    }

    #[test]
    fn map_items_matches_sequential_map() {
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let items: Vec<i64> = (0..57).collect();
            let out = pool.map_items(&items, |x| x * x);
            let expected: Vec<i64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_and_oversized_chunks() {
        let pool = ThreadPool::new(2);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map_chunks(&empty, 8, |_, c| c.len()).is_empty());
        let one = [42u8];
        assert_eq!(
            pool.map_chunks(&one, 1000, |_, c| c.to_vec()),
            vec![vec![42]]
        );
        assert_eq!(ThreadPool::new(0).threads(), 1, "clamped to one thread");
    }

    /// A single chunk is the caller's own work. Results and chunk order
    /// are the same however many chunks there are.
    #[test]
    fn a_single_chunk_runs_on_the_calling_thread() {
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        let here = |_: usize, chunk: &[u32]| (std::thread::current().id(), chunk.to_vec());

        assert_eq!(
            pool.map_chunks(&[1, 2, 3], 3, here),
            vec![(caller, vec![1, 2, 3])]
        );
        assert_eq!(
            pool.map_items(&[7u32], |x| (std::thread::current().id(), *x)),
            vec![(caller, 7)]
        );

        let two = pool.map_chunks(&[1, 2, 3], 2, here);
        let chunks: Vec<&[u32]> = two.iter().map(|(_, chunk)| chunk.as_slice()).collect();
        assert_eq!(chunks, [&[1, 2][..], &[3]]);
    }

    #[test]
    fn a_panicking_single_chunk_surfaces_on_the_caller_and_the_pool_lives() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_items(&[1u32], |_| -> u32 { panic!("boom") })
        }));
        assert!(result.is_err(), "panic must surface on the caller");
        assert_eq!(pool.map_items(&[1u32, 2, 3], |x| x * 10), vec![10, 20, 30]);
    }

    /// The caller sees the failing chunk's own payload, and not before
    /// every other chunk has run to completion — no chunk is still
    /// borrowing the caller's data when the panic reaches it.
    #[test]
    fn a_panicking_chunk_reports_its_own_panic_after_the_others_finish() {
        let pool = ThreadPool::new(3);
        let items: Vec<usize> = (0..10).collect();
        let finished: Vec<AtomicBool> = items.iter().map(|_| AtomicBool::new(false)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_chunks(&items, 1, |c, _| {
                if c == 7 {
                    panic!("boom-7");
                }
                let spin = std::time::Instant::now();
                while spin.elapsed() < std::time::Duration::from_millis(2) {
                    std::hint::spin_loop();
                }
                finished[c].store(true, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the chunk's panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom-7"));
        for (c, flag) in finished.iter().enumerate() {
            assert_eq!(flag.load(Ordering::SeqCst), c != 7, "chunk {c}");
        }
    }

    #[test]
    fn pool_survives_many_rounds() {
        let pool = ThreadPool::new(3);
        for round in 0..20 {
            let items: Vec<usize> = (0..round * 3 + 1).collect();
            let out = pool.map_items(&items, |x| x + round);
            assert_eq!(out.len(), items.len());
        }
    }

    #[test]
    fn worker_panic_propagates_but_pool_stays_usable() {
        let pool = ThreadPool::new(2);
        let items = [1u32, 2, 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_items(&items, |x| {
                if *x == 2 {
                    panic!("boom");
                }
                *x
            })
        }));
        assert!(result.is_err(), "panic must surface on the caller");
        // Nothing outlived the failed call; later rounds still work.
        assert_eq!(pool.map_items(&items, |x| x * 10), vec![10, 20, 30]);
    }
}
