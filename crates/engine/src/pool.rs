//! A small hand-rolled thread pool with a scoped `map_chunks` primitive.
//!
//! The offline workspace has no `rayon`; this module provides the one
//! parallel shape the engine needs — *split a slice into chunks, run a
//! pure function over every chunk on a fixed set of worker threads, and
//! collect the results in chunk order* — in ~150 lines of std.
//!
//! Results are returned **in chunk order regardless of completion
//! order**, so every caller is deterministic by construction as long as
//! the mapped function is. Worker panics are caught, the scope still
//! joins, and the panic is re-raised on the calling thread. Work that
//! is a single chunk never leaves the calling thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads fed from one shared queue.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads.max(1)` workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("habit-engine-{i}"))
                    .spawn(move || loop {
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // channel closed: pool dropped
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one fire-and-forget job to the pool.
    ///
    /// Unlike [`map_chunks`](Self::map_chunks) this does not block: the
    /// job runs whenever a worker frees up, and dropping the pool joins
    /// it (the queue is drained before the workers exit). This is the
    /// shape a blocking accept loop needs — hand each connection to a
    /// worker and keep accepting.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.tx
            .as_ref()
            .expect("pool sender alive")
            .send(Box::new(job))
            .expect("pool workers alive");
    }

    /// Splits `items` into chunks of `chunk_size` and maps `f(chunk_index,
    /// chunk)` over them on the pool, blocking until every chunk is done.
    /// Results come back in chunk order. The calling thread only waits —
    /// with one worker this still makes progress, just without overlap.
    ///
    /// A **single** chunk runs on the calling thread instead: one thread
    /// will do the work either way, so the boxed job, the channel send
    /// and the worker wake-up buy nothing (a one-gap request is three
    /// such calls).
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
        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new(n_chunks);
        let panicked = AtomicBool::new(false);

        for (c, slot) in slots.iter().enumerate() {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(items.len());
            let chunk = &items[lo..hi];
            let latch_ref = &latch;
            let panicked_ref = &panicked;
            let f_ref = &f;
            let job = move || {
                // Count down even if `f` panics, so `wait` always returns.
                let _done = CountDownOnDrop(latch_ref);
                match catch_unwind(AssertUnwindSafe(|| f_ref(c, chunk))) {
                    Ok(r) => *slot.lock().expect("slot lock") = Some(r),
                    Err(_) => panicked_ref.store(true, Ordering::SeqCst),
                }
            };
            if n_chunks == 1 {
                // The same job, run here. `f` keeps its one call site:
                // a second, direct `f(0, items)` cost `habit fit` 5 % —
                // its accumulate closure was no longer inlined whole.
                job();
                continue;
            }
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(job);
            // SAFETY: the job borrows `items`, `slots`, `latch`, `panicked`
            // and `f` from this stack frame. `latch.wait()` below blocks
            // until every submitted job has finished running (the count-down
            // guard fires even on panic), so no borrow outlives this frame.
            let job: Job = unsafe { std::mem::transmute(job) };
            self.tx
                .as_ref()
                .expect("pool sender alive")
                .send(job)
                .expect("pool workers alive");
        }
        latch.wait();

        if panicked.load(Ordering::SeqCst) {
            panic!("habit-engine: a pooled task panicked");
        }
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock")
                    .expect("every chunk produced a result")
            })
            .collect()
    }

    /// Maps `f` over every item, chunking so each worker gets a few
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

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue; workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A count-down latch: `wait` blocks until `count_down` ran `n` times.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::new(n),
            all_done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock");
        *remaining -= 1;
        if *remaining == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock");
        while *remaining > 0 {
            remaining = self.all_done.wait(remaining).expect("latch wait");
        }
    }
}

struct CountDownOnDrop<'a>(&'a Latch);

impl Drop for CountDownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(ThreadPool::new(0).threads(), 1, "clamped to one worker");
    }

    /// A single chunk is the caller's own work; two or more go to the
    /// pool. Results and chunk order are the same either way.
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
        assert!(two.iter().all(|(thread, _)| *thread != caller));
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
    fn execute_runs_detached_jobs_and_drop_drains_them() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(2);
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 16);
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
        // The pool joined the failed scope; later rounds still work.
        assert_eq!(pool.map_items(&items, |x| x * 10), vec![10, 20, 30]);
    }
}
