//! The worker pool: spawn-once threads draining a shared job queue.
//!
//! Workers are created when the pool is built and live until it is dropped.
//! Jobs are type-erased `'static` `FnOnce` boxes.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// A type-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolState {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// A fixed-size pool of worker threads fed from one shared queue.
///
/// The pool is deliberately minimal: no work stealing, no per-worker deques.
/// Its one user, the daemon, hands each worker one long-lived loop, so the
/// queue itself is never hot.
pub struct ThreadPool {
    state: Arc<PoolState>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `workers` threads. Zero workers is valid: queued jobs then
    /// never run, and dropping the pool discards them.
    pub fn new(workers: usize) -> Self {
        let state = Arc::new(PoolState {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        // A failed spawn (thread exhaustion) degrades to fewer workers
        // instead of aborting.
        let workers = (0..workers)
            .filter_map(|i| {
                let state = Arc::clone(&state);
                thread::Builder::new()
                    .name(format!("mbp-par-{i}"))
                    .spawn(move || worker_loop(&state))
                    .ok()
            })
            .collect();
        ThreadPool { state, workers }
    }

    /// Enqueues `f` for the next idle worker.
    ///
    /// A job that blocks pins its worker until it returns, which is what
    /// the daemon wants of an IO loop. A panic inside `f` is caught by the
    /// worker loop and does not take the pool down. Jobs still queued when
    /// the pool is dropped run to completion before the workers exit.
    pub fn run(&self, f: impl FnOnce() + Send + 'static) {
        let mut q = self.state.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.jobs.push_back(Box::new(f));
        drop(q);
        self.state.available.notify_one();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut q = self.state.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
        }
        self.state.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut q = state.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q = state.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            // A panicking job must not take its worker down with it.
            Some(job) => {
                let _ = panic::catch_unwind(AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Every job runs, a panicking one included, and dropping the pool
    /// drains the queue before it joins the workers.
    #[test]
    fn pool_runs_every_job_and_drains_on_drop() {
        let pool = ThreadPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        pool.run(|| panic!("a failing job"));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            pool.run(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }
}
