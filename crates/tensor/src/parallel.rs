//! The workspace's one data-parallel primitive: [`for_each_chunk_mut`].
//!
//! Its two callers are the packed GEMM driver (row panels of the output) and the
//! image lanes of `VisionTransformer::infer_batch_into`. Work runs on
//! `std::thread::scope` threads, one per available core (queried on every call) up to
//! one per chunk, pulling chunks from a shared queue. A single chunk, or a call made
//! from inside another region, runs inline on the caller's thread. This is a plain
//! chunk-queue scheduler, not a work-stealing pool — adequate for the coarse-grained
//! panel/image parallelism the workspace needs.

use std::cell::Cell;
use std::sync::Mutex;

std::thread_local! {
    /// `true` while the current thread is a worker of a parallel region. Nested regions
    /// then run inline instead of spawning another thread generation — without this
    /// guard, image lanes × GEMM panels would multiply into O(cores²) concurrent OS
    /// threads; keeping only the outermost level parallel is where the coarse-grained
    /// win is.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Calls `f(index, chunk)` for every `chunk_len`-element chunk of `slice` (the last
/// one may be shorter), distributing chunks over scoped worker threads.
///
/// `min(available_parallelism(), chunks)` workers each pull the next chunk from a
/// mutex-guarded queue until it is empty. Everything runs inline, in index order, when
/// there is at most one chunk or the caller is already a worker of an enclosing
/// region.
///
/// # Panics
///
/// Panics when `chunk_len == 0`, or re-raises a panic of `f` on any worker.
pub fn for_each_chunk_mut<T, F>(slice: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be non-zero");
    let chunks = slice.len().div_ceil(chunk_len);
    let workers = if chunks <= 1 || IN_PARALLEL_REGION.with(Cell::get) {
        1
    } else {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(chunks)
    };
    if workers <= 1 {
        for (index, chunk) in slice.chunks_mut(chunk_len).enumerate() {
            f(index, chunk);
        }
        return;
    }
    let queue = Mutex::new(slice.chunks_mut(chunk_len).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_PARALLEL_REGION.with(|flag| flag.set(true));
                loop {
                    let next = queue.lock().expect("chunk queue poisoned").next();
                    match next {
                        Some((index, chunk)) => f(index, chunk),
                        None => break,
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_is_visited_once_with_its_index() {
        let mut data = vec![0u32; 103];
        for_each_chunk_mut(&mut data, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (at, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (at / 10) as u32, "element {at}");
        }
    }

    #[test]
    fn nested_parallel_regions_stay_correct_and_run_inline() {
        // Outer parallelism over 8 items, each running an inner region over 100: the
        // nesting guard must keep results correct and run every inner region inline
        // on the thread that entered it instead of spawning another thread generation.
        let mut totals = vec![0usize; 8];
        for_each_chunk_mut(&mut totals, 1, |outer, total| {
            let caller = std::thread::current().id();
            let mut inner: Vec<(usize, Option<std::thread::ThreadId>)> =
                (0..100).map(|i| (i, None)).collect();
            for_each_chunk_mut(&mut inner, 7, |_, chunk| {
                for (v, id) in chunk.iter_mut() {
                    *v *= outer;
                    *id = Some(std::thread::current().id());
                }
            });
            assert!(inner.iter().all(|&(_, id)| id == Some(caller)));
            total[0] = inner.iter().map(|&(v, _)| v).sum();
        });
        for (outer, &total) in totals.iter().enumerate() {
            assert_eq!(total, outer * (99 * 100) / 2);
        }
    }
}
