//! Offline drop-in subset of the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! The build environment has no crates-registry access, so the workspace vendors the
//! small slice of rayon's data-parallel API its hot paths use: `par_chunks_mut`,
//! `par_chunks` and `par_iter` / `into_par_iter` with `map` / `for_each` / `collect`.
//!
//! Work is executed on `std::thread::scope` threads, one per available core, pulling
//! items from a shared queue. When only one core is available (or the job has a single
//! item) everything runs inline on the caller's thread, so the shim adds no overhead in
//! the degenerate case. This is a plain chunk-queue scheduler, not a work-stealing pool —
//! adequate for the coarse-grained panel/head/image parallelism this workspace needs.

#![deny(missing_docs)]

use std::sync::Mutex;

/// Everything a caller needs to use the parallel iterator subset.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

std::thread_local! {
    /// `true` while the current thread is already executing inside a parallel region.
    /// Nested regions then run inline instead of spawning another thread generation —
    /// without this guard, batch-level × head-level × GEMM-panel parallelism would
    /// multiply into O(cores³) concurrent OS threads (real rayon amortises nesting
    /// through its shared work-stealing pool; this shim simply keeps the outermost
    /// level parallel, which is where the coarse-grained win is).
    static IN_PARALLEL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Number of worker threads to use for a job of `len` independent items.
fn workers_for(len: usize) -> usize {
    if len <= 1 || IN_PARALLEL_REGION.with(|flag| flag.get()) {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(len)
}

/// Runs every item of `items` through `f`, distributing items over scoped worker
/// threads. Falls back to an inline sequential loop when one worker suffices or when
/// the caller is itself a worker of an enclosing parallel region.
fn drive<W, I, F>(items: I, f: F)
where
    W: Send,
    I: Iterator<Item = W> + Send,
    F: Fn(W) + Sync,
{
    let (lo, hi) = items.size_hint();
    let workers = workers_for(hi.unwrap_or(lo.max(2)));
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let queue = Mutex::new(items);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_PARALLEL_REGION.with(|flag| flag.set(true));
                loop {
                    let next = queue.lock().expect("queue poisoned").next();
                    match next {
                        Some(item) => f(item),
                        None => break,
                    }
                }
            });
        }
    });
}

/// Runs an indexed map over `len` items and returns the results in index order.
fn drive_map<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers_for(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let out = Mutex::new(Vec::with_capacity(len));
    drive(0..len, |i| {
        let r = f(i);
        out.lock().expect("results poisoned").push((i, r));
    });
    let mut pairs = out.into_inner().expect("results poisoned");
    pairs.sort_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------------
// &mut [T] → par_chunks_mut
// ---------------------------------------------------------------------------

/// Parallel mutable-chunk extension for slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of at most `size` elements that can be processed in
    /// parallel.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunksMut { slice: self, size }
    }
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs every chunk with its index.
    pub fn enumerate(self) -> EnumParChunksMut<'a, T> {
        EnumParChunksMut(self)
    }

    /// Processes every chunk in parallel.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        drive(self.slice.chunks_mut(self.size), f);
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumParChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumParChunksMut<'_, T> {
    /// Processes every `(index, chunk)` pair in parallel.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        drive(self.0.slice.chunks_mut(self.0.size).enumerate(), |pair| {
            f(pair)
        });
    }
}

// ---------------------------------------------------------------------------
// &[T] → par_iter / par_chunks
// ---------------------------------------------------------------------------

/// Parallel shared-reference extension for slices.
pub trait ParallelSlice<T: Sync> {
    /// Iterates the elements in parallel by shared reference.
    fn par_iter(&self) -> ParSliceIter<'_, T>;

    /// Splits the slice into read-only chunks of at most `size` elements.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSliceIter<'_, T> {
        ParSliceIter { slice: self }
    }

    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunks { slice: self, size }
    }
}

/// Parallel iterator over `&T` items of a slice.
pub struct ParSliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSliceIter<'a, T> {
    /// Maps every element in parallel; results keep slice order.
    pub fn map<R, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParSliceMap {
            slice: self.slice,
            f,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        drive(self.slice.iter(), f);
    }
}

/// Mapped parallel slice iterator (see [`ParSliceIter::map`]).
pub struct ParSliceMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParSliceMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Collects the mapped results in slice order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(drive_map(self.slice.len(), |i| (self.f)(&self.slice[i])))
    }
}

/// Parallel iterator over read-only chunks of a slice.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Maps every chunk in parallel; results keep chunk order.
    pub fn map<R, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a [T]) -> R + Sync,
    {
        ParChunksMap {
            slice: self.slice,
            size: self.size,
            f,
        }
    }
}

/// Mapped parallel chunk iterator (see [`ParChunks::map`]).
pub struct ParChunksMap<'a, T, F> {
    slice: &'a [T],
    size: usize,
    f: F,
}

impl<'a, T, R, F> ParChunksMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    /// Collects the mapped results in chunk order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let chunks: Vec<&[T]> = self.slice.chunks(self.size).collect();
        C::from(drive_map(chunks.len(), |i| (self.f)(chunks[i])))
    }
}

// ---------------------------------------------------------------------------
// Range<usize> → into_par_iter
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParRange {
    /// Maps every index in parallel; results keep index order.
    pub fn map<R, F>(self, f: F) -> ParRangeMap<F>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    /// Runs `f` on every index in parallel.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        drive(self.range, f);
    }
}

/// Mapped parallel range iterator (see [`ParRange::map`]).
pub struct ParRangeMap<F> {
    range: std::ops::Range<usize>,
    f: F,
}

impl<R, F> ParRangeMap<F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    /// Collects the mapped results in index order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let start = self.range.start;
        let len = self.range.len();
        C::from(drive_map(len, |i| (self.f)(start + i)))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        assert!(data.iter().all(|&v| v >= 1));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11);
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let squares: Vec<usize> = (0..64).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 64);
        for (i, &s) in squares.iter().enumerate() {
            assert_eq!(s, i * i);
        }
    }

    #[test]
    fn slice_par_iter_maps_in_order() {
        let input: Vec<i64> = (0..37).collect();
        let doubled: Vec<i64> = input.par_iter().map(|&v| v * 2).collect();
        assert_eq!(doubled, (0..37).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_regions_stay_correct_and_run_inline() {
        // Outer parallelism over 8 items, each item running an inner parallel map: the
        // nesting guard must keep results correct (inner regions run inline on the
        // worker thread instead of spawning another thread generation).
        let totals: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|outer| {
                let inner: Vec<usize> = (0..100).into_par_iter().map(|i| i * outer).collect();
                inner.iter().sum()
            })
            .collect();
        for (outer, &total) in totals.iter().enumerate() {
            assert_eq!(total, outer * (99 * 100) / 2);
        }
    }
}
