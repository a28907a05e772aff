//! A reusable scratch-buffer arena for allocation-lean inference hot paths.
//!
//! Every layer of a ViT forward pass needs short-lived intermediates — projected
//! queries/keys/values, per-head slices, attention scores, MLP hidden activations. The
//! naive implementation allocates a fresh [`Matrix`] for each of them at every layer of
//! every head of every image, which turns a served inference workload into a steady
//! stream of heap traffic. A [`Workspace`] breaks that pattern: buffers are *checked
//! out* for the duration of one computation and *recycled* back into the pool, so after
//! a warmup pass the steady state performs **zero** hot-path allocations (verified by
//! the counting-allocator regression test in `tests/alloc_regression.rs`).
//!
//! The element pools (`f32`/`i8`/`i32`) hand out [`AlignedVec`] buffers whose base
//! pointer is 64-byte aligned, so the SIMD microkernels in [`crate::backend`] can use
//! aligned vector loads on pooled operands without a scalar peel loop. [`Matrix`]
//! checkouts come from a separate plain-`Vec` pool because `Matrix` owns its storage as
//! `Vec<f32>`. The SIMD fast path reads such a buffer in place: the packed GEMM driver
//! takes its A operand where it sits (the microkernels broadcast A one element at a
//! time, which needs no alignment), and only B is repacked into aligned panels.
//!
//! # Ownership discipline
//!
//! A `Workspace` is a plain owned value — thread it down the call chain as `&mut
//! Workspace`. It is deliberately **not** `Sync`: every thread of a parallel region
//! works on a workspace of its own. Two forms exist. [`with_thread_workspace`] is the
//! thread-local form behind the model's one allocating convenience entry
//! (`VisionTransformer::infer`, and `predict` through it, in `vitality-vit`).
//! **Child lanes** ([`Workspace::lanes_mut`]) are the form the allocation-free batch
//! path uses: a workspace owns a list of child workspaces, hands them out as one
//! `&mut [Workspace]` that a caller splits across the threads of a parallel region
//! (a `Workspace` is `Send`), and keeps them afterwards — so lanes stay warm from call
//! to call, die with their parent, and need no thread-local or global pool. The
//! statistics ([`Workspace::pooled_bytes`], [`Workspace::checkouts`], …) cover a
//! workspace and its lanes. Checkout and recycle must be balanced by the caller;
//! an unrecycled buffer is not leaked (it is just an ordinary `Matrix`/buffer), but it
//! costs one pool miss — and therefore one allocation — on the next checkout. A buffer
//! may be recycled into a different workspace than it was checked out of (batch outputs
//! move between a parent and its lanes that way); what keeps a pool allocation-free is
//! that it gets back as many buffers of each size as it hands out.
//!
//! # Example
//!
//! ```
//! use vitality_tensor::{Matrix, Workspace};
//!
//! let a = Matrix::from_fn(8, 4, |i, j| (i + j) as f32);
//! let b = Matrix::from_fn(4, 6, |i, j| (i * j) as f32 * 0.1);
//!
//! let mut ws = Workspace::new();
//! let mut out = ws.take(8, 6);          // first checkout allocates...
//! a.matmul_into(&b, &mut out);
//! assert_eq!(out.shape(), (8, 6));
//! ws.recycle(out);
//!
//! let out = ws.take(8, 6);              // ...the second one reuses the same buffer
//! assert_eq!(ws.pool_hits(), 1);
//! ws.recycle(out);
//! ```

use crate::aligned::AlignedVec;
use crate::matrix::Matrix;
use std::cell::RefCell;

/// Upper bound on pooled buffers per kind; checkouts beyond a balanced pattern drop the
/// smallest buffer instead of growing the pool without bound.
const MAX_POOLED: usize = 64;

/// A pool of reusable `f32`, `i8`, `i32` and index buffers backing [`Matrix`] and
/// [`AlignedVec`] checkouts.
///
/// See the [module documentation](self) for the ownership discipline and an example,
/// and [`crate::Matrix::matmul_into`] for the `*_into` operations designed to pair
/// with it. The integer pools back the int8-quantized attention kernels: operands are
/// `AlignedVec<i8>`, accumulators `AlignedVec<i32>`, and both follow the same best-fit
/// checkout / recycle policy (and feed the same hit counters) as the `f32` pool, so the
/// quantized inference path reaches the identical zero-allocation steady state instead
/// of round-tripping integer data through `f32` buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    f32_pool: Vec<AlignedVec<f32>>,
    i8_pool: Vec<AlignedVec<i8>>,
    i32_pool: Vec<AlignedVec<i32>>,
    mat_pool: Vec<Vec<f32>>,
    idx_pool: Vec<Vec<usize>>,
    checkouts: u64,
    hits: u64,
    /// Child workspaces, one per thread of a caller's parallel region.
    lanes: Vec<Workspace>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a zeroed `rows x cols` matrix, reusing a pooled buffer when one with
    /// sufficient capacity exists (best fit).
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let data = take_zeroed(
            &mut self.mat_pool,
            &mut self.checkouts,
            &mut self.hits,
            rows * cols,
        );
        Matrix::from_vec(rows, cols, data).expect("workspace buffer length")
    }

    /// Returns a matrix's backing buffer to the pool.
    pub fn recycle(&mut self, m: Matrix) {
        recycle_into(&mut self.mat_pool, m.into_vec());
    }

    /// Checks out a zeroed, 64-byte-aligned `f32` buffer of exactly `len` elements.
    pub fn take_vec(&mut self, len: usize) -> AlignedVec<f32> {
        take_zeroed(&mut self.f32_pool, &mut self.checkouts, &mut self.hits, len)
    }

    /// Returns an `f32` buffer to the pool.
    pub fn recycle_vec(&mut self, v: AlignedVec<f32>) {
        recycle_into(&mut self.f32_pool, v);
    }

    /// Checks out a zeroed, 64-byte-aligned `i8` buffer of exactly `len` elements
    /// (quantized operands of the int8 attention kernels), with the same best-fit
    /// policy as [`Workspace::take_vec`].
    pub fn take_i8_vec(&mut self, len: usize) -> AlignedVec<i8> {
        take_zeroed(&mut self.i8_pool, &mut self.checkouts, &mut self.hits, len)
    }

    /// Returns an `i8` buffer to the pool.
    pub fn recycle_i8_vec(&mut self, v: AlignedVec<i8>) {
        recycle_into(&mut self.i8_pool, v);
    }

    /// Checks out a zeroed, 64-byte-aligned `i32` buffer of exactly `len` elements
    /// (integer accumulators of the int8 attention kernels), with the same best-fit
    /// policy as [`Workspace::take_vec`].
    pub fn take_i32_vec(&mut self, len: usize) -> AlignedVec<i32> {
        take_zeroed(&mut self.i32_pool, &mut self.checkouts, &mut self.hits, len)
    }

    /// Returns an `i32` buffer to the pool.
    pub fn recycle_i32_vec(&mut self, v: AlignedVec<i32>) {
        recycle_into(&mut self.i32_pool, v);
    }

    /// Checks out an **empty** index buffer (capacity reused from the pool); callers
    /// push into it and hand it back with [`Workspace::recycle_indices`].
    pub fn take_indices(&mut self) -> Vec<usize> {
        self.checkouts += 1;
        match self.idx_pool.pop() {
            Some(mut v) => {
                self.hits += 1;
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns an index buffer to the pool.
    pub fn recycle_indices(&mut self, v: Vec<usize>) {
        if self.idx_pool.len() >= MAX_POOLED {
            drop_smallest(&mut self.idx_pool, Vec::capacity);
        }
        self.idx_pool.push(v);
    }

    /// The first `count` child workspaces, created empty on first request and kept
    /// (warm) for the next call. A caller hands one to each thread of a parallel
    /// region; the parent stays borrowed — and so untouched — for as long as they are
    /// in use.
    pub fn lanes_mut(&mut self, count: usize) -> &mut [Workspace] {
        if self.lanes.len() < count {
            self.lanes.resize_with(count, Workspace::new);
        }
        &mut self.lanes[..count]
    }

    /// Number of buffers currently parked in the pool (child lanes included).
    pub fn pooled_buffers(&self) -> usize {
        self.f32_pool.len()
            + self.i8_pool.len()
            + self.i32_pool.len()
            + self.mat_pool.len()
            + self.idx_pool.len()
            + self
                .lanes
                .iter()
                .map(Workspace::pooled_buffers)
                .sum::<usize>()
    }

    /// Total bytes currently parked in the pool (child lanes included).
    pub fn pooled_bytes(&self) -> usize {
        fn aligned_bytes<T>(pool: &[AlignedVec<T>]) -> usize {
            pool.iter()
                .map(|v| v.capacity() * std::mem::size_of::<T>())
                .sum()
        }
        fn vec_bytes<T>(pool: &[Vec<T>]) -> usize {
            pool.iter()
                .map(|v| v.capacity() * std::mem::size_of::<T>())
                .sum()
        }
        aligned_bytes(&self.f32_pool)
            + aligned_bytes(&self.i8_pool)
            + aligned_bytes(&self.i32_pool)
            + vec_bytes(&self.mat_pool)
            + vec_bytes(&self.idx_pool)
            + self
                .lanes
                .iter()
                .map(Workspace::pooled_bytes)
                .sum::<usize>()
    }

    /// Total checkouts since creation (child lanes included).
    pub fn checkouts(&self) -> u64 {
        self.checkouts + self.lanes.iter().map(Workspace::checkouts).sum::<u64>()
    }

    /// Checkouts served from the pool (no allocation; child lanes included).
    /// `checkouts - pool_hits` bounds the number of allocations the workspace
    /// performed.
    pub fn pool_hits(&self) -> u64 {
        self.hits + self.lanes.iter().map(Workspace::pool_hits).sum::<u64>()
    }
}

/// The two buffer shapes the element pools park: plain `Vec<T>` (matrix storage,
/// index lists) and [`AlignedVec<T>`] (SIMD-consumable element buffers). Private —
/// only the pool plumbing below is generic over it.
trait PoolBuf: Default {
    /// Elements the allocation can hold without reallocating.
    fn cap(&self) -> usize;
    /// Resizes to exactly `len` zeroed elements, reusing capacity when possible.
    fn reset_zeroed(&mut self, len: usize);
}

impl<T: Copy + Default> PoolBuf for Vec<T> {
    fn cap(&self) -> usize {
        self.capacity()
    }

    fn reset_zeroed(&mut self, len: usize) {
        self.clear();
        self.resize(len, T::default());
    }
}

impl<T: Copy + Default> PoolBuf for AlignedVec<T> {
    fn cap(&self) -> usize {
        self.capacity()
    }

    fn reset_zeroed(&mut self, len: usize) {
        AlignedVec::reset_zeroed(self, len);
    }
}

/// Shared checkout path of the typed element pools: best-fit reuse, else grow the
/// largest pooled buffer (one realloc, and it serves this size from the pool
/// afterwards) rather than sacrificing a small size class that would then miss on its
/// own next checkout, else allocate fresh.
fn take_zeroed<B: PoolBuf>(
    pool: &mut Vec<B>,
    checkouts: &mut u64,
    hits: &mut u64,
    len: usize,
) -> B {
    *checkouts += 1;
    match best_fit(pool, len, B::cap) {
        Some(i) => {
            *hits += 1;
            let mut v = pool.swap_remove(i);
            v.reset_zeroed(len);
            v
        }
        None => match take_largest(pool) {
            Some(mut v) => {
                v.reset_zeroed(len);
                v
            }
            None => {
                let mut v = B::default();
                v.reset_zeroed(len);
                v
            }
        },
    }
}

/// Shared recycle path of the typed element pools (bounded by [`MAX_POOLED`]).
fn recycle_into<B: PoolBuf>(pool: &mut Vec<B>, v: B) {
    if v.cap() == 0 {
        return;
    }
    if pool.len() >= MAX_POOLED {
        drop_smallest(pool, B::cap);
    }
    pool.push(v);
}

/// Index of the pooled buffer with the smallest capacity that still fits `len`.
fn best_fit<T>(pool: &[T], len: usize, cap: impl Fn(&T) -> usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, buf) in pool.iter().enumerate() {
        let c = cap(buf);
        if c >= len && best.is_none_or(|(_, bc)| c < bc) {
            best = Some((i, c));
        }
    }
    best.map(|(i, _)| i)
}

/// Removes and returns the largest-capacity pooled buffer, if any.
fn take_largest<B: PoolBuf>(pool: &mut Vec<B>) -> Option<B> {
    let (i, _) = pool
        .iter()
        .enumerate()
        .map(|(i, v)| (i, v.cap()))
        .max_by_key(|&(_, c)| c)?;
    Some(pool.swap_remove(i))
}

/// Drops the smallest-capacity buffer to keep the pool bounded.
fn drop_smallest<T>(pool: &mut Vec<T>, cap: impl Fn(&T) -> usize) {
    if let Some((i, _)) = pool
        .iter()
        .enumerate()
        .map(|(i, v)| (i, cap(v)))
        .min_by_key(|&(_, c)| c)
    {
        pool.swap_remove(i);
    }
}

std::thread_local! {
    static THREAD_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's workspace.
///
/// The workspace lives for the thread's lifetime, so repeated calls on the same thread
/// (a serving worker answering request after request) reuse the same warm pool. Do not
/// call [`with_thread_workspace`] re-entrantly from inside `f` — the inner call would
/// panic on the already-borrowed `RefCell`; pass the outer `&mut Workspace` down
/// instead.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligned::SIMD_ALIGN;

    #[test]
    fn checkout_returns_zeroed_buffers_of_the_requested_shape() {
        let mut ws = Workspace::new();
        let mut m = ws.take(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.iter().all(|&v| v == 0.0));
        m.set(1, 1, 5.0);
        ws.recycle(m);
        // The recycled (dirty) buffer comes back zeroed.
        let m = ws.take(3, 4);
        assert!(m.iter().all(|&v| v == 0.0));
        assert_eq!(ws.checkouts(), 2);
        assert_eq!(ws.pool_hits(), 1);
    }

    #[test]
    fn best_fit_prefers_the_tightest_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take(10, 10);
        let small = ws.take(2, 2);
        ws.recycle(big);
        ws.recycle(small);
        let hits_before = ws.pool_hits();
        let m = ws.take(2, 2);
        assert_eq!(ws.pool_hits(), hits_before + 1);
        ws.recycle(m);
        // Both buffers are still pooled: the 2x2 checkout must not have consumed the
        // 10x10 buffer.
        assert_eq!(ws.pooled_buffers(), 2);
        assert!(ws.pooled_bytes() >= (100 + 4) * 4);
    }

    #[test]
    fn steady_state_checkouts_always_hit_the_pool() {
        let mut ws = Workspace::new();
        // Warm up with the shapes of a fake per-layer pattern.
        for _ in 0..2 {
            let a = ws.take(16, 16);
            let b = ws.take(16, 32);
            let c = ws.take(1, 16);
            ws.recycle(a);
            ws.recycle(b);
            ws.recycle(c);
        }
        let (checkouts, hits) = (ws.checkouts(), ws.pool_hits());
        for _ in 0..10 {
            let a = ws.take(16, 16);
            let b = ws.take(16, 32);
            let c = ws.take(1, 16);
            ws.recycle(a);
            ws.recycle(b);
            ws.recycle(c);
        }
        assert_eq!(
            ws.checkouts() - checkouts,
            ws.pool_hits() - hits,
            "steady-state checkouts must all be pool hits"
        );
    }

    #[test]
    fn int8_and_i32_pools_follow_the_same_recycle_policy() {
        let mut ws = Workspace::new();
        let mut q = ws.take_i8_vec(64);
        q[0] = 17;
        let mut acc = ws.take_i32_vec(256);
        acc[255] = -9;
        ws.recycle_i8_vec(q);
        ws.recycle_i32_vec(acc);
        let (checkouts, hits) = (ws.checkouts(), ws.pool_hits());
        // Recycled buffers come back zeroed and count as pool hits.
        let q = ws.take_i8_vec(64);
        assert!(q.iter().all(|&v| v == 0));
        let acc = ws.take_i32_vec(200);
        assert!(acc.iter().all(|&v| v == 0));
        assert_eq!(ws.checkouts() - checkouts, 2);
        assert_eq!(ws.pool_hits() - hits, 2, "warm integer pools must hit");
        ws.recycle_i8_vec(q);
        ws.recycle_i32_vec(acc);
        // Integer buffers never cross into the f32 pool: an f32 checkout after only
        // integer recycles must miss.
        let hits_before = ws.pool_hits();
        let f = ws.take_vec(8);
        assert_eq!(
            ws.pool_hits(),
            hits_before,
            "f32 checkout hit an integer pool"
        );
        ws.recycle_vec(f);
        assert_eq!(ws.pooled_buffers(), 3);
        assert!(ws.pooled_bytes() >= 64 + 256 * 4 + 8 * 4);
    }

    #[test]
    fn element_pool_checkouts_stay_32_byte_aligned_through_recycling() {
        // The SIMD satellite contract: every f32/i8/i32 checkout — fresh, recycled,
        // best-fit downsized or grown-in-place — has a 64-byte-aligned base pointer.
        let mut ws = Workspace::new();
        for len in [1usize, 7, 64, 196, 1000] {
            let f = ws.take_vec(len);
            let q = ws.take_i8_vec(len);
            let acc = ws.take_i32_vec(len);
            assert_eq!(f.as_ptr() as usize % SIMD_ALIGN, 0, "fresh f32 len {len}");
            assert_eq!(q.as_ptr() as usize % SIMD_ALIGN, 0, "fresh i8 len {len}");
            assert_eq!(acc.as_ptr() as usize % SIMD_ALIGN, 0, "fresh i32 len {len}");
            ws.recycle_vec(f);
            ws.recycle_i8_vec(q);
            ws.recycle_i32_vec(acc);
        }
        // Recycled checkouts (pool hits) must keep the alignment, for every size
        // class: smaller than pooled (best fit), equal, and larger (grow largest).
        let hits_before = ws.pool_hits();
        for len in [3usize, 64, 196, 4096] {
            let f = ws.take_vec(len);
            let q = ws.take_i8_vec(len);
            let acc = ws.take_i32_vec(len);
            assert_eq!(
                f.as_ptr() as usize % SIMD_ALIGN,
                0,
                "recycled f32 len {len}"
            );
            assert_eq!(q.as_ptr() as usize % SIMD_ALIGN, 0, "recycled i8 len {len}");
            assert_eq!(
                acc.as_ptr() as usize % SIMD_ALIGN,
                0,
                "recycled i32 len {len}"
            );
            ws.recycle_vec(f);
            ws.recycle_i8_vec(q);
            ws.recycle_i32_vec(acc);
        }
        assert!(
            ws.pool_hits() >= hits_before + 9,
            "the alignment sweep must exercise recycled (pool-hit) checkouts"
        );
    }

    #[test]
    fn index_buffers_reuse_capacity() {
        let mut ws = Workspace::new();
        let mut idx = ws.take_indices();
        idx.extend(0..100);
        ws.recycle_indices(idx);
        let idx = ws.take_indices();
        assert!(idx.is_empty());
        assert!(idx.capacity() >= 100);
        ws.recycle_indices(idx);
    }

    #[test]
    fn pool_stays_bounded() {
        let mut ws = Workspace::new();
        let buffers: Vec<Matrix> = (1..=2 * MAX_POOLED).map(|i| ws.take(1, i)).collect();
        for b in buffers {
            ws.recycle(b);
        }
        assert!(ws.pooled_buffers() <= MAX_POOLED + 1);
    }

    #[test]
    fn child_lanes_stay_warm_and_count_towards_the_parents_statistics() {
        fn assert_send<T: Send>() {}
        assert_send::<Workspace>();
        let mut ws = Workspace::new();
        let m = ws.take(2, 2);
        ws.recycle(m);
        std::thread::scope(|scope| {
            for lane in ws.lanes_mut(2) {
                scope.spawn(move || {
                    let m = lane.take(4, 4);
                    lane.recycle(m);
                });
            }
        });
        assert_eq!(ws.checkouts(), 3);
        assert_eq!(ws.pooled_buffers(), 3);
        assert!(ws.pooled_bytes() >= (4 + 16 + 16) * 4);
        // Asking again — for fewer, as many or more — never replaces a warm lane.
        for count in [1, 2, 3] {
            for lane in ws.lanes_mut(count).iter_mut().take(2) {
                let m = lane.take(4, 4);
                lane.recycle(m);
            }
        }
        assert_eq!(ws.lanes_mut(3).len(), 3);
        assert_eq!(
            ws.pool_hits(),
            5,
            "every second checkout of a lane must hit"
        );
        assert_eq!(ws.pooled_buffers(), 3);
    }

    #[test]
    fn thread_workspace_persists_across_calls() {
        let first = with_thread_workspace(|ws| {
            let m = ws.take(4, 4);
            ws.recycle(m);
            ws.checkouts()
        });
        let second = with_thread_workspace(|ws| {
            let m = ws.take(4, 4);
            ws.recycle(m);
            ws.checkouts()
        });
        assert!(second > first, "thread workspace must accumulate state");
    }
}
