//! [`AlignedVec`]: a heap buffer with a cache-line-aligned (64-byte) base pointer.
//!
//! The microkernels in [`crate::simd`] read their operands with 256- and 512-bit
//! vector loads. A plain `Vec<f32>` only guarantees 4-byte alignment, so a kernel
//! consuming it either pays an unaligned-access penalty on cache-line-straddling loads
//! or needs a scalar peel loop to reach the first aligned element. `AlignedVec`
//! removes both: every allocation is made with a 64-byte-aligned [`Layout`], so SIMD
//! code can assume vector-width alignment of element `0` unconditionally, up to one
//! 512-bit register, and a vector load at a multiple of its width never splits a
//! cache line.
//!
//! A `Vec<T>` cannot provide this soundly — its buffer must be deallocated with the
//! exact layout it was allocated with, and `Vec` always uses `align_of::<T>()`, so a
//! handed-in over-aligned pointer would be freed with a mismatched layout. This type
//! owns both sides of the contract: allocation and deallocation use the same
//! 64-byte-aligned layout, which also keeps it clean under Miri.
//!
//! The API is the small slice-shaped subset the [`crate::Workspace`] pools and the
//! packed-panel scratch need: construct, `reset_zeroed` to a length (reallocating only
//! when capacity is exceeded) or `reset_uncleared` for scratch whose writer fills every
//! slot, and `Deref`/`DerefMut` to `[T]` for everything else.
//! There is no `push`/`insert` — the pools always size buffers up front.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment (bytes) of every `AlignedVec` allocation: one cache line, which is one
/// AVX-512 vector register and two AVX2 ones.
pub const SIMD_ALIGN: usize = 64;

/// A fixed-capacity, 64-byte-aligned heap buffer of plain-old-data elements.
///
/// See the [module documentation](self) for why this exists next to `Vec<T>`. The
/// element bound is `Copy + Default` with the additional (checked) expectation that
/// `T::default()` is the all-zeroes bit pattern — true for every pooled element type
/// (`f32`, `i8`, `i32`), and what lets [`AlignedVec::reset_zeroed`] use `alloc_zeroed`
/// and `write_bytes` instead of an element-wise fill.
#[derive(Debug)]
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
}

// SAFETY: AlignedVec owns its buffer exclusively (no interior sharing); sending or
// sharing it is exactly as safe as for the `Vec<T>` it replaces.
unsafe impl<T: Send> Send for AlignedVec<T> {}
// SAFETY: shared access only hands out `&[T]`; same aliasing story as `Vec<T>`.
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

impl<T> AlignedVec<T> {
    /// An empty buffer with no allocation (the pool's parking form).
    pub fn new() -> Self {
        Self {
            // A dangling-but-aligned pointer, the same trick Vec uses for capacity 0.
            ptr: NonNull::<T>::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// Elements currently live.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements the current allocation can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drops all live elements (capacity is retained, like `Vec::clear`).
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy + Default> AlignedVec<T> {
    /// A zeroed buffer of exactly `len` elements.
    pub fn zeroed(len: usize) -> Self {
        let mut v = Self::new();
        v.reset_zeroed(len);
        v
    }

    /// Resizes to exactly `len` zeroed elements, reusing the current allocation when
    /// it is large enough. Previous contents are discarded — this is the checkout
    /// path of the workspace pools, which always hand out zeroed buffers.
    pub fn reset_zeroed(&mut self, len: usize) {
        let reused = len <= self.cap;
        self.reset_uncleared(len);
        if reused {
            // SAFETY: `len <= cap`, so the range is inside the live allocation; T is
            // plain-old-data with an all-zeroes default (asserted in reset_uncleared).
            unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), 0, len) };
        }
    }

    /// Resizes to exactly `len` elements without clearing reused slots, which keep
    /// what was last written (a grown buffer is a fresh zeroed allocation; every
    /// allocation is `alloc_zeroed`, so no slot is ever uninitialised). For scratch
    /// whose writer fills every slot, such as the packed GEMM panels.
    pub fn reset_uncleared(&mut self, len: usize) {
        debug_assert!(
            is_zero_default::<T>(),
            "pooled element must be zero-default"
        );
        if len > self.cap {
            self.release();
            let layout = Self::layout(len).expect("AlignedVec length overflows a layout");
            // SAFETY: `layout` has non-zero size (`layout` returns None for zero
            // bytes) and valid power-of-two alignment.
            let raw = unsafe { alloc_zeroed(layout) };
            let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
                handle_alloc_error(layout)
            };
            self.ptr = ptr;
            self.cap = len;
        }
        self.len = len;
    }

    /// The allocation layout for `len` elements: element array size, `SIMD_ALIGN`
    /// aligned.
    fn layout(len: usize) -> Option<Layout> {
        let bytes = std::mem::size_of::<T>().checked_mul(len)?;
        if bytes == 0 {
            return None;
        }
        let align = SIMD_ALIGN.max(std::mem::align_of::<T>());
        Layout::from_size_align(bytes, align).ok()
    }

    /// Returns the current allocation to the allocator (no-op at capacity 0).
    fn release(&mut self) {
        if self.cap == 0 {
            return;
        }
        let layout = Self::layout(self.cap).expect("live AlignedVec has a valid layout");
        // SAFETY: `ptr` was allocated by `alloc_zeroed` with exactly this layout
        // (same element count and alignment), and is released exactly once.
        unsafe { dealloc(self.ptr.as_ptr().cast::<u8>(), layout) };
        self.ptr = NonNull::<T>::dangling();
        self.cap = 0;
        self.len = 0;
    }
}

/// `true` when `T::default()` is the all-zeroes bit pattern (debug-checked
/// precondition of the zeroing fast paths).
fn is_zero_default<T: Copy + Default>() -> bool {
    let v = T::default();
    // SAFETY: T is Copy (no padding-sensitive drop), read back as raw bytes only.
    let bytes =
        unsafe { std::slice::from_raw_parts((&v as *const T).cast::<u8>(), size_of::<T>()) };
    bytes.iter().all(|&b| b == 0)
}

impl<T> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.cap == 0 {
            return;
        }
        let bytes = std::mem::size_of::<T>() * self.cap;
        let align = SIMD_ALIGN.max(std::mem::align_of::<T>());
        let layout = Layout::from_size_align(bytes, align).expect("live layout");
        // SAFETY: allocated with exactly this layout in `reset_uncleared`.
        unsafe { dealloc(self.ptr.as_ptr().cast::<u8>(), layout) };
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `len <= cap` elements starting at `ptr` are initialised: every
        // allocation is `alloc_zeroed` over its whole capacity, then only written
        // through `DerefMut`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `Deref`, plus `&mut self` guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len);
        out.copy_from_slice(self);
        out
    }
}

impl<'a, T> IntoIterator for &'a AlignedVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut AlignedVec<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_simd_aligned() {
        for len in [1usize, 3, 8, 31, 32, 33, 1000] {
            let f = AlignedVec::<f32>::zeroed(len);
            assert_eq!(f.as_ptr() as usize % SIMD_ALIGN, 0, "f32 len {len}");
            let b = AlignedVec::<i8>::zeroed(len);
            assert_eq!(b.as_ptr() as usize % SIMD_ALIGN, 0, "i8 len {len}");
            let i = AlignedVec::<i32>::zeroed(len);
            assert_eq!(i.as_ptr() as usize % SIMD_ALIGN, 0, "i32 len {len}");
        }
    }

    #[test]
    fn reset_zeroed_reuses_capacity_and_zeroes_contents() {
        let mut v = AlignedVec::<f32>::zeroed(64);
        let ptr = v.as_ptr();
        v.iter_mut().for_each(|x| *x = 7.0);
        v.clear();
        v.reset_zeroed(32);
        assert_eq!(v.as_ptr(), ptr, "shrinking reset must not reallocate");
        assert_eq!(v.len(), 32);
        assert_eq!(v.capacity(), 64);
        assert!(v.iter().all(|&x| x == 0.0), "stale contents survived reset");
        // Growing past capacity reallocates, still aligned.
        v.reset_zeroed(128);
        assert_eq!(v.len(), 128);
        assert_eq!(v.as_ptr() as usize % SIMD_ALIGN, 0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reset_uncleared_keeps_reused_slots_and_zeroes_fresh_capacity() {
        let mut v = AlignedVec::<f32>::zeroed(16);
        let ptr = v.as_ptr();
        v.iter_mut().for_each(|x| *x = 3.0);
        v.reset_uncleared(8);
        assert_eq!(v.as_ptr(), ptr, "shrinking reset must not reallocate");
        assert!(v.iter().all(|&x| x == 3.0), "reused slots are not cleared");
        v.reset_uncleared(16);
        assert!(
            v.iter().all(|&x| x == 3.0),
            "slots inside capacity keep their values"
        );
        v.reset_uncleared(64);
        assert_eq!(v.capacity(), 64);
        assert_eq!(v.as_ptr() as usize % SIMD_ALIGN, 0);
        assert!(
            v.iter().all(|&x| x == 0.0),
            "a grown buffer is freshly zeroed"
        );
    }

    #[test]
    fn empty_buffers_do_not_allocate() {
        let v = AlignedVec::<i32>::new();
        assert_eq!(v.len(), 0);
        assert_eq!(v.capacity(), 0);
        assert!(v.is_empty());
        let mut v = AlignedVec::<i32>::new();
        v.reset_zeroed(0);
        assert_eq!(v.capacity(), 0);
    }

    #[test]
    fn clone_and_eq_follow_contents() {
        let mut v = AlignedVec::<i8>::zeroed(5);
        v.copy_from_slice(&[1, -2, 3, -4, 5]);
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(w.as_ptr() as usize % SIMD_ALIGN, 0);
    }
}
