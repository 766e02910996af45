//! A minimal, dependency-free stand-in for the subset of [rayon's] API this
//! workspace uses, built on `std::thread::scope`.
//!
//! The build environment is fully offline, so the real crates-io rayon is
//! unavailable; this shim keeps the workspace's call sites source-compatible
//! (`par_iter`, `into_par_iter`, `map`, `flat_map_iter`, `reduce`, `collect`)
//! while providing genuine multi-core execution:
//!
//! * each terminal operation spawns scoped workers that *pull* item indices
//!   from one shared atomic cursor, one index per pull, so a worker that
//!   finishes a cheap item takes the next one instead of idling while
//!   another works through a fixed chunk of expensive ones. Results are
//!   placed by index: `collect` keeps item order and `reduce` folds in
//!   index order. The calling thread only joins;
//! * a global permit counter bounds the *total* number of live worker
//!   threads across nested invocations (the verifier recursion fans out at
//!   several depths), degrading gracefully to sequential execution when the
//!   machine is saturated. Permits go back after the join, also when a
//!   worker panics, so a caught panic never shrinks the pool.
//!
//! Only what the workspace needs is implemented; this is not a general rayon
//! replacement.
//!
//! [rayon's]: https://docs.rs/rayon

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice};
}

/// Global budget of extra worker threads, initialised to the machine's
/// available parallelism. Claiming permits is how nested `par_iter` calls
/// avoid exponential thread blow-up.
static PERMITS: AtomicIsize = AtomicIsize::new(-1);

fn hardware_threads() -> isize {
    std::thread::available_parallelism()
        .map(|n| n.get() as isize)
        .unwrap_or(4)
}

/// Extra worker threads claimed from [`PERMITS`]; dropping the claim
/// returns them, on unwinding too.
struct Permits(isize);

impl Permits {
    /// Claim up to `want` extra worker threads (possibly none).
    fn claim(want: isize) -> Permits {
        if want <= 0 {
            return Permits(0);
        }
        // Lazy init: the first caller seeds the counter.
        let _ = PERMITS.compare_exchange(
            -1,
            hardware_threads() - 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        let mut granted = 0;
        while granted < want {
            let cur = PERMITS.load(Ordering::SeqCst);
            if cur <= 0 {
                break;
            }
            let take = cur.min(want - granted);
            if PERMITS
                .compare_exchange(cur, cur - take, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                granted += take;
            }
        }
        Permits(granted)
    }
}

impl Drop for Permits {
    fn drop(&mut self) {
        if self.0 > 0 {
            PERMITS.fetch_add(self.0, Ordering::SeqCst);
        }
    }
}

/// Compute `f(i)` for every `i` in `0..len` and return the results in index
/// order. With permits granted, `extra + 1` scoped workers pull indices from
/// one shared cursor while the calling thread joins; without, the calling
/// thread runs every item itself.
fn pull_each<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let permits = Permits::claim((len as isize - 1).min(hardware_threads() - 1));
    if permits.0 == 0 {
        return (0..len).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let pulled: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..=permits.0)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            return out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("rayon-shim worker panicked"))
            .collect()
    });
    drop(permits);
    let mut placed: Vec<(usize, R)> = pulled.into_iter().flatten().collect();
    placed.sort_unstable_by_key(|&(i, _)| i);
    placed.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------------
// The iterator façade
// ---------------------------------------------------------------------------

/// A "parallel iterator": a deferred pipeline over an indexable base.
/// Every adapter keeps the item-producing closure; terminal operations
/// execute the pipeline across the pulling workers.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// Number of items the pipeline will produce.
    fn p_len(&self) -> usize;

    /// Produce the item at `index` (called from worker threads).
    fn p_get(&self, index: usize) -> Self::Item;

    fn map<U: Send, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        Map { base: self, f }
    }

    /// rayon's `flat_map_iter`: map each item to a *serial* iterator and
    /// flatten. Each item expands on the worker that pulled it; `collect`
    /// concatenates the expansions in item order.
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        FlatMapIter { base: self, f }
    }

    /// Parallel reduce with an identity factory (rayon's signature).
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        pull_each(self.p_len(), |i| self.p_get(i))
            .into_iter()
            .fold(identity(), op)
    }

    /// Collect into any `FromIterator` collection, preserving item order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// A collection [`ParallelIterator::collect`] can build, in item order.
pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        pull_each(p.p_len(), |i| p.p_get(i))
    }
}

// --- sources ---------------------------------------------------------------

/// `slice.par_iter()`.
pub struct ParSlice<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    fn p_len(&self) -> usize {
        self.slice.len()
    }
    fn p_get(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParSlice<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}

/// `(0..n).into_par_iter()`, `vec.into_par_iter()`.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    fn p_len(&self) -> usize {
        self.range.len()
    }
    fn p_get(&self, index: usize) -> usize {
        self.range.start + index
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Owned-Vec source: items are moved out exactly once (each index is visited
/// once: the shared cursor hands out every index exactly once).
pub struct ParVec<T: Send> {
    items: Vec<std::sync::Mutex<Option<T>>>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;
    fn p_len(&self) -> usize {
        self.items.len()
    }
    fn p_get(&self, index: usize) -> T {
        self.items[index]
            .lock()
            .expect("poisoned")
            .take()
            .expect("item already taken")
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec {
            items: self
                .into_iter()
                .map(|x| std::sync::Mutex::new(Some(x)))
                .collect(),
        }
    }
}

// --- adapters ----------------------------------------------------------------

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, F, U> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    U: Send,
    F: Fn(B::Item) -> U + Sync + Send,
{
    type Item = U;
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    fn p_get(&self, index: usize) -> U {
        (self.f)(self.base.p_get(index))
    }
}

pub struct FlatMapIter<B, F> {
    base: B,
    f: F,
}

/// `flat_map_iter` pipelines only support `collect::<Vec<_>>()`; each base
/// item expands on its worker, and the expansions join in item order.
impl<B, F, U> FlatMapIter<B, F>
where
    B: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(B::Item) -> U + Sync + Send,
{
    pub fn collect<C: From<Vec<U::Item>>>(self) -> C {
        let parts = pull_each(self.base.p_len(), |i| {
            (self.f)(self.base.p_get(i)).into_iter().collect::<Vec<_>>()
        });
        C::from(parts.into_iter().flatten().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn slice_par_iter_reduce() {
        let data: Vec<u64> = (1..=100).collect();
        let sum = data
            .par_iter()
            .map(|&x| vec![x])
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        assert_eq!(sum.len(), 100);
        assert_eq!(sum.iter().sum::<u64>(), 5050);
        assert_eq!(sum[0], 1);
        assert_eq!(sum[99], 100);
    }

    #[test]
    fn flat_map_iter_collect() {
        let base = [1usize, 2, 3];
        let v: Vec<usize> = base.par_iter().flat_map_iter(|&n| 0..n).collect();
        assert_eq!(v, vec![0, 0, 1, 0, 1, 2]);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let outer: Vec<Vec<usize>> = (0..8)
            .into_par_iter()
            .map(|i| (0..64).into_par_iter().map(move |j| i * 64 + j).collect())
            .collect();
        let flat: Vec<usize> = outer.into_iter().flatten().collect();
        assert_eq!(flat, (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn owned_vec_into_par_iter_moves_items() {
        let strings: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = strings.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 50);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[10], 2);
    }
}
