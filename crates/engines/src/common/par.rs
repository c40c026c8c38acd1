//! Partitioned-execution helpers shared by the engines.
//!
//! The engines parallelize over contiguous dense-index ranges on the
//! shared [`WorkerPool`] (see [`super::pool`]). This module holds what
//! sits *on top* of the pool: [`map_vertices`], the per-vertex map +
//! per-worker tally shape that every vector-iteration engine repeats
//! (values land in vertex order, tallies merge in worker order), and
//! [`triangle_lcc`], the reference triangle kernel fanned out over
//! vertex ranges.

use graphalytics_core::algorithms::lcc::ForwardView;
use graphalytics_core::Csr;

use super::pool::WorkerPool;

pub use super::pool::split_ranges;

/// Maps every dense vertex `0..n` through `f` on the pool, giving each
/// worker a scalar tally `A` to fold side counts into (edges scanned,
/// random accesses, scratch maps, …).
///
/// Returns the per-vertex values in vertex order and the per-worker
/// tallies in worker order.
pub fn map_vertices<T, A, F>(pool: &WorkerPool, n: usize, f: F) -> (Vec<T>, Vec<A>)
where
    T: Send,
    A: Default + Send,
    F: Fn(u32, &mut A) -> T + Sync,
{
    let parts = pool.run(n, |_, range| {
        let mut tally = A::default();
        let mut out = Vec::with_capacity(range.len());
        for v in range {
            out.push(f(v as u32, &mut tally));
        }
        (out, tally)
    });
    let mut values = Vec::with_capacity(n);
    let mut tallies = Vec::with_capacity(parts.len());
    for (part, tally) in parts {
        values.extend(part);
        tallies.push(tally);
    }
    (values, tallies)
}

/// LCC through the reference triangle kernel ([`ForwardView`]): each
/// worker lists the triangles whose lowest-ranked corner falls in its
/// vertex range into a private link accumulator, and the accumulators
/// are summed in worker order. The sums are integers, so coefficients
/// and the comparison count are the same for every pool width.
///
/// Returns the coefficients and the number of adjacency elements the
/// kernel compared (the engines' `edges_scanned`).
pub fn triangle_lcc(csr: &Csr, pool: &WorkerPool) -> (Vec<f64>, u64) {
    let view = ForwardView::new(csr);
    let n = view.num_vertices();
    let parts = pool.run(n, |_, corners| {
        let mut links = vec![0u64; n];
        let compared = view.count_links(corners, &mut links);
        (links, compared)
    });
    let (links, compared) = parts
        .into_iter()
        .reduce(|(mut links, compared), (part, part_compared)| {
            links.iter_mut().zip(part).for_each(|(total, x)| *total += x);
            (links, compared + part_compared)
        })
        .expect("the pool runs at least one (possibly empty) range");
    (view.coefficients(&links), compared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_vertices_orders_values_and_tallies() {
        let data: Vec<u64> = (0..512).map(|i| i * 3 % 17).collect();
        let expect: u64 = data.iter().sum();
        for threads in [1u32, 3, 8] {
            let pool = WorkerPool::new(threads);
            let (values, tallies): (Vec<u64>, Vec<u64>) =
                map_vertices(&pool, data.len(), |v, tally| {
                    *tally += data[v as usize];
                    data[v as usize] * 2
                });
            assert_eq!(values, data.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(tallies.iter().sum::<u64>(), expect, "threads={threads}");
        }
    }
}
