//! Uniform-grid spatial index for unit-disk range queries.
//!
//! Building the unit-disk graph naively is O(N²); with a grid of cell size
//! `r` each query touches only the 3×3 cell block around the query point, so
//! construction is O(N·ρ) — essential at the paper's densest setting
//! (ρ = 140, N = 3500) and more so for the scaled-up extension sweeps.

use crate::error::ConfigError;
use crate::geometry::Point2;
use std::ops::Range;

/// A grid-bucketed index over a fixed set of points, stored in cell order.
///
/// [`GridIndex::build`] counting-sorts the points into cells of side
/// `cell`, cells in row-major order and, within a cell, by input index
/// (the sort is stable). It returns the resulting permutation; a point's
/// position in it is its *cell-ordered id*, and cell `c` holds exactly the
/// ids `starts[c]..starts[c+1]`, so the index needs no per-point storage.
/// Queries take the points gathered in that order and report cell-ordered
/// ids.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    min_x: f64,
    min_y: f64,
    nx: usize,
    ny: usize,
    /// Cell `c` holds the cell-ordered ids `starts[c]..starts[c+1]`.
    starts: Vec<u32>,
}

impl GridIndex {
    /// Builds an index with the given cell size (normally the communication
    /// radius) and returns it with the cell-order permutation: entry `i`
    /// is the input index of the point with cell-ordered id `i`. Points may
    /// be empty; queries then return nothing. A cell size that is not
    /// strictly positive and finite is a configuration error, not a panic.
    pub fn build(points: &[Point2], cell: f64) -> Result<(Self, Vec<u32>), ConfigError> {
        if !(cell > 0.0 && cell.is_finite()) {
            return Err(ConfigError::NotPositive {
                field: "grid cell size",
                value: cell,
            });
        }
        if points.is_empty() {
            let index = GridIndex {
                cell,
                min_x: 0.0,
                min_y: 0.0,
                nx: 1,
                ny: 1,
                starts: vec![0, 0],
            };
            return Ok((index, Vec::new()));
        }
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let nx = (((max_x - min_x) / cell).floor() as usize + 1).max(1);
        let ny = (((max_y - min_y) / cell).floor() as usize + 1).max(1);
        let ncells = nx * ny;

        // Stable counting sort into cells.
        let cell_of = |p: &Point2| -> usize {
            let cx = (((p.x - min_x) / cell).floor() as usize).min(nx - 1);
            let cy = (((p.y - min_y) / cell).floor() as usize).min(ny - 1);
            cy * nx + cx
        };
        let mut starts = vec![0u32; ncells + 1];
        for p in points {
            starts[cell_of(p) + 1] += 1;
        }
        for i in 0..ncells {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; points.len()];
        for (i, p) in points.iter().enumerate() {
            let slot = &mut cursor[cell_of(p)];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        let index = GridIndex {
            cell,
            min_x,
            min_y,
            nx,
            ny,
            starts,
        };
        Ok((index, order))
    }

    /// Splits the cell-ordered ids `ids` by grid cell: yields each cell
    /// that holds some of them, with its share of `ids`, in cell order.
    pub(crate) fn cell_runs(
        &self,
        ids: Range<u32>,
    ) -> impl Iterator<Item = (usize, Range<u32>)> + '_ {
        // The last cell starting at or before `ids.start` holds it.
        let first = self.starts.partition_point(|&s| s <= ids.start).max(1) - 1;
        (first..self.cell_count())
            .map(move |c| {
                let lo = self.starts[c].max(ids.start);
                (c, lo..self.starts[c + 1].min(ids.end))
            })
            .take_while(move |(_, run)| run.start < ids.end)
            .filter(|(_, run)| !run.is_empty())
    }

    /// The ids a query of `radius` centred in cell `c` scans, as one
    /// contiguous range per grid row of its block, in the order
    /// [`GridIndex::for_each_within`] visits them.
    pub(crate) fn block(&self, c: usize, radius: f64) -> impl Iterator<Item = Range<u32>> + '_ {
        self.block_at((c % self.nx) as i64, (c / self.nx) as i64, radius)
    }

    /// The block of cells within `radius` of cell `(cx, cy)`, clamped to
    /// the grid, so even a huge radius costs at most one pass over it. The
    /// block's cells in one grid row are adjacent in cell order, so their
    /// ids form one range.
    fn block_at(&self, cx: i64, cy: i64, radius: f64) -> impl Iterator<Item = Range<u32>> + '_ {
        let reach = (radius / self.cell).ceil().max(1.0) as i64;
        let x_lo = cx.saturating_sub(reach).max(0) as usize;
        let x_hi = cx.saturating_add(reach).min(self.nx as i64 - 1) as usize;
        let y_lo = cy.saturating_sub(reach).max(0) as usize;
        let y_hi = cy.saturating_add(reach).min(self.ny as i64 - 1) as usize;
        (y_lo..=y_hi).map(move |y| {
            let row = y * self.nx;
            self.starts[row + x_lo]..self.starts[row + x_hi + 1]
        })
    }

    /// Calls `f(i)` for every cell-ordered id `i` whose point lies within
    /// distance `radius` of `center` (inclusive). `points` are the indexed
    /// points gathered in cell order (`points[i]` is the point with id `i`).
    ///
    /// Ids are reported cell by cell, cells in row-major order and ids
    /// ascending within a cell. Radii up to the cell size scan a 3×3
    /// block; larger radii (e.g. the carrier-sense range `2r` over an index
    /// built with cell `r`) scan a proportionally larger one.
    pub fn for_each_within(
        &self,
        points: &[Point2],
        center: &Point2,
        radius: f64,
        mut f: impl FnMut(u32),
    ) {
        let r2 = radius * radius;
        let cx =
            (((center.x - self.min_x) / self.cell).floor() as i64).clamp(0, self.nx as i64 - 1);
        let cy =
            (((center.y - self.min_y) / self.cell).floor() as i64).clamp(0, self.ny as i64 - 1);
        for ids in self.block_at(cx, cy, radius) {
            for i in ids {
                if points[i as usize].dist_sq(center) <= r2 {
                    f(i);
                }
            }
        }
    }

    /// Collects the cell-ordered ids within `radius` of `center`, in the
    /// order [`GridIndex::for_each_within`] reports them.
    pub fn within(&self, points: &[Point2], center: &Point2, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(points, center, radius, |i| out.push(i));
        out
    }

    /// Number of grid cells (diagnostics).
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn brute_force(points: &[Point2], c: &Point2, r: f64) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&i| points[i as usize].dist_sq(c) <= r * r)
            .collect()
    }

    /// Indexes `points` with the given cell size and answers one query as
    /// sorted input indices.
    fn query(points: &[Point2], cell: f64, c: &Point2, r: f64) -> Vec<u32> {
        let (idx, order) = GridIndex::build(points, cell).unwrap();
        let gathered: Vec<Point2> = order.iter().map(|&o| points[o as usize]).collect();
        let mut got: Vec<u32> = idx
            .within(&gathered, c, r)
            .into_iter()
            .map(|i| order[i as usize])
            .collect();
        got.sort_unstable();
        got
    }

    fn random_points(seed: u64, n: usize, half: f64) -> Vec<Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.random_range(-half..half), rng.random_range(-half..half)))
            .collect()
    }

    #[test]
    fn empty_index() {
        let (idx, order) = GridIndex::build(&[], 1.0).unwrap();
        assert!(order.is_empty());
        assert!(idx.within(&[], &Point2::ORIGIN, 1.0).is_empty());
    }

    #[test]
    fn single_point() {
        let pts = vec![Point2::new(0.5, 0.5)];
        assert_eq!(query(&pts, 1.0, &Point2::ORIGIN, 1.0), vec![0]);
        assert!(query(&pts, 1.0, &Point2::new(3.0, 3.0), 1.0).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let pts = random_points(21, 500, 5.0);
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..50 {
            let c = Point2::new(rng.random_range(-6.0..6.0), rng.random_range(-6.0..6.0));
            assert_eq!(query(&pts, 1.0, &c, 1.0), brute_force(&pts, &c, 1.0));
        }
    }

    #[test]
    fn order_is_a_stable_cell_sort() {
        let pts = random_points(5, 300, 4.0);
        let (idx, order) = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(order.len(), pts.len());
        let mut seen = vec![false; pts.len()];
        for &o in &order {
            assert!(!std::mem::replace(&mut seen[o as usize], true));
        }
        // Within a cell, input order is kept: consecutive ids in one cell
        // have ascending input indices.
        for c in 0..idx.cell_count() {
            let ids = &order[idx.starts[c] as usize..idx.starts[c + 1] as usize];
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "cell {c}");
        }
    }

    #[test]
    fn reports_cells_in_row_major_order() {
        let pts = random_points(8, 400, 5.0);
        let (idx, order) = GridIndex::build(&pts, 1.0).unwrap();
        let gathered: Vec<Point2> = order.iter().map(|&o| pts[o as usize]).collect();
        // Cell-ordered ids ascend exactly when cells are visited in
        // row-major order and ids ascend within each cell.
        let got = idx.within(&gathered, &Point2::new(0.3, -0.2), 2.5);
        assert!(!got.is_empty());
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cell_runs_split_any_id_range_by_cell() {
        // Sparse points leave many cells empty.
        let pts = random_points(14, 60, 6.0);
        let (idx, _) = GridIndex::build(&pts, 1.0).unwrap();
        let n = pts.len() as u32;
        for (lo, hi) in [(0, n), (0, 0), (7, 8), (5, 41), (n - 1, n), (13, 13)] {
            let mut next = lo;
            for (c, run) in idx.cell_runs(lo..hi) {
                assert!(!run.is_empty() && run.start == next, "{lo}..{hi}");
                let cell = idx.starts[c]..idx.starts[c + 1];
                assert!(cell.start <= run.start && run.end <= cell.end);
                next = run.end;
            }
            assert_eq!(next, hi, "{lo}..{hi}");
        }
    }

    #[test]
    fn boundary_point_included() {
        let pts = vec![Point2::new(1.0, 0.0)];
        assert_eq!(query(&pts, 1.0, &Point2::ORIGIN, 1.0).len(), 1);
    }

    #[test]
    fn smaller_query_radius_ok() {
        let pts = random_points(2, 200, 3.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let c = Point2::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0));
            assert_eq!(query(&pts, 1.0, &c, 0.5), brute_force(&pts, &c, 0.5));
        }
    }

    #[test]
    fn large_radius_queries_scan_wider_block() {
        let pts = random_points(9, 400, 5.0);
        let mut rng = SmallRng::seed_from_u64(10);
        for radius in [2.0, 3.5] {
            for _ in 0..20 {
                let c = Point2::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0));
                assert_eq!(
                    query(&pts, 1.0, &c, radius),
                    brute_force(&pts, &c, radius),
                    "radius {radius}"
                );
            }
        }
    }

    #[test]
    fn huge_radius_is_clamped_to_the_grid() {
        // Without clamping, radius 1e9 over cell 1 would walk 4·10¹⁸ empty
        // cells per query; clamped, it scans the 10×10 grid once.
        let pts = random_points(12, 300, 5.0);
        for radius in [1e9, f64::MAX, f64::INFINITY] {
            for c in [Point2::ORIGIN, Point2::new(1e6, -1e6)] {
                assert_eq!(
                    query(&pts, 1.0, &c, radius),
                    brute_force(&pts, &c, radius),
                    "radius {radius}"
                );
            }
        }
    }

    #[test]
    fn nonpositive_cell_is_config_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = GridIndex::build(&[], bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::NotPositive {
                        field: "grid cell size",
                        ..
                    }
                ),
                "cell {bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn collinear_degenerate_extent() {
        // All points on a horizontal line: grid is 1 cell tall.
        let pts: Vec<Point2> = (0..10).map(|i| Point2::new(i as f64, 0.0)).collect();
        assert_eq!(query(&pts, 1.0, &Point2::new(5.0, 0.0), 1.0), vec![4, 5, 6]);
    }
}
