//! Unit-disk communication graph (Assumptions 1–2 of the paper).
//!
//! The deployment's symmetric graph `G(V, E)` where `(u, v) ∈ E` iff
//! `dist(u, v) ≤ r`. Adjacency is stored in CSR form for cache-friendly
//! iteration — neighbor scans dominate the simulator's inner loop.

use crate::deployment::DeployedNetwork;
use crate::error::ConfigError;
use crate::geometry::Point2;
use crate::ids::NodeId;
use crate::spatial::GridIndex;
use std::collections::VecDeque;

/// Below this node count the builder stays sequential: thread spawn/join
/// overhead exceeds the grid-query work itself.
const PAR_BUILD_THRESHOLD: usize = 8_192;

/// Node ids are `u32` and [`NodeId`]-space reserves `u32::MAX` as a
/// sentinel (`NEVER`, BFS "unvisited"), so a deployment may hold at most
/// `u32::MAX - 1` nodes.
const MAX_NODES: usize = u32::MAX as usize - 1;

/// Rejects node counts that would overflow `u32` node ids.
pub(crate) fn check_node_count(n: usize) -> Result<(), ConfigError> {
    if n > MAX_NODES {
        return Err(ConfigError::Exceeds {
            field: "node count",
            bound: "u32 id space",
            value: n as f64,
            limit: MAX_NODES as f64,
        });
    }
    Ok(())
}

/// Rejects adjacency lengths that would overflow the `u32` CSR offsets.
fn check_adjacency_len(total: u64) -> Result<(), ConfigError> {
    if total > u64::from(u32::MAX) {
        return Err(ConfigError::Exceeds {
            field: "adjacency entries",
            bound: "u32 CSR offset space",
            value: total as f64,
            limit: f64::from(u32::MAX),
        });
    }
    Ok(())
}

/// Telemetry hook for one sharded CSR-build pass. With live
/// instrumentation (`obs` feature), [`BuildStage::finish`] publishes a
/// flight-recorder event spanning the pass, each chunk's wall time into
/// the `<stage>.shard.seconds` histogram, and the max/mean chunk-time
/// ratio into the `<stage>.imbalance` gauge; without it, every method
/// const-folds to nothing and the build is byte-for-byte the
/// uninstrumented one.
struct BuildStage {
    stage: &'static str,
    start_ns: u64,
}

impl BuildStage {
    fn start(stage: &'static str) -> Self {
        BuildStage {
            stage,
            start_ns: Self::clock(),
        }
    }

    /// Nanoseconds on the recorder clock (0 when instrumentation is off).
    #[inline]
    fn clock() -> u64 {
        if nss_obs::enabled() {
            nss_obs::trace::now_ns()
        } else {
            0
        }
    }

    fn finish(self, chunk_ns: &[u64]) {
        if !nss_obs::enabled() || chunk_ns.is_empty() {
            return;
        }
        let end_ns = nss_obs::trace::now_ns();
        nss_obs::trace::record(
            nss_obs::trace::intern(self.stage),
            self.start_ns,
            end_ns.saturating_sub(self.start_ns),
        );
        let reg = nss_obs::registry::Registry::global();
        let hist = reg.histogram(&format!("{}.shard.seconds", self.stage));
        let mut max_ns = 0u64;
        let mut sum_ns = 0u64;
        for &d in chunk_ns {
            hist.record(d as f64 * 1e-9);
            max_ns = max_ns.max(d);
            sum_ns += d;
        }
        let mean_ns = sum_ns as f64 / chunk_ns.len() as f64;
        if mean_ns > 0.0 {
            reg.gauge(&format!("{}.imbalance", self.stage))
                .set(max_ns as f64 / mean_ns);
        }
    }
}

/// Immutable unit-disk topology built from a [`DeployedNetwork`].
///
/// Nodes carry two ids. The *external* id is the deployment's sampling
/// order ([`NodeId`], source = 0); every public method taking or returning
/// a [`NodeId`] or a plain node index speaks it. Internally nodes are
/// stored in grid-cell order (the *internal* id, see [`GridIndex`]), so
/// unit-disk neighbours — which always share a 3×3 block of `r`-cells —
/// sit on nearby cache lines. `ext` and `rank` translate between the two;
/// each CSR row lists internal ids in ascending *external* order, so the
/// external view of a row is ascending too.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Positions by internal id.
    positions: Vec<Point2>,
    comm_radius: f64,
    /// CSR adjacency over internal ids: the neighbours of internal node `i`
    /// are `adj[starts[i]..starts[i+1]]`, ordered by external id.
    starts: Vec<u32>,
    adj: Vec<u32>,
    /// Internal → external id.
    ext: Vec<u32>,
    /// External → internal id.
    rank: Vec<u32>,
    index: GridIndex,
}

/// The neighbours of one node as ascending external ids; see
/// [`Topology::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    row: std::slice::Iter<'a, u32>,
    ext: &'a [u32],
}

impl Iterator for Neighbors<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        self.row.next().map(|&v| self.ext[v as usize])
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.row.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl std::iter::FusedIterator for Neighbors<'_> {}

impl Topology {
    /// Builds the unit-disk graph. O(N·ρ) expected time via the grid index.
    ///
    /// Panics on invalid deployments (non-positive radius, id-space
    /// overflow); [`Topology::try_build`] is the fallible path.
    pub fn build(net: &DeployedNetwork) -> Self {
        Self::try_build(net)
            // nss-lint: allow(panic-hygiene) — documented contract: entry points panic on invalid configs; try_build() is the fallible path
            .unwrap_or_else(|e| panic!("invalid deployment for Topology::build: {e}"))
    }

    /// Fallible build with automatic thread-count selection (sequential
    /// below `PAR_BUILD_THRESHOLD` (8192) nodes, all cores above).
    pub fn try_build(net: &DeployedNetwork) -> Result<Self, ConfigError> {
        Self::try_build_with_threads(net, 0)
    }

    /// Builds the unit-disk graph: a layout pass relabels the nodes in
    /// grid-cell order, then a two-pass counting CSR build shards the grid
    /// queries over `threads` workers (0 = pick automatically). Each row
    /// is computed independently and sorted by external id, so the result
    /// is bit-identical at any thread count.
    pub fn try_build_with_threads(
        net: &DeployedNetwork,
        threads: usize,
    ) -> Result<Self, ConfigError> {
        let r = net.comm_radius();
        let n = net.len();
        check_node_count(n)?;

        // Layout: the grid's counting sort fixes the internal order; gather
        // the positions into it and invert the permutation.
        let layout = BuildStage::start("topo.layout");
        let t0 = BuildStage::clock();
        let (index, ext) = GridIndex::build(net.positions(), r)?;
        let positions: Vec<Point2> = ext.iter().map(|&e| net.positions()[e as usize]).collect();
        let mut rank = vec![0u32; n];
        for (i, &e) in ext.iter().enumerate() {
            rank[e as usize] = i as u32;
        }
        layout.finish(&[BuildStage::clock().saturating_sub(t0)]);

        let nworkers = match threads {
            0 if n < PAR_BUILD_THRESHOLD => 1,
            0 => std::thread::available_parallelism().map_or(1, |t| t.get()),
            t => t,
        }
        .min(n.max(1));

        // Pass 1: count each node's degree (disjoint chunks of `degrees`).
        let chunk = n.div_ceil(nworkers).max(1);
        let mut degrees = vec![0u32; n];
        // Both passes test every candidate of a node's 3×3 cell block
        // branch-free, the same predicate as `GridIndex::for_each_within`.
        let r2 = r * r;
        let count_range = |base: usize, out: &mut [u32]| {
            let ids = base as u32..(base + out.len()) as u32;
            for (cell, run) in index.cell_runs(ids) {
                for i in run {
                    let p = positions[i as usize];
                    let mut deg = 0u32;
                    for block in index.block(cell, r) {
                        for v in block {
                            deg += u32::from(positions[v as usize].dist_sq(&p) <= r2 && v != i);
                        }
                    }
                    out[(i as usize) - base] = deg;
                }
            }
        };
        let pass1 = BuildStage::start("topo.count");
        let durs: Vec<u64> = if nworkers <= 1 {
            let t0 = BuildStage::clock();
            count_range(0, &mut degrees);
            vec![BuildStage::clock().saturating_sub(t0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = degrees
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(ci, out)| {
                        let count_range = &count_range;
                        scope.spawn(move || {
                            let t0 = BuildStage::clock();
                            count_range(ci * chunk, out);
                            BuildStage::clock().saturating_sub(t0)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // nss-lint: allow(panic-hygiene) — a panicking builder worker leaves the CSR half-filled; propagating is the only sound option
                    .map(|h| h.join().expect("CSR count worker panicked"))
                    .collect()
            })
        };
        pass1.finish(&durs);

        // Prefix-sum the degrees into CSR row offsets, guarding overflow.
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0u32);
        let mut total = 0u64;
        for &d in &degrees {
            total += u64::from(d);
            check_adjacency_len(total)?;
            starts.push(total as u32);
        }
        drop(degrees);

        // Pass 2: fill each row in place. Rows are disjoint, so the
        // adjacency buffer is handed out as per-chunk sub-slices.
        let mut adj = vec![0u32; total as usize];
        // Every node of a cell scans the same block, so the block is sorted
        // by external id once per cell, as keys `(external << 32) |
        // internal`; filtering it by distance then yields each of the
        // cell's rows already in external order.
        let fill_range = |lo: usize, hi: usize, out: &mut [u32]| {
            let base = starts[lo] as usize;
            let mut keys: Vec<u64> = Vec::new();
            let mut row: Vec<u32> = Vec::new();
            for (cell, run) in index.cell_runs(lo as u32..hi as u32) {
                keys.clear();
                for block in index.block(cell, r) {
                    keys.extend(block.map(|v| (u64::from(ext[v as usize]) << 32) | u64::from(v)));
                }
                keys.sort_unstable();
                row.resize(keys.len(), 0);
                for i in run {
                    let p = positions[i as usize];
                    // Write every candidate, advance only past the kept ones.
                    let mut w = 0;
                    for &k in &keys {
                        let v = k as u32;
                        row[w] = v;
                        w += usize::from(positions[v as usize].dist_sq(&p) <= r2 && v != i);
                    }
                    let (a, b) = (starts[i as usize] as usize, starts[i as usize + 1] as usize);
                    out[a - base..b - base].copy_from_slice(&row[..w]);
                }
            }
        };
        let pass2 = BuildStage::start("topo.fill");
        let durs: Vec<u64> = if nworkers <= 1 {
            let t0 = BuildStage::clock();
            fill_range(0, n, &mut adj);
            vec![BuildStage::clock().saturating_sub(t0)]
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                let mut rest: &mut [u32] = &mut adj;
                let mut consumed = 0usize;
                let mut lo = 0usize;
                while lo < n {
                    let hi = (lo + chunk).min(n);
                    let end = starts[hi] as usize;
                    let (slice, tail) = rest.split_at_mut(end - consumed);
                    let fill_range = &fill_range;
                    handles.push(scope.spawn(move || {
                        let t0 = BuildStage::clock();
                        fill_range(lo, hi, slice);
                        BuildStage::clock().saturating_sub(t0)
                    }));
                    rest = tail;
                    consumed = end;
                    lo = hi;
                }
                handles
                    .into_iter()
                    // nss-lint: allow(panic-hygiene) — a panicking builder worker leaves the CSR half-filled; propagating is the only sound option
                    .map(|h| h.join().expect("CSR fill worker panicked"))
                    .collect()
            })
        };
        pass2.finish(&durs);

        let topo = Topology {
            positions,
            comm_radius: r,
            starts,
            adj,
            ext,
            rank,
            index,
        };
        // Footprint gauge: the CSR arrays dominate resident memory at
        // scale; a live scrape during a million-node build shows the jump.
        nss_obs::gauge!("topo.adjacency.bytes").set(topo.adjacency_bytes() as f64);
        Ok(topo)
    }

    /// Bytes held by the CSR adjacency (offsets + neighbor ids) — the
    /// dominant allocation at scale, reported by the scale benchmark.
    pub fn adjacency_bytes(&self) -> usize {
        (self.starts.len() + self.adj.len()) * std::mem::size_of::<u32>()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the topology has no nodes (never produced by deployments,
    /// which always include the source).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point2 {
        self.positions[self.rank[id.index()] as usize]
    }

    /// The shared communication radius.
    pub fn comm_radius(&self) -> f64 {
        self.comm_radius
    }

    /// Neighbors of `u` as ascending external ids.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> Neighbors<'_> {
        Neighbors {
            row: self.row(self.rank[u.index()]).iter(),
            ext: &self.ext,
        }
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.row(self.rank[u.index()]).len()
    }

    /// Total number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Mean degree over all nodes — the empirical ρ.
    pub fn mean_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        self.adj.len() as f64 / self.positions.len() as f64
    }

    /// Calls `f` for each node within distance `radius` of an arbitrary
    /// point (used by the carrier-sense and SINR media). Nodes are reported
    /// cell by cell in row-major order, ascending external id within a
    /// cell.
    pub fn for_each_within(&self, center: &Point2, radius: f64, mut f: impl FnMut(NodeId)) {
        self.index
            .for_each_within(&self.positions, center, radius, |i| {
                f(NodeId(self.ext[i as usize]));
            });
    }

    /// Internal → external id map, indexed by internal id.
    pub fn ext(&self) -> &[u32] {
        &self.ext
    }

    /// External → internal id map, indexed by external id.
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Neighbours of internal node `i` as internal ids, in ascending
    /// external order.
    #[inline]
    pub fn row(&self, i: u32) -> &[u32] {
        let lo = self.starts[i as usize] as usize;
        let hi = self.starts[i as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Position of internal node `i`.
    #[inline]
    pub fn internal_position(&self, i: u32) -> Point2 {
        self.positions[i as usize]
    }

    /// [`Topology::for_each_within`] over internal ids, in the same order.
    pub fn for_each_internal_within(&self, center: &Point2, radius: f64, f: impl FnMut(u32)) {
        self.index
            .for_each_within(&self.positions, center, radius, f);
    }

    /// BFS hop distance over internal ids from internal node `src`.
    fn internal_levels(&self, src: u32) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.len()];
        let mut queue = VecDeque::new();
        level[src as usize] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let lu = level[u as usize];
            for &v in self.row(u) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = lu + 1;
                    queue.push_back(v);
                }
            }
        }
        level
    }

    /// BFS hop distance from `src` to every node, indexed by external id;
    /// `u32::MAX` marks unreachable nodes. Level 0 is the source itself.
    pub fn bfs_levels(&self, src: NodeId) -> Vec<u32> {
        let internal = self.internal_levels(self.rank[src.index()]);
        self.rank.iter().map(|&i| internal[i as usize]).collect()
    }

    /// Fraction of nodes reachable from the source by multi-hop paths — an
    /// upper bound on any broadcast scheme's reachability.
    pub fn reachable_fraction(&self, src: NodeId) -> f64 {
        let levels = self.internal_levels(self.rank[src.index()]);
        levels.iter().filter(|&&l| l != u32::MAX).count() as f64 / self.len() as f64
    }

    /// Graph eccentricity of the source in hops (max finite BFS level) — the
    /// CFM flooding latency in units of `t_f`.
    pub fn source_eccentricity(&self, src: NodeId) -> u32 {
        self.internal_levels(self.rank[src.index()])
            .iter()
            .copied()
            .filter(|&l| l != u32::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Sizes of the connected components, largest first.
    pub fn component_sizes(&self) -> Vec<usize> {
        let n = self.len();
        let mut comp = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            let c = sizes.len() as u32;
            let mut size = 0usize;
            let mut queue = VecDeque::new();
            comp[s] = c;
            queue.push_back(s as u32);
            while let Some(u) = queue.pop_front() {
                size += 1;
                for &v in self.row(u) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = c;
                        queue.push_back(v);
                    }
                }
            }
            sizes.push(size);
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Degree histogram statistics (min, mean, max).
    pub fn degree_stats(&self) -> (usize, f64, usize) {
        let mut min = usize::MAX;
        let mut max = 0usize;
        for i in 0..self.len() {
            let d = self.row(i as u32).len();
            min = min.min(d);
            max = max.max(d);
        }
        if self.is_empty() {
            (0, 0.0, 0)
        } else {
            (min, self.mean_degree(), max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;

    fn line_topology(n: usize, spacing: f64, r: f64) -> Topology {
        let positions = (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::build(&DeployedNetwork::from_positions(positions, r))
    }

    #[test]
    fn grid_unit_disk_neighbors() {
        // 3×3 grid, spacing 1, radius 1: orthogonal neighbors only.
        let net = Deployment::Grid(crate::deployment::GridDeployment::new(3, 1.0, 1.0)).sample(0);
        let topo = Topology::build(&net);
        assert_eq!(topo.len(), 9);
        // Source is the center: 4 orthogonal neighbors.
        assert_eq!(topo.degree(NodeId::SOURCE), 4);
        // Corner nodes have degree 2.
        let (min, mean, max) = topo.degree_stats();
        assert_eq!(min, 2);
        assert_eq!(max, 4);
        assert!((mean - 24.0 / 9.0).abs() < 1e-12);
        // Total undirected edges in a 3×3 grid graph: 12.
        assert_eq!(topo.edge_count(), 12);
    }

    #[test]
    fn grid_diagonals_with_larger_radius() {
        // radius √2 picks up diagonals too.
        let net = Deployment::Grid(crate::deployment::GridDeployment::new(
            3,
            1.0,
            2.0f64.sqrt() + 1e-9,
        ))
        .sample(0);
        let topo = Topology::build(&net);
        assert_eq!(topo.degree(NodeId::SOURCE), 8);
    }

    #[test]
    fn bfs_levels_on_grid() {
        let net = Deployment::Grid(crate::deployment::GridDeployment::new(5, 1.0, 1.0)).sample(0);
        let topo = Topology::build(&net);
        let levels = topo.bfs_levels(NodeId::SOURCE);
        // Manhattan distance from center on a 5×5 grid: eccentricity 4.
        assert_eq!(topo.source_eccentricity(NodeId::SOURCE), 4);
        assert_eq!(levels.iter().filter(|&&l| l == u32::MAX).count(), 0);
        assert!((topo.reachable_fraction(NodeId::SOURCE) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_adjacency() {
        let net = Deployment::disk(3, 1.0, 30.0).sample(5);
        let topo = Topology::build(&net);
        for u in 0..topo.len() {
            for v in topo.neighbors(NodeId(u as u32)) {
                assert!(
                    topo.neighbors(NodeId(v)).any(|w| w == u as u32),
                    "asymmetric edge {u}-{v}"
                );
            }
        }
    }

    #[test]
    fn mean_degree_tracks_rho() {
        // For dense disks the mean degree should be near ρ (boundary effects
        // pull it slightly below).
        let net = Deployment::disk(5, 1.0, 60.0).sample(9);
        let topo = Topology::build(&net);
        let mean = topo.mean_degree();
        assert!(
            mean > 0.75 * 60.0 && mean < 60.0 * 1.05,
            "mean degree {mean} inconsistent with rho=60"
        );
    }

    #[test]
    fn disconnected_components_detected() {
        // Two distant clusters via a sparse disk: use two grid deployments
        // can't express this; instead take a very sparse disk where isolated
        // nodes are likely.
        let net = Deployment::disk(5, 1.0, 2.0).sample(13);
        let topo = Topology::build(&net);
        let sizes = topo.component_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), topo.len());
        assert!(sizes.len() > 1, "expected a disconnected sparse network");
        assert!(topo.reachable_fraction(NodeId::SOURCE) < 1.0);
    }

    #[test]
    fn line_topology_structure() {
        let t = line_topology(5, 1.0, 1.0);
        assert_eq!(t.len(), 5);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
        assert_eq!(t.source_eccentricity(NodeId::SOURCE), 4);
        assert_eq!(t.component_sizes(), vec![5]);
        // spacing larger than radius → fully disconnected
        let t = line_topology(4, 2.0, 1.0);
        assert_eq!(t.component_sizes(), vec![1, 1, 1, 1]);
        assert_eq!(t.source_eccentricity(NodeId::SOURCE), 0);
        assert!((t.reachable_fraction(NodeId::SOURCE) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn singleton_topology() {
        let t = line_topology(1, 1.0, 1.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.degree(NodeId::SOURCE), 0);
        assert_eq!(t.component_sizes(), vec![1]);
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let net = Deployment::disk(6, 1.0, 40.0).sample(17);
        let seq = Topology::try_build_with_threads(&net, 1).unwrap();
        for threads in [2, 3, 4, 7] {
            let par = Topology::try_build_with_threads(&net, threads).unwrap();
            assert_eq!(seq.ext, par.ext, "threads={threads}");
            assert_eq!(seq.starts, par.starts, "threads={threads}");
            assert_eq!(seq.adj, par.adj, "threads={threads}");
        }
    }

    #[test]
    fn node_count_overflow_is_config_error() {
        assert_eq!(check_node_count(MAX_NODES), Ok(()));
        let err = check_node_count(MAX_NODES + 1).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::Exceeds {
                field: "node count",
                ..
            }
        ));
    }

    #[test]
    fn adjacency_overflow_is_config_error() {
        assert_eq!(check_adjacency_len(u64::from(u32::MAX)), Ok(()));
        let err = check_adjacency_len(u64::from(u32::MAX) + 1).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::Exceeds {
                field: "adjacency entries",
                ..
            }
        ));
    }

    #[test]
    fn adjacency_bytes_counts_csr_storage() {
        let t = line_topology(5, 1.0, 1.0);
        // 6 offsets + 8 directed edges, 4 bytes each.
        assert_eq!(t.adjacency_bytes(), (6 + 8) * 4);
    }
}
