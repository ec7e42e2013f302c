//! Property tests for the two-pass counting CSR topology builder: the
//! grid-accelerated adjacency must equal brute-force O(n²) adjacency on
//! random fields, at any worker-thread count, and the cell-order layout
//! must translate consistently between internal and external ids.

use nss::model::prelude::*;
use proptest::prelude::*;

/// Brute-force unit-disk adjacency: sorted neighbor row per node.
fn brute_force_adjacency(points: &[Point2], r: f64) -> Vec<Vec<u32>> {
    let r2 = r * r;
    (0..points.len())
        .map(|i| {
            (0..points.len())
                .filter(|&j| j != i && points[i].dist_sq(&points[j]) <= r2)
                .map(|j| j as u32)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_matches_brute_force_adjacency(
        pts in proptest::collection::vec((-6.0f64..6.0, -6.0f64..6.0), 1..90),
        r in 0.2f64..4.0,
        threads in 1usize..5,
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let expect = brute_force_adjacency(&points, r);
        let net = DeployedNetwork::from_positions(points, r);
        let topo = Topology::try_build_with_threads(&net, threads).unwrap();
        for (i, row) in expect.iter().enumerate() {
            prop_assert_eq!(
                topo.neighbors(NodeId(i as u32)).collect::<Vec<_>>(), row.clone(),
                "node {} at {} threads", i, threads
            );
        }
    }

    #[test]
    fn build_is_thread_count_invariant(
        pts in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..120),
        r in 0.2f64..3.0,
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let net = DeployedNetwork::from_positions(points, r);
        let seq = Topology::try_build_with_threads(&net, 1).unwrap();
        for threads in [2, 4] {
            let par = Topology::try_build_with_threads(&net, threads).unwrap();
            for i in 0..seq.len() {
                prop_assert_eq!(
                    seq.neighbors(NodeId(i as u32)).collect::<Vec<_>>(),
                    par.neighbors(NodeId(i as u32)).collect::<Vec<_>>(),
                    "node {} at {} threads", i, threads
                );
            }
        }
    }

    #[test]
    fn ext_and_rank_are_inverse_permutations(
        pts in proptest::collection::vec((-6.0f64..6.0, -6.0f64..6.0), 1..120),
        r in 0.2f64..3.0,
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let n = points.len();
        let topo = Topology::build(&DeployedNetwork::from_positions(points.clone(), r));
        let (ext, rank) = (topo.ext(), topo.rank());
        prop_assert_eq!(ext.len(), n);
        prop_assert_eq!(rank.len(), n);
        for i in 0..n {
            prop_assert_eq!(rank[ext[i] as usize] as usize, i);
            prop_assert_eq!(ext[rank[i] as usize] as usize, i);
            // Positions travel with the relabelling.
            prop_assert_eq!(topo.internal_position(i as u32), points[ext[i] as usize]);
            prop_assert_eq!(topo.position(NodeId(i as u32)), points[i]);
        }
    }

    #[test]
    fn internal_rows_map_to_ascending_external_rows(
        pts in proptest::collection::vec((-6.0f64..6.0, -6.0f64..6.0), 1..90),
        r in 0.2f64..4.0,
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let expect = brute_force_adjacency(&points, r);
        let topo = Topology::build(&DeployedNetwork::from_positions(points, r));
        let (ext, rank) = (topo.ext(), topo.rank());
        for (u, row) in expect.iter().enumerate() {
            let external: Vec<u32> = topo.neighbors(NodeId(u as u32)).collect();
            prop_assert!(external.windows(2).all(|w| w[0] < w[1]), "row {} not ascending", u);
            prop_assert_eq!(&external, row, "node {}", u);
            let mapped: Vec<u32> = topo.row(rank[u]).iter().map(|&v| ext[v as usize]).collect();
            prop_assert_eq!(&mapped, &external, "internal row of node {}", u);
            prop_assert_eq!(topo.degree(NodeId(u as u32)), row.len());
        }
    }
}
