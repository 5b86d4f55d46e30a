//! Graph-identity golden: every built [`GraphFamily`] must keep its
//! exact adjacency and its exact BFS tree.
//!
//! Each family is digested as its node count followed by every row's
//! length and sorted `u32` targets (FNV-1a over little-endian words), and
//! the digests are pinned as literals. Any change to a generator's RNG
//! stream, to the CSR builder's sort/dedup, or to how rows are stored
//! moves a digest — and with it every report built on that graph.
//!
//! The family's BFS tree from node 0 — the spanning tree every tree
//! protocol runs on — is pinned the same way: its `(level, id)` order,
//! then every node's parent and child list.

mod common;

use common::{fnv, FNV_OFFSET};
use randcast_core::scenario::{standard_families, GraphFamily};
use randcast_graph::Graph;

fn digest(g: &Graph) -> u64 {
    let n = g.node_count();
    let mut h = fnv(FNV_OFFSET, n as u64);
    for v in 0..n as u32 {
        let row = g.targets_of(v);
        h = fnv(h, row.len() as u64);
        for &t in row {
            h = fnv(h, u64::from(t));
        }
    }
    h
}

/// Digest of `g.bfs_tree(0)`: the component size and the order, then
/// per node its parent (`u32::MAX` for the root and for nodes outside
/// the source component) and its child list.
fn tree_digest(g: &Graph) -> u64 {
    let tree = g.bfs_tree(0);
    let mut h = fnv(FNV_OFFSET, tree.component_size() as u64);
    for &v in tree.order() {
        h = fnv(h, u64::from(v));
    }
    for v in 0..g.node_count() {
        h = fnv(h, u64::from(tree.parent(v).unwrap_or(u32::MAX)));
        let children = tree.children_of(v);
        h = fnv(h, children.len() as u64);
        for &c in children {
            h = fnv(h, u64::from(c));
        }
    }
    h
}

/// Every covered family.
fn families() -> Vec<GraphFamily> {
    let n = 10_000;
    let mut families: Vec<GraphFamily> = standard_families();
    families.extend([
        GraphFamily::Grid(32, 32),
        GraphFamily::Hypercube(10),
        GraphFamily::Star(100),
        GraphFamily::Complete(16),
        GraphFamily::LowerBound(8),
    ]);
    for seed in [1u64, 2005] {
        families.extend([
            GraphFamily::Gnp {
                n,
                avg_deg: 8,
                seed,
            },
            GraphFamily::RandomGeometric { n, deg: 8, seed },
            GraphFamily::PreferentialAttachment { n, m: 3, seed },
            GraphFamily::RandomTree { n, seed },
        ]);
    }
    families
}

/// Each covered family with its pinned adjacency digest.
fn pinned() -> Vec<(GraphFamily, u64)> {
    let families = families();
    let digests = [
        0xa3c7_c074_38fb_2446, // Path(32)
        0xe38b_c99d_b751_aec5, // Grid(8, 8)
        0xbea2_a812_fa0f_ed27, // BalancedTree(2, 6)
        0x7798_99bb_1a6a_e085, // Hypercube(6)
        0x55f3_7223_1ca7_ec83, // RandomTree { n: 64, seed: 12345 }
        0x5f2a_79a2_ea78_bf85, // LowerBound(5)
        0x49b5_e61f_681f_e369, // Grid(32, 32)
        0xfc1e_f63d_1d49_5ed9, // Hypercube(10)
        0xd78c_bd50_fe9d_6400, // Star(100)
        0xb214_2ee8_43e8_e6d5, // Complete(16)
        0x75e1_c590_5cea_ec66, // LowerBound(8)
        0x885e_6dea_16bb_6e4b, // Gnp, seed 1
        0x0aaa_8276_b2a9_5f34, // RandomGeometric, seed 1
        0xb65e_dd00_500e_fae3, // PreferentialAttachment, seed 1
        0x37ab_2300_91d0_c5c2, // RandomTree, seed 1
        0x934e_9476_f4ff_768f, // Gnp, seed 2005
        0x89e3_5027_af54_3b4d, // RandomGeometric, seed 2005
        0x5ee5_4c00_f926_24ca, // PreferentialAttachment, seed 2005
        0x0c5f_0c59_30ff_c01e, // RandomTree, seed 2005
    ];
    assert_eq!(families.len(), digests.len());
    families.into_iter().zip(digests).collect()
}

#[test]
fn every_family_keeps_its_adjacency() {
    for (family, want) in pinned() {
        let got = digest(&family.build());
        assert_eq!(got, want, "{family:?}: 0x{got:016x} != 0x{want:016x}");
    }
}

#[test]
fn every_family_keeps_its_bfs_tree() {
    let digests = [
        0x6b0f_5711_7394_d9a0, // Path(32)
        0xc47b_a0fd_6946_3d45, // Grid(8, 8)
        0x4558_97d5_6b65_3cbc, // BalancedTree(2, 6)
        0xc241_252c_21ff_c9c3, // Hypercube(6)
        0xdf98_2d5f_d002_24e0, // RandomTree { n: 64, seed: 12345 }
        0x7e7e_0097_a66e_591b, // LowerBound(5)
        0x32bf_c7e5_95ec_79a9, // Grid(32, 32)
        0xf254_af39_d8a6_2e0f, // Hypercube(10)
        0xa897_cea3_ae68_88c0, // Star(100)
        0xffdb_e0f2_5046_661e, // Complete(16)
        0xa6c8_5b4e_2604_00ed, // LowerBound(8)
        0xd47e_868c_5fe2_9734, // Gnp, seed 1
        0xf16c_26ca_fe7e_91a6, // RandomGeometric, seed 1
        0xaa00_a4f1_11d5_d4a5, // PreferentialAttachment, seed 1
        0xdf9c_bf86_c1b8_9da3, // RandomTree, seed 1
        0x1b1b_4512_373d_861d, // Gnp, seed 2005
        0x9828_0d5f_e242_78df, // RandomGeometric, seed 2005
        0x268a_a5b8_3e32_fbce, // PreferentialAttachment, seed 2005
        0x0f83_9064_1366_442d, // RandomTree, seed 2005
    ];
    let families = families();
    assert_eq!(families.len(), digests.len());
    for (family, want) in families.into_iter().zip(digests) {
        let got = tree_digest(&family.build());
        assert_eq!(got, want, "{family:?}: 0x{got:016x} != 0x{want:016x}");
    }
}
