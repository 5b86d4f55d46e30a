//! Graph-identity golden: every built [`GraphFamily`] must keep its
//! exact adjacency.
//!
//! Each family is digested as its node count followed by every row's
//! length and sorted `u32` targets (FNV-1a over little-endian words), and
//! the digests are pinned as literals. Any change to a generator's RNG
//! stream, to the CSR builder's sort/dedup, or to how rows are stored
//! moves a digest — and with it every report built on that graph.

use randcast_core::scenario::{standard_families, GraphFamily};
use randcast_graph::Graph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

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

/// Each covered family with its pinned digest.
fn pinned() -> Vec<(GraphFamily, u64)> {
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
