//! Every catalog program's kernel results, pinned. Each program runs
//! natively at 1/256 scale on each evaluation target, and the FNV-1a 64
//! over its read-back checksums must keep its exact value: the engine's
//! arithmetic, including its order of operations, is what every
//! restart and migration is verified against. A program with no
//! read-backs pins the FNV offset basis, `0xcbf29ce484222325`, so the
//! programs that read nothing back are named, and the mri `_large`
//! sizes, which match `_small` at 1/256, are pinned again at 1/128.

use checl_bench::eval_targets;
use checl_repro as _;
use osproc::Cluster;
use simcore::fnv1a64;
use workloads::{all_workloads, NativeSession, StopCondition, Workload};

/// `(program, fnv1a64 of its checksums on each of `eval_targets()`)`.
const PINNED: [(&str, [u64; 3]); 39] = [
    (
        "oclBandwidthTest",
        [0x23de29fd58de9ffd, 0x23de29fd58de9ffd, 0x23de29fd58de9ffd],
    ),
    (
        "oclBlackScholes",
        [0x8f219e422523483e, 0x8f219e422523483e, 0x8f219e422523483e],
    ),
    (
        "oclConvolutionSeparable",
        [0x7bc12ec26fab3cce, 0x7bc12ec26fab3cce, 0x7bc12ec26fab3cce],
    ),
    (
        "oclDCT8x8",
        [0x8acb1b39e00f8029, 0x8acb1b39e00f8029, 0x8acb1b39e00f8029],
    ),
    (
        "oclDXTCompression",
        [0x8ef30e1cb315d658, 0x8ef30e1cb315d658, 0x8ef30e1cb315d658],
    ),
    (
        "oclDotProduct",
        [0xfaf4cbbd8de5380d, 0xfaf4cbbd8de5380d, 0xfaf4cbbd8de5380d],
    ),
    (
        "oclFDTD3d",
        [0xabdb4785c59a6469, 0xaf1bc362dff30151, 0x03a736dd6977e062],
    ),
    (
        "oclHistogram",
        [0x69c561cafb79070d, 0x69c561cafb79070d, 0x69c561cafb79070d],
    ),
    (
        "oclMatVecMul",
        [0x35635c7a3024eacc, 0x7155e6e6b8529ccc, 0x1436dd82abaa7a3f],
    ),
    (
        "oclMatrixMul",
        [0x414bd9eaf981eb57, 0x414bd9eaf981eb57, 0x414bd9eaf981eb57],
    ),
    (
        "oclMersenneTwister",
        [0x68ea25cfecc3a5c0, 0x68ea25cfecc3a5c0, 0x68ea25cfecc3a5c0],
    ),
    (
        "oclQuasirandomGenerator",
        [0x97c80bbba779b014, 0x97c80bbba779b014, 0x97c80bbba779b014],
    ),
    (
        "oclRadixSort",
        [0xf8ca54f0f0c57990, 0xf8ca54f0f0c57990, 0xf8ca54f0f0c57990],
    ),
    (
        "oclReduction",
        [0x40984171f8123d93, 0x40984171f8123d93, 0x40984171f8123d93],
    ),
    (
        "oclScan",
        [0x39481aff24e855b9, 0x39481aff24e855b9, 0x39481aff24e855b9],
    ),
    (
        "oclSimpleMultiGPU",
        [0x18459caefec7ee0d, 0x18459caefec7ee0d, 0x18459caefec7ee0d],
    ),
    (
        "oclSortingNetworks",
        [0xd9ba7ded22c08875, 0xd9ba7ded22c08875, 0xd9ba7ded22c08875],
    ),
    (
        "oclTranspose",
        [0x2ff63df59756aec2, 0x2ff63df59756aec2, 0x2ff63df59756aec2],
    ),
    (
        "oclVectorAdd",
        [0x95fba8e07ca39cc5, 0x95fba8e07ca39cc5, 0x95fba8e07ca39cc5],
    ),
    (
        "BusSpeedDownload",
        [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325],
    ),
    (
        "BusSpeedReadback",
        [0xfbe00cc94cdfefe5, 0xfbe00cc94cdfefe5, 0xfbe00cc94cdfefe5],
    ),
    (
        "DeviceMemory",
        [0x2d51c9511da3c73d, 0x2d51c9511da3c73d, 0x2d51c9511da3c73d],
    ),
    (
        "FFT",
        [0x15e6af4ec3b59dbc, 0x15e6af4ec3b59dbc, 0x15e6af4ec3b59dbc],
    ),
    (
        "KernelCompile",
        [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325],
    ),
    (
        "MaxFlops",
        [0x5f16b7dcc5d91e06, 0x5f16b7dcc5d91e06, 0x5f16b7dcc5d91e06],
    ),
    (
        "MD",
        [0xeec3ecc0f5712c9e, 0xeec3ecc0f5712c9e, 0xeec3ecc0f5712c9e],
    ),
    (
        "QueueDelay",
        [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325],
    ),
    (
        "Reduction",
        [0x86a8304341999e84, 0x86a8304341999e84, 0x86a8304341999e84],
    ),
    (
        "S3D",
        [0xa10e1945814c29c6, 0xa10e1945814c29c6, 0xa10e1945814c29c6],
    ),
    (
        "SGEMM",
        [0x329c8061ef11e64c, 0x329c8061ef11e64c, 0x329c8061ef11e64c],
    ),
    (
        "Scan",
        [0x62d08924285bbb09, 0x62d08924285bbb09, 0x62d08924285bbb09],
    ),
    (
        "Sort",
        [0x5b408f957c079a64, 0x5b408f957c079a64, 0x5b408f957c079a64],
    ),
    (
        "Stencil2D",
        [0x61293e2c3766d67c, 0x61293e2c3766d67c, 0x61293e2c3766d67c],
    ),
    (
        "Triad",
        [0x1a30816000d0c759, 0x1a30816000d0c759, 0x1a30816000d0c759],
    ),
    (
        "cp_default",
        [0xddc9cb066f228dd9, 0xddc9cb066f228dd9, 0xddc9cb066f228dd9],
    ),
    (
        "mri-fhd_small",
        [0xe9e55c2a657d2f6a, 0xe9e55c2a657d2f6a, 0xe9e55c2a657d2f6a],
    ),
    (
        "mri-fhd_large",
        [0xe9e55c2a657d2f6a, 0xe9e55c2a657d2f6a, 0xe9e55c2a657d2f6a],
    ),
    (
        "mri-q_small",
        [0xe34d13dbd67bd000, 0xe34d13dbd67bd000, 0xe34d13dbd67bd000],
    ),
    (
        "mri-q_large",
        [0xe34d13dbd67bd000, 0xe34d13dbd67bd000, 0xe34d13dbd67bd000],
    ),
];

/// The two mri programs whose `_small` and `_large` sizes collapse to
/// one problem at 1/256, pinned at 1/128, the smallest scale where the
/// large size differs.
const LARGE_AT_1_128: [(&str, [u64; 3]); 2] = [
    (
        "mri-fhd_large",
        [0x0488d2ab9c9f08dd, 0x0488d2ab9c9f08dd, 0x0488d2ab9c9f08dd],
    ),
    (
        "mri-q_large",
        [0x99cc5c399f54e0f5, 0x99cc5c399f54e0f5, 0x99cc5c399f54e0f5],
    ),
];

/// The only programs that read nothing back.
const NO_READ_BACKS: [&str; 3] = ["BusSpeedDownload", "KernelCompile", "QueueDelay"];

/// Run `w` natively at `scale` on each evaluation target: the FNV-1a
/// 64 of its checksums per target, and whether it read anything back.
fn outputs(w: &Workload, scale: f64) -> ([u64; 3], bool) {
    let targets = eval_targets();
    let mut read_back = false;
    let per_target = std::array::from_fn(|t| {
        let target = &targets[t];
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = NativeSession::launch(
            &mut cluster,
            node,
            (target.vendor)(),
            w.script(&target.cfg(scale)),
        );
        s.run(&mut cluster, StopCondition::Completion)
            .unwrap_or_else(|e| panic!("{} on {}: {e:?}", w.name, target.label));
        read_back |= !s.program.checksums.is_empty();
        let bytes: Vec<u8> = s
            .program
            .checksums
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .collect();
        fnv1a64(&bytes)
    });
    (per_target, read_back)
}

#[test]
fn catalog_kernel_outputs_match_the_pins() {
    let mut silent = Vec::new();
    let got: Vec<(&str, [u64; 3])> = all_workloads()
        .iter()
        .map(|w| {
            let (per_target, read_back) = outputs(w, 1.0 / 256.0);
            if !read_back {
                silent.push(w.name);
            }
            (w.name, per_target)
        })
        .collect();
    assert_eq!(got, PINNED);
    assert_eq!(silent, NO_READ_BACKS);

    let got: Vec<(&str, [u64; 3])> = all_workloads()
        .iter()
        .filter(|w| LARGE_AT_1_128.iter().any(|(name, _)| *name == w.name))
        .map(|w| (w.name, outputs(w, 1.0 / 128.0).0))
        .collect();
    assert_eq!(got, LARGE_AT_1_128);
    for (large, pins) in LARGE_AT_1_128 {
        let small = large.replace("_large", "_small");
        let (_, small_pins) = PINNED.iter().find(|(name, _)| *name == small).unwrap();
        assert_ne!(&pins, small_pins, "{large} collapses to {small}");
    }
}
