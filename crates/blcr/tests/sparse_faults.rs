//! Seed replay of write faults on whole dump files.
//!
//! A dump file is a framed body followed by the process-baseline zero
//! padding, so most of its bytes are padding. Each case below writes
//! one sequential or one streamed dump under a seeded [`FaultPlan`],
//! then pins three things as literals: the file's logical length, the
//! FNV-1a 64 of every byte of it, and the fault log. Any change to how
//! files are stored must keep every line byte-identical, including
//! flips and short writes that land in the padding.

use blcr::StreamWriter;
use osproc::{Cluster, FaultPlan, Pid};
use simcore::{fnv1a64, SimTime};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// When the plan goes in, and what it arms.
#[derive(Clone, Copy)]
enum Plan {
    /// Every write is corrupted, flips uniform over the whole write.
    CorruptAll,
    /// The write carrying the padding is stored short.
    ShortTail,
    /// Every write is corrupted, flips within its first 64 bytes.
    CorruptPrefix,
}

impl Plan {
    fn name(self) -> &'static str {
        match self {
            Plan::CorruptAll => "corrupt_all",
            Plan::ShortTail => "short_tail",
            Plan::CorruptPrefix => "corrupt_prefix",
        }
    }

    fn build(self, seed: u64) -> FaultPlan {
        match self {
            Plan::CorruptAll => FaultPlan::new(seed).with_corrupt_write_prob(1.0),
            Plan::ShortTail => FaultPlan::new(seed).short_next_writes(1),
            Plan::CorruptPrefix => FaultPlan::new(seed)
                .with_corrupt_write_prob(1.0)
                .corrupt_in_prefix(64),
        }
    }
}

fn setup() -> (Cluster, Pid) {
    let mut c = Cluster::with_standard_nodes(1);
    let n = c.node_ids()[0];
    let p = c.spawn(n);
    let heap: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
    c.process_mut(p).image.put("heap", heap);
    (c, p)
}

/// One sequential dump; its single write carries the padding.
fn sequential(c: &mut Cluster, p: Pid, plan: Plan, seed: u64) -> (String, String) {
    c.install_faults(plan.build(seed));
    let path = "/local/seq.ckpt";
    let outcome = match blcr::checkpoint(c, p, path) {
        Ok(size) => format!("ok({})", size.as_u64()),
        Err(e) => format!("err({e})"),
    };
    (path.to_string(), outcome)
}

/// One streamed dump: header, two chunks, then the trailer append that
/// carries the padding. `ShortTail` arms its plan just before that
/// last append.
fn streamed(c: &mut Cluster, p: Pid, plan: Plan, seed: u64) -> (String, String) {
    if !matches!(plan, Plan::ShortTail) {
        c.install_faults(plan.build(seed));
    }
    let target = "/local/str.ckpt";
    let mut w = StreamWriter::begin(c, p, target).expect("header append");
    let chunk: Vec<u8> = (0..4096u32).map(|i| (i * 13 + 1) as u8).collect();
    w.append_chunk(c, 0x60, chunk).expect("chunk append");
    w.append_chunk(c, 0x61, vec![0x5a; 1024])
        .expect("chunk append");
    if matches!(plan, Plan::ShortTail) {
        c.install_faults(plan.build(seed));
    }
    let (path, outcome) = match w.finish(c) {
        Ok((size, _)) => (target.to_string(), format!("ok({})", size.as_u64())),
        Err(e) => (w.tmp_path().to_string(), format!("err({e})")),
    };
    (path, outcome)
}

fn describe(kind: &str, plan: Plan, seed: u64) -> String {
    let (mut c, p) = setup();
    let (path, outcome) = match kind {
        "seq" => sequential(&mut c, p, plan, seed),
        _ => streamed(&mut c, p, plan, seed),
    };
    let node = c.node_ids()[0];
    let len = c.file_size_on(node, &path).expect("dump file").as_u64();
    let whole = c.peek_file_on(node, &path).expect("dump file").to_vec();
    assert_eq!(whole.len() as u64, len, "materialised length");
    let log: Vec<String> = c
        .faults()
        .expect("plan installed")
        .log()
        .iter()
        .map(|f| {
            format!(
                "{}@{}:{}",
                f.kind.name(),
                f.at.since(SimTime::ZERO).as_nanos(),
                f.detail
            )
        })
        .collect();
    format!(
        "{kind} {} seed={seed} {outcome} len={len} fnv={:016x} log=[{}]",
        plan.name(),
        fnv1a64(&whole),
        log.join("; ")
    )
}

#[test]
fn write_faults_on_dump_files_replay_byte_identically() {
    let mut got = Vec::new();
    for kind in ["seq", "str"] {
        for plan in [Plan::CorruptAll, Plan::ShortTail, Plan::CorruptPrefix] {
            for seed in SEEDS {
                got.push(describe(kind, plan, seed));
            }
        }
    }
    let want: Vec<&str> = EXPECTED.to_vec();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "case {i}");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "case count; got:\n{}",
        got.join("\n")
    );
}

const EXPECTED: &[&str] = &[
    "seq corrupt_all seed=1 ok(25169995) len=25169995 fnv=cd3ccb431b489b89 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=2 ok(25169995) len=25169995 fnv=e13f62beb33eb495 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=3 ok(25169995) len=25169995 fnv=83745db111cb6ac8 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=5 ok(25169995) len=25169995 fnv=9b52346106d5e41e log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=8 ok(25169995) len=25169995 fnv=b4c1e4640bdba5e5 log=[corrupt_write@0:/local/seq.ckpt: 2 bit flip(s)]",
    "seq corrupt_all seed=13 ok(25169995) len=25169995 fnv=9141f6f803b5505d log=[corrupt_write@0:/local/seq.ckpt: 1 bit flip(s)]",
    "seq corrupt_all seed=21 ok(25169995) len=25169995 fnv=913cb524e9531520 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=34 ok(25169995) len=25169995 fnv=dceed83b99b83e4b log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq short_tail seed=1 ok(25169995) len=14260352 fnv=e930612c4f0d0ed3 log=[short_write@0:/local/seq.ckpt: 14260352/25169995 bytes]",
    "seq short_tail seed=2 ok(25169995) len=14880242 fnv=5f7b0fab6e8da00b log=[short_write@0:/local/seq.ckpt: 14880242/25169995 bytes]",
    "seq short_tail seed=3 ok(25169995) len=2855544 fnv=c3a01390c015ba73 log=[short_write@0:/local/seq.ckpt: 2855544/25169995 bytes]",
    "seq short_tail seed=5 ok(25169995) len=9734949 fnv=5bca7f24f7d16019 log=[short_write@0:/local/seq.ckpt: 9734949/25169995 bytes]",
    "seq short_tail seed=8 ok(25169995) len=15567758 fnv=5d871d1c6672705b log=[short_write@0:/local/seq.ckpt: 15567758/25169995 bytes]",
    "seq short_tail seed=13 ok(25169995) len=19348441 fnv=10615e5b5749b2e9 log=[short_write@0:/local/seq.ckpt: 19348441/25169995 bytes]",
    "seq short_tail seed=21 ok(25169995) len=667518 fnv=2c2042931f6db19b log=[short_write@0:/local/seq.ckpt: 667518/25169995 bytes]",
    "seq short_tail seed=34 ok(25169995) len=13483774 fnv=f8274c15823bbb9b log=[short_write@0:/local/seq.ckpt: 13483774/25169995 bytes]",
    "seq corrupt_prefix seed=1 ok(25169995) len=25169995 fnv=bf138e8d8e05f949 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=2 ok(25169995) len=25169995 fnv=280b83a9a928a7ed log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=3 ok(25169995) len=25169995 fnv=cb3b4591f5db4104 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=5 ok(25169995) len=25169995 fnv=ebddfb5bacfaa23a log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=8 ok(25169995) len=25169995 fnv=798ca2135b178115 log=[corrupt_write@0:/local/seq.ckpt: 2 bit flip(s)]",
    "seq corrupt_prefix seed=13 ok(25169995) len=25169995 fnv=2b12e905c4a15cc5 log=[corrupt_write@0:/local/seq.ckpt: 1 bit flip(s)]",
    "seq corrupt_prefix seed=21 ok(25169995) len=25169995 fnv=a6d685815db73d56 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=34 ok(25169995) len=25169995 fnv=66cfdd2a240f0113 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "str corrupt_all seed=1 ok(25175275) len=25175275 fnv=2db827accad46eac log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=2 ok(25175275) len=25175275 fnv=5375ba88d3342a48 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=3 ok(25175275) len=25175275 fnv=7bb7b7e9f917f89c log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_all seed=5 ok(25175275) len=25175275 fnv=22789178422595c8 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_all seed=8 ok(25175275) len=25175275 fnv=897fceac9a8a6570 log=[corrupt_write@0:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=13 ok(25175275) len=25175275 fnv=66033c0963adbd08 log=[corrupt_write@0:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=21 ok(25175275) len=25175275 fnv=0af7f183d5f96847 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=34 ok(25175275) len=25175275 fnv=9310a1bc1a6457af log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 2 bit flip(s)]",
    "str short_tail seed=1 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=14267416 fnv=528628696ce20d8c log=[short_write@8085436:/local/str.ckpt.tmp: 14258018/25165877 bytes]",
    "str short_tail seed=2 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=14887206 fnv=b2a1b5934b37f9ac log=[short_write@8085436:/local/str.ckpt.tmp: 14877808/25165877 bytes]",
    "str short_tail seed=3 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=2864475 fnv=d32ae4a57a318884 log=[short_write@8085436:/local/str.ckpt.tmp: 2855077/25165877 bytes]",
    "str short_tail seed=5 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=9742755 fnv=36021192edb80504 log=[short_write@8085436:/local/str.ckpt.tmp: 9733357/25165877 bytes]",
    "str short_tail seed=8 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=15574609 fnv=4b39b42a579f9464 log=[short_write@8085436:/local/str.ckpt.tmp: 15565211/25165877 bytes]",
    "str short_tail seed=13 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=19354674 fnv=71622a3b102fcfec log=[short_write@8085436:/local/str.ckpt.tmp: 19345276/25165877 bytes]",
    "str short_tail seed=21 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=676807 fnv=5fbc262a59df0944 log=[short_write@8085436:/local/str.ckpt.tmp: 667409/25165877 bytes]",
    "str short_tail seed=34 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=13490966 fnv=3435e72e32f68eac log=[short_write@8085436:/local/str.ckpt.tmp: 13481568/25165877 bytes]",
    "str corrupt_prefix seed=1 ok(25175275) len=25175275 fnv=99d430f7c8677598 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=2 ok(25175275) len=25175275 fnv=b100f4e29b864f0c log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=3 ok(25175275) len=25175275 fnv=0e3cc43d5462328a log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_prefix seed=5 ok(25175275) len=25175275 fnv=3cc8f1ec024bbd8c log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_prefix seed=8 ok(25175275) len=25175275 fnv=bc864c7561693618 log=[corrupt_write@0:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=13 ok(25175275) len=25175275 fnv=e59fd7b3f07a8a78 log=[corrupt_write@0:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=21 ok(25175275) len=25175275 fnv=cef80559fd754be5 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=34 ok(25175275) len=25175275 fnv=165c9f812f26b333 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 2 bit flip(s)]",
];
