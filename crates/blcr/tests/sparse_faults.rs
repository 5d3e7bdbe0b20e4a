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
    "seq corrupt_all seed=1 ok(25169995) len=25169995 fnv=63967b4a0e245bb4 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=2 ok(25169995) len=25169995 fnv=7fb77d7c1f5a68e8 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=3 ok(25169995) len=25169995 fnv=4a8da44bbfd6a775 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=5 ok(25169995) len=25169995 fnv=9581122c2297131f log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=8 ok(25169995) len=25169995 fnv=083618064d34b278 log=[corrupt_write@0:/local/seq.ckpt: 2 bit flip(s)]",
    "seq corrupt_all seed=13 ok(25169995) len=25169995 fnv=9f914f9525b7a6e0 log=[corrupt_write@0:/local/seq.ckpt: 1 bit flip(s)]",
    "seq corrupt_all seed=21 ok(25169995) len=25169995 fnv=513d37e0094303cd log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=34 ok(25169995) len=25169995 fnv=2cbdde23d8070852 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq short_tail seed=1 ok(25169995) len=14260352 fnv=5887e39312646904 log=[short_write@0:/local/seq.ckpt: 14260352/25169995 bytes]",
    "seq short_tail seed=2 ok(25169995) len=14880242 fnv=b737d6d97105eca4 log=[short_write@0:/local/seq.ckpt: 14880242/25169995 bytes]",
    "seq short_tail seed=3 ok(25169995) len=2855544 fnv=f1dca2bebb17d084 log=[short_write@0:/local/seq.ckpt: 2855544/25169995 bytes]",
    "seq short_tail seed=5 ok(25169995) len=9734949 fnv=cf45628165c6028c log=[short_write@0:/local/seq.ckpt: 9734949/25169995 bytes]",
    "seq short_tail seed=8 ok(25169995) len=15567758 fnv=19fcbbc1fadf4e64 log=[short_write@0:/local/seq.ckpt: 15567758/25169995 bytes]",
    "seq short_tail seed=13 ok(25169995) len=19348441 fnv=13e7d6e52466724c log=[short_write@0:/local/seq.ckpt: 19348441/25169995 bytes]",
    "seq short_tail seed=21 ok(25169995) len=667518 fnv=003961469a24d564 log=[short_write@0:/local/seq.ckpt: 667518/25169995 bytes]",
    "seq short_tail seed=34 ok(25169995) len=13483774 fnv=cbd2461253410d64 log=[short_write@0:/local/seq.ckpt: 13483774/25169995 bytes]",
    "seq corrupt_prefix seed=1 ok(25169995) len=25169995 fnv=f9b65d11a028b1c4 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=2 ok(25169995) len=25169995 fnv=35be283adfe43308 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=3 ok(25169995) len=25169995 fnv=a6393b5fe7e51b49 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=5 ok(25169995) len=25169995 fnv=9bfd643c6349f90f log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=8 ok(25169995) len=25169995 fnv=3ae8976d6a5f8d80 log=[corrupt_write@0:/local/seq.ckpt: 2 bit flip(s)]",
    "seq corrupt_prefix seed=13 ok(25169995) len=25169995 fnv=9054ce40b5aedfb8 log=[corrupt_write@0:/local/seq.ckpt: 1 bit flip(s)]",
    "seq corrupt_prefix seed=21 ok(25169995) len=25169995 fnv=331a795de270c873 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=34 ok(25169995) len=25169995 fnv=efd7a51581272b0e log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "str corrupt_all seed=1 ok(25175275) len=25175275 fnv=ec8987485effc8db log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=2 ok(25175275) len=25175275 fnv=ff08fe69edc450e3 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=3 ok(25175275) len=25175275 fnv=93ed231fc8a8ebdb log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_all seed=5 ok(25175275) len=25175275 fnv=7c47db01514948cf log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_all seed=8 ok(25175275) len=25175275 fnv=0fbefdf718bd117f log=[corrupt_write@0:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=13 ok(25175275) len=25175275 fnv=896a90c76f7229f7 log=[corrupt_write@0:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=21 ok(25175275) len=25175275 fnv=ac025ea715d8ccf8 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=34 ok(25175275) len=25175275 fnv=f50a74548b6bf354 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 2 bit flip(s)]",
    "str short_tail seed=1 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=14267416 fnv=44e287dc169344d9 log=[short_write@8085436:/local/str.ckpt.tmp: 14258018/25165877 bytes]",
    "str short_tail seed=2 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=14887206 fnv=ecd1ba49a27a7271 log=[short_write@8085436:/local/str.ckpt.tmp: 14877808/25165877 bytes]",
    "str short_tail seed=3 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=2864475 fnv=d1da090860ad49f3 log=[short_write@8085436:/local/str.ckpt.tmp: 2855077/25165877 bytes]",
    "str short_tail seed=5 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=9742755 fnv=d1fbb66063a4c953 log=[short_write@8085436:/local/str.ckpt.tmp: 9733357/25165877 bytes]",
    "str short_tail seed=8 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=15574609 fnv=e61fc7702085f65b log=[short_write@8085436:/local/str.ckpt.tmp: 15565211/25165877 bytes]",
    "str short_tail seed=13 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=19354674 fnv=76917730b3c90421 log=[short_write@8085436:/local/str.ckpt.tmp: 19345276/25165877 bytes]",
    "str short_tail seed=21 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=676807 fnv=036c2a38cc1cb583 log=[short_write@8085436:/local/str.ckpt.tmp: 667409/25165877 bytes]",
    "str short_tail seed=34 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=13490966 fnv=d5a590a1adff9631 log=[short_write@8085436:/local/str.ckpt.tmp: 13481568/25165877 bytes]",
    "str corrupt_prefix seed=1 ok(25175275) len=25175275 fnv=04284b4e77ef5c0b log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=2 ok(25175275) len=25175275 fnv=d82ee657cdc814db log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=3 ok(25175275) len=25175275 fnv=dedf6d554da46899 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_prefix seed=5 ok(25175275) len=25175275 fnv=6a7adaac1be1264f log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_prefix seed=8 ok(25175275) len=25175275 fnv=64940c873fc1b20f log=[corrupt_write@0:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=13 ok(25175275) len=25175275 fnv=686d7c3f7e76e18f log=[corrupt_write@0:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=21 ok(25175275) len=25175275 fnv=8432fd2523b1654a log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=34 ok(25175275) len=25175275 fnv=868ce9ca17603e54 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 2 bit flip(s)]",
];
