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
    "seq corrupt_all seed=1 ok(25169995) len=25169995 fnv=3334ef0f1cc07630 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=2 ok(25169995) len=25169995 fnv=6925c8091a2c001c log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=3 ok(25169995) len=25169995 fnv=e128ba969c365fe1 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=5 ok(25169995) len=25169995 fnv=e654894a6e25e1ab log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=8 ok(25169995) len=25169995 fnv=65c256cd278def0c log=[corrupt_write@0:/local/seq.ckpt: 2 bit flip(s)]",
    "seq corrupt_all seed=13 ok(25169995) len=25169995 fnv=ce671f3e4f0afaa4 log=[corrupt_write@0:/local/seq.ckpt: 1 bit flip(s)]",
    "seq corrupt_all seed=21 ok(25169995) len=25169995 fnv=42f9d3171429e6f9 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_all seed=34 ok(25169995) len=25169995 fnv=1e7a795ae2edeb7e log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq short_tail seed=1 ok(25169995) len=14260352 fnv=3fdd3bb542465e08 log=[short_write@0:/local/seq.ckpt: 14260352/25169995 bytes]",
    "seq short_tail seed=2 ok(25169995) len=14880242 fnv=37d989b6d7584548 log=[short_write@0:/local/seq.ckpt: 14880242/25169995 bytes]",
    "seq short_tail seed=3 ok(25169995) len=2855544 fnv=371b9cb23a93ad08 log=[short_write@0:/local/seq.ckpt: 2855544/25169995 bytes]",
    "seq short_tail seed=5 ok(25169995) len=9734949 fnv=8477107dd70b2918 log=[short_write@0:/local/seq.ckpt: 9734949/25169995 bytes]",
    "seq short_tail seed=8 ok(25169995) len=15567758 fnv=fbc64b433a4848c8 log=[short_write@0:/local/seq.ckpt: 15567758/25169995 bytes]",
    "seq short_tail seed=13 ok(25169995) len=19348441 fnv=67234caa91734898 log=[short_write@0:/local/seq.ckpt: 19348441/25169995 bytes]",
    "seq short_tail seed=21 ok(25169995) len=667518 fnv=e6eb328d55c856c8 log=[short_write@0:/local/seq.ckpt: 667518/25169995 bytes]",
    "seq short_tail seed=34 ok(25169995) len=13483774 fnv=0a7b473e7fa8c6c8 log=[short_write@0:/local/seq.ckpt: 13483774/25169995 bytes]",
    "seq corrupt_prefix seed=1 ok(25169995) len=25169995 fnv=88996473b4113970 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=2 ok(25169995) len=25169995 fnv=4283dca91687c17c log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=3 ok(25169995) len=25169995 fnv=1a9972405feccbad log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=5 ok(25169995) len=25169995 fnv=3a8cdb73b86e84e3 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=8 ok(25169995) len=25169995 fnv=93cd237a10d00744 log=[corrupt_write@0:/local/seq.ckpt: 2 bit flip(s)]",
    "seq corrupt_prefix seed=13 ok(25169995) len=25169995 fnv=6a91748e306b6734 log=[corrupt_write@0:/local/seq.ckpt: 1 bit flip(s)]",
    "seq corrupt_prefix seed=21 ok(25169995) len=25169995 fnv=b389fe72ba741197 log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "seq corrupt_prefix seed=34 ok(25169995) len=25169995 fnv=67fc74920afc64ce log=[corrupt_write@0:/local/seq.ckpt: 3 bit flip(s)]",
    "str corrupt_all seed=1 ok(25175275) len=25175275 fnv=e0a197803d40de6f log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=2 ok(25175275) len=25175275 fnv=2dea38f97beb37c7 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=3 ok(25175275) len=25175275 fnv=a1c9e6142db54f33 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_all seed=5 ok(25175275) len=25175275 fnv=e9010ad92a6282d7 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_all seed=8 ok(25175275) len=25175275 fnv=3457758baa02c0c7 log=[corrupt_write@0:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=13 ok(25175275) len=25175275 fnv=a4e68c61cbd08677 log=[corrupt_write@0:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=21 ok(25175275) len=25175275 fnv=57cc5d7c0a90a88c log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_all seed=34 ok(25175275) len=25175275 fnv=8a1649f36c69c36c log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 2 bit flip(s)]",
    "str short_tail seed=1 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=14267416 fnv=06d2f50be514a2a1 log=[short_write@8085436:/local/str.ckpt.tmp: 14258018/25165877 bytes]",
    "str short_tail seed=2 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=14887206 fnv=595f7fe4efdd24f9 log=[short_write@8085436:/local/str.ckpt.tmp: 14877808/25165877 bytes]",
    "str short_tail seed=3 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=2864475 fnv=9b64fc09ca8c568b log=[short_write@8085436:/local/str.ckpt.tmp: 2855077/25165877 bytes]",
    "str short_tail seed=5 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=9742755 fnv=246411046c2670eb log=[short_write@8085436:/local/str.ckpt.tmp: 9733357/25165877 bytes]",
    "str short_tail seed=8 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=15574609 fnv=8a2eb7c7c8487e33 log=[short_write@8085436:/local/str.ckpt.tmp: 15565211/25165877 bytes]",
    "str short_tail seed=13 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=19354674 fnv=d461d0a3b6619429 log=[short_write@8085436:/local/str.ckpt.tmp: 19345276/25165877 bytes]",
    "str short_tail seed=21 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=676807 fnv=94417c86f1ac8e9b log=[short_write@8085436:/local/str.ckpt.tmp: 667409/25165877 bytes]",
    "str short_tail seed=34 err(checkpoint I/O failed: write failed: /local/str.ckpt.tmp) len=13490966 fnv=3539878b4e03a6b9 log=[short_write@8085436:/local/str.ckpt.tmp: 13481568/25165877 bytes]",
    "str corrupt_prefix seed=1 ok(25175275) len=25175275 fnv=ad36e278d57e7dc7 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=2 ok(25175275) len=25175275 fnv=5b409b3423b179e7 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=3 ok(25175275) len=25175275 fnv=8b1e1d1924fbd529 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_prefix seed=5 ok(25175275) len=25175275 fnv=3e4af5a1c722ed4f log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 3 bit flip(s)]",
    "str corrupt_prefix seed=8 ok(25175275) len=25175275 fnv=8fb868465644e5ef log=[corrupt_write@0:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=13 ok(25175275) len=25175275 fnv=a9199046c23dcbe7 log=[corrupt_write@0:/local/str.ckpt.tmp: 1 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=21 ok(25175275) len=25175275 fnv=884892a17a10d1c6 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 1 bit flip(s)]",
    "str corrupt_prefix seed=34 ok(25175275) len=25175275 fnv=6b60504aeb801d64 log=[corrupt_write@0:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8037927:/local/str.ckpt.tmp: 2 bit flip(s); corrupt_write@8075645:/local/str.ckpt.tmp: 3 bit flip(s); corrupt_write@8085436:/local/str.ckpt.tmp: 2 bit flip(s)]",
];
