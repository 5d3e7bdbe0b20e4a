//! The supervised iterative-MD fixture shared by `ablation_supervisor`,
//! `ablation_obs`, `checl_inspect` and `ablation_gray`.
//!
//! The job is an MD relaxation with one `clFinish` sync per force step
//! — the long-running shape checkpointing exists for, with enough
//! boundaries for an interval policy and a failure detector to act on.
//! The three sweep binaries run it under the same seeds, regimes and
//! supervisor knobs, so their goldens describe one virtual history.

use checl::supervisor::{SupervisorError, SupervisorReport};
use checl::{CheclConfig, CprPolicy, IntervalPolicy, RecoveryPolicy};
use osproc::{Cluster, DetectorPolicy, FaultPlan};
use simcore::obs::{self, Ledger};
use simcore::SimDuration;
use workloads::catalog::B;
use workloads::{
    run_supervised, BufInit, CheclSession, NativeSession, Script, StopCondition, SuperviseSetup,
};

use crate::EvalTarget;

/// Base seed of the fault plans; regime k of a sweep uses `SEED + k`,
/// and each other scenario derives its own plan from it.
pub const SEED: u64 = 20110704;

/// Particles in the iterative MD job (two 12-byte vectors each).
const PARTICLES: u64 = 1 << 16;

/// Relaxation steps of the sweep binaries' job (≈ 0.21 s each).
pub const MD_STEPS: usize = 30;

/// The failure regimes swept: label + mean time between injected proxy
/// deaths, in milliseconds.
pub const REGIMES: [(&str, u64); 3] = [("mild", 10_000), ("harsh", 5_000), ("severe", 4_000)];

/// The iterative job: `steps` MD force evaluations over the fixture's
/// particles, one `clFinish` sync point per step, then a checksum of
/// the forces.
pub fn iterative_md(target: &EvalTarget, steps: usize) -> Script {
    let cfg = target.cfg(1.0);
    let n = PARTICLES;
    let mut b = B::new(&cfg);
    let pos = b.buffer(
        n * 12,
        Some(BufInit::RandomF32 {
            seed: 7,
            lo: 0.0,
            hi: 20.0,
        }),
    );
    let force = b.buffer(n * 12, None);
    let k = b.prog_kernel("md", "md_forces");
    b.arg_mem(k, 0, pos);
    b.arg_mem(k, 1, force);
    b.arg_u32(k, 2, n as u32);
    b.arg_f32(k, 3, 5.0);
    for _ in 0..steps {
        b.launch1(k, n);
        b.finish();
    }
    b.read_checksum(force, n * 12);
    b.build()
}

/// Final buffer checksums of an undisturbed native run of `script` on
/// `vendor` — the ground truth every recovered run must reproduce.
pub fn native_checksums(vendor: cldriver::VendorConfig, script: Script) -> Vec<u64> {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = NativeSession::launch(&mut cluster, node, vendor, script);
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    s.program.checksums
}

/// The supervisor knobs every MD scenario shares: a 400 ms detector
/// over 50 ms heartbeats, intervals clamped to 0.3–8 s from a 5 s MTBF
/// prior, a 200-failure storm backstop, and sequential snapshots with
/// verify/retry. The interval policy is the setup's default,
/// Daly-adaptive.
pub fn md_setup(target: &EvalTarget, primary: &str, mirror: &str) -> SuperviseSetup {
    let mut setup = SuperviseSetup::new((target.vendor)(), primary, mirror);
    setup.config.detector = DetectorPolicy::Timeout(SimDuration::from_millis(400));
    setup.config.heartbeat_every = SimDuration::from_millis(50);
    setup.config.min_interval = SimDuration::from_millis(300);
    setup.config.max_interval = SimDuration::from_secs(8);
    setup.config.initial_mtbf = SimDuration::from_secs(5);
    setup.config.max_failures = 200;
    setup.policy = CprPolicy::sequential().with_recovery(RecoveryPolicy {
        retry: blcr::RetryPolicy::default(),
        fallback_targets: Vec::new(),
    });
    setup
}

/// What one supervised sweep cell leaves behind.
pub struct SupervisedCell {
    /// The cluster, with the vault's replicas on its filesystems.
    pub cluster: Cluster,
    /// The finished session and the supervisor's books, or its typed
    /// escalation.
    pub result: Result<(CheclSession, SupervisorReport), SupervisorError>,
    /// The ledger of the supervised run, when it was recorded.
    pub ledger: Option<Ledger>,
}

impl SupervisedCell {
    /// The cluster, the supervisor's books and the ledger of a cell
    /// that must complete; panics if the supervisor escalated.
    pub fn completed(self) -> (Cluster, SupervisorReport, Option<Ledger>) {
        let report = match self.result {
            Ok((_s, report)) => report,
            Err(e) => panic!("the supervised job must complete: {e:?}"),
        };
        assert!(report.completed);
        (self.cluster, report, self.ledger)
    }
}

/// One cell of a sweep: the [`MD_STEPS`] job on node 0 of a 2-node
/// cluster, supervised under `interval` with node 1 as the spare, while
/// a recurring proxy-death process (`seed`, mean `mtbf_ms`) strikes it.
/// With `record` the ledger records the supervised run.
pub fn supervised_cell(
    target: &EvalTarget,
    seed: u64,
    mtbf_ms: u64,
    interval: IntervalPolicy,
    record: bool,
) -> SupervisedCell {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let session = CheclSession::launch(
        &mut cluster,
        nodes[0],
        (target.vendor)(),
        CheclConfig::default(),
        iterative_md(target, MD_STEPS),
    );
    cluster.install_faults(
        FaultPlan::new(seed).with_proxy_death_rate(SimDuration::from_millis(mtbf_ms)),
    );
    let mut setup = md_setup(target, "/local/md", "/nfs/md");
    setup.interval = interval;
    setup.spares = vec![nodes[1]];
    if record {
        obs::start_recording();
    }
    let result = run_supervised(&mut cluster, session, &setup);
    let ledger = if record { obs::stop_recording() } else { None };
    SupervisedCell {
        cluster,
        result,
        ledger,
    }
}
