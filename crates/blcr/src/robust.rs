//! Robust-commit machinery shared by every checkpoint writer above the
//! raw [`checkpoint`](crate::checkpoint)/[`restart`](crate::restart)
//! primitives.
//!
//! The paper motivates CheCL with fault tolerance (§I, §IV); this
//! module supplies the storage-side skeleton of it, which
//! `checl::snapshot` (with a recovery policy) drives:
//!
//! * **atomic commit** — each attempt writes `<target>.tmp`, which the
//!   caller verifies before one rename publishes it, so a crash or
//!   injected fault mid-write never leaves a half-written file under
//!   the final name;
//! * **bounded retry** — transient I/O failures (disk write faults,
//!   NFS outage windows) are retried with doubling virtual-time
//!   backoff;
//! * **target fallback** — when one mount stays broken, the writer
//!   falls through an ordered list of alternatives (the local → RAM
//!   disk → NFS ordering of Table I).
//!
//! Every recovery action is emitted as a telemetry instant in
//! [`telemetry::RECOVERY_CATEGORY`] ([`recovery_event`]).

use osproc::{Cluster, Pid};
use simcore::{telemetry, ByteSize, SimDuration};

/// Knobs for a robust commit ([`drive_recovery`]): attempts, backoff,
/// and whether the caller verifies each attempt.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts per target before falling through to the next one.
    pub max_attempts_per_target: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub backoff: SimDuration,
    /// Read the file back and validate its checksum before committing.
    pub verify: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts_per_target: 3,
            backoff: SimDuration::from_millis(50),
            verify: true,
        }
    }
}

/// What it took to land a robust checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The committed checkpoint path.
    pub path: String,
    /// Committed file size.
    pub size: ByteSize,
    /// Write attempts, including the successful one.
    pub attempts: u32,
    /// How many targets were abandoned for the next in line.
    pub fallbacks: u32,
    /// Total virtual time the robust write took (including backoff,
    /// verification reads and the commit rename).
    pub elapsed: SimDuration,
}

impl RecoveryOutcome {
    /// `true` if any recovery action (retry or fallback) was needed.
    pub fn recovered(&self) -> bool {
        self.attempts > 1 || self.fallbacks > 0
    }
}

/// Telemetry instant for a recovery action on `path`, mirroring the
/// fault records the injection layer emits; bumps `recovery.actions`.
pub fn recovery_event(cluster: &Cluster, pid: Pid, name: &str, path: &str) {
    if telemetry::enabled() {
        let _scope = telemetry::track_scope(telemetry::Track::process(pid.0 as u64));
        telemetry::instant(
            telemetry::RECOVERY_CATEGORY,
            name,
            cluster.process(pid).clock,
            vec![("path", path.into())],
        );
        telemetry::counter_add("recovery.actions", 1);
    }
}

/// One attempt's outcome inside [`drive_recovery`].
pub enum RecoveryAttempt<T, E> {
    /// The attempt wrote, verified and renamed onto the target; the
    /// driver emits the commit event and stops.
    Committed {
        /// The caller's per-attempt result (e.g. a phase report).
        value: T,
        /// Committed file size, for the [`RecoveryOutcome`].
        size: ByteSize,
    },
    /// Transient failure (I/O fault, verification mismatch): retry this
    /// target, then fall through to the next one.
    Transient(E),
    /// Structural failure: abort the whole recovery immediately.
    Fatal(E),
}

/// The retry/fallback skeleton shared by every robust writer: walk
/// `targets` in order, attempt each up to
/// [`RetryPolicy::max_attempts_per_target`] times with doubling
/// virtual-time backoff, and emit the `recovery.*` telemetry instants
/// (`fallback_target`, `retry_write`, `commit`) at the same points for
/// every caller. The `attempt` closure receives `(cluster, tmp,
/// target)` — with `tmp = "<target>.tmp"` — and owns the write / verify
/// / rename of one attempt; `exhausted` supplies the error when every
/// target fails without a transient error to report.
pub fn drive_recovery<T, E>(
    cluster: &mut Cluster,
    pid: Pid,
    targets: &[&str],
    policy: &RetryPolicy,
    mut attempt: impl FnMut(&mut Cluster, &str, &str) -> RecoveryAttempt<T, E>,
    exhausted: impl FnOnce() -> E,
) -> Result<(T, RecoveryOutcome), E> {
    assert!(!targets.is_empty(), "drive_recovery needs >= 1 target");
    let t_start = cluster.process(pid).clock;
    let mut attempts = 0u32;
    let mut fallbacks = 0u32;
    let mut last_err: Option<E> = None;
    for (ti, target) in targets.iter().enumerate() {
        if ti > 0 {
            fallbacks += 1;
            recovery_event(cluster, pid, "recovery.fallback_target", target);
        }
        let tmp = format!("{target}.tmp");
        for retry in 0..policy.max_attempts_per_target {
            if retry > 0 {
                let wait = policy.backoff * (1u64 << (retry - 1).min(16));
                cluster.process_mut(pid).clock += wait;
                recovery_event(cluster, pid, "recovery.retry_write", target);
            }
            attempts += 1;
            match attempt(cluster, &tmp, target) {
                RecoveryAttempt::Committed { value, size } => {
                    recovery_event(cluster, pid, "recovery.commit", target);
                    let elapsed = cluster.process(pid).clock.since(t_start);
                    return Ok((
                        value,
                        RecoveryOutcome {
                            path: target.to_string(),
                            size,
                            attempts,
                            fallbacks,
                            elapsed,
                        },
                    ));
                }
                RecoveryAttempt::Transient(e) => last_err = Some(e),
                RecoveryAttempt::Fatal(e) => {
                    // A fatal abort must not strand a half-written temp
                    // under the target's name; deleting a non-existent
                    // file is free, so this is pure cleanup.
                    let _ = cluster.delete_file(pid, &tmp);
                    return Err(e);
                }
            }
        }
        // This target is being abandoned (fallback or exhaustion): drop
        // any temp a failed attempt left behind so aborted commits never
        // orphan `.tmp` files.
        let _ = cluster.delete_file(pid, &tmp);
    }
    Err(last_err.unwrap_or_else(exhausted))
}
