//! CheCL-level recovery actions, layered over the [`crate::engine`]
//! the way [`blcr::robust`](blcr) layers over raw BLCR. Robust
//! checkpointing itself (verify, retry, target fallback) is a
//! [`CprPolicy`](crate::CprPolicy) field — [`crate::snapshot`] with
//! `.with_recovery(..)`; this module holds the two restart-side actions:
//!
//! * **proxy respawn** — [`respawn_proxy_and_restore`] recovers from
//!   API-proxy death or a broken app↔proxy pipe *without* restarting
//!   the application process: fork a new proxy and re-create the object
//!   graph from the last good checkpoint (§III-C's restart procedure,
//!   applied in place);
//! * **restart chains** — [`restart_checl_chain`] walks a newest-first
//!   list of checkpoint files and restarts from the newest one that is
//!   readable, uncorrupted and carries a decodable CheCL state.
//!
//! Every recovery action is a telemetry instant in
//! [`telemetry::RECOVERY_CATEGORY`], or — for a proxy respawn — the
//! `"recovery"` restore records, mirroring the fault records the
//! injection layer emits: a trace shows cause and response side by
//! side.

use crate::boot::{kill_proxy, refork_proxy};
use crate::cpr::{restore_checl, CheclCprError, RestoreReport, RestoreTarget};
use crate::engine;
use crate::runtime::ChecLib;
use blcr::{recovery_event, CprError};
use cldriver::VendorConfig;
use osproc::{Cluster, NodeId, Pid};
use simcore::{obs, telemetry};

/// Recover from API-proxy death or a broken app↔proxy pipe *without*
/// restarting the application process.
///
/// The vendor-side state newer than `last_ckpt` died with the proxy, so
/// the shim is rolled back to the object database dumped in that
/// checkpoint (the application's own rollback — re-running from the
/// checkpointed program counter — is the caller's job, e.g.
/// `CheclSession::run_with_recovery`). Then the §III-C restart
/// procedure runs in place: fork a new proxy, re-create every object,
/// upload the saved buffer contents.
pub fn respawn_proxy_and_restore(
    cluster: &mut Cluster,
    lib: &mut ChecLib,
    app_pid: Pid,
    last_ckpt: &str,
    vendor: VendorConfig,
    target: RestoreTarget,
) -> Result<RestoreReport, CheclCprError> {
    let t0 = cluster.process(app_pid).clock;
    obs::emit(
        "recovery",
        t0,
        obs::EventKind::RestoreStarted {
            path: last_ckpt.to_string(),
            format: "respawn".to_string(),
        },
    );
    // The old proxy is dead or unreachable either way; make it official.
    kill_proxy(cluster, lib);
    let bytes = cluster
        .read_file(app_pid, last_ckpt)
        .map_err(|e| CheclCprError::Cpr(CprError::Fs(e)))?;
    let dump = blcr::sniff_dump(&bytes).map_err(|e| CheclCprError::Cpr(CprError::Corrupt(e)))?;
    *lib = engine::shim_from_dump_on(cluster, app_pid, dump)?;
    refork_proxy(cluster, lib, app_pid, vendor);
    let mut now = cluster.process(app_pid).clock;
    let report = match restore_checl(lib, &mut now, target) {
        Ok(r) => r,
        Err(e) => {
            cluster.process_mut(app_pid).clock = now;
            kill_proxy(cluster, lib);
            return Err(e);
        }
    };
    cluster.process_mut(app_pid).clock = now;
    obs::emit(
        "recovery",
        now,
        obs::EventKind::RestoreCompleted {
            path: last_ckpt.to_string(),
            objects: report.counts.values().map(|&n| n as u64).sum(),
            cost_ns: now.since(t0).as_nanos(),
        },
    );
    Ok(report)
}

/// Restart a CheCL process from the newest good checkpoint in `paths`
/// (newest first), each through [`engine::restore`], so a chain may mix
/// every dump format. Unreadable, corrupt or state-less files are skipped
/// with a telemetry note; host-degradation errors ([`NoSuchDevice`])
/// are fatal — an older checkpoint cannot conjure a device the restore
/// host does not have.
///
/// [`NoSuchDevice`]: CheclCprError::NoSuchDevice
pub fn restart_checl_chain(
    cluster: &mut Cluster,
    node: NodeId,
    paths: &[&str],
    vendor: &VendorConfig,
    target: RestoreTarget,
) -> Result<(ChecLib, Pid, RestoreReport, usize), CheclCprError> {
    assert!(!paths.is_empty(), "restart_checl_chain needs >= 1 path");
    let mut last_err: Option<CheclCprError> = None;
    for (i, path) in paths.iter().enumerate() {
        match engine::restore(cluster, node, path, vendor.clone(), target) {
            Ok((lib, pid, report)) => {
                if i > 0 {
                    recovery_event(cluster, pid, "recovery.restart_fallback", path);
                }
                return Ok((lib, pid, report, i));
            }
            Err(
                e @ (CheclCprError::Cpr(CprError::Corrupt(_) | CprError::Fs(_))
                | CheclCprError::BadState(_)
                | CheclCprError::MissingState),
            ) => {
                if telemetry::enabled() {
                    let _scope = telemetry::track_scope(telemetry::Track::CLUSTER);
                    telemetry::instant(
                        telemetry::RECOVERY_CATEGORY,
                        "recovery.skip_checkpoint",
                        simcore::SimTime::ZERO,
                        vec![("path", (*path).into()), ("error", e.to_string().into())],
                    );
                }
                last_err = Some(e);
            }
            Err(fatal) => return Err(fatal),
        }
    }
    Err(last_err.expect("loop ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::boot_checl;
    use crate::engine::{snapshot, CprPolicy, RecoveryPolicy};
    use crate::objects::ObjectRecord;
    use crate::runtime::CheclConfig;
    use blcr::RetryPolicy;
    use clspec::handles::HandleKind;
    use clspec::types::{DeviceType, MemFlags, QueueProps};
    use clspec::Ocl;
    use osproc::FaultPlan;
    use simcore::SimDuration;

    /// Boot a CheCL app with one context, one queue and one buffer
    /// holding `data`.
    fn booted_app(data: &[u8]) -> (Cluster, ChecLib, Pid, u64) {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app = cluster.spawn(node);
        let mut booted = boot_checl(
            &mut cluster,
            app,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        let mut now = cluster.process(app).clock;
        let buf = {
            let mut ocl = Ocl::new(&mut booted.lib, &mut now);
            let p = ocl.get_platform_ids().unwrap();
            let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
            let ctx = ocl.create_context(&d).unwrap();
            let _q = ocl
                .create_command_queue(ctx, d[0], QueueProps::default())
                .unwrap();
            ocl.create_buffer(
                ctx,
                MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR,
                data.len() as u64,
                Some(data.to_vec().into()),
            )
            .unwrap()
        };
        cluster.process_mut(app).clock = now;
        (cluster, booted.lib, app, buf.raw().0)
    }

    /// The sequential engine with commit hardening: `fallbacks` are
    /// tried in order after the primary path fails persistently.
    fn hardened(fallbacks: &[&str]) -> CprPolicy {
        CprPolicy::sequential().with_recovery(RecoveryPolicy {
            retry: RetryPolicy::default(),
            fallback_targets: fallbacks.iter().map(|t| t.to_string()).collect(),
        })
    }

    fn read_buffer(cluster: &Cluster, lib: &mut ChecLib, app: Pid, buf: u64, len: u64) -> Vec<u8> {
        let mut now = cluster.process(app).clock;
        let (_q_checl, q_vendor) = lib
            .db
            .live_of_kind(HandleKind::CommandQueue)
            .map(|e| (e.checl, e.vendor))
            .next()
            .unwrap();
        let v_mem = lib.db.vendor_of(buf).unwrap();
        let (data, _ev) = lib
            .forward(
                &mut now,
                clspec::ApiRequest::EnqueueReadBuffer {
                    queue: clspec::handles::CommandQueue::from_raw(q_vendor),
                    mem: clspec::handles::Mem::from_raw(v_mem),
                    blocking: true,
                    offset: 0,
                    size: len,
                    wait_list: vec![],
                },
            )
            .unwrap()
            .into_data_event()
            .unwrap();
        data.into_vec()
    }

    /// Temp files left anywhere on `app`'s node.
    fn stray_temps(cluster: &Cluster, app: Pid) -> Vec<String> {
        cluster
            .paths_on(cluster.process(app).node)
            .into_iter()
            .filter(|f| f.ends_with(".tmp"))
            .collect()
    }

    /// The committed file at `path` sniffs as a well-formed dump.
    fn committed_dump_is_whole(cluster: &mut Cluster, app: Pid, path: &str) -> bool {
        let bytes = cluster.read_file(app, path).unwrap();
        blcr::sniff_dump(&bytes).is_ok()
    }

    #[test]
    fn clean_run_commits_first_try() {
        let (mut cluster, mut lib, app, _) = booted_app(&[7u8; 256]);
        let out = snapshot(&mut lib, &mut cluster, app, "/local/a.ckpt", &hardened(&[]))
            .unwrap()
            .recovery
            .unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.fallbacks, 0);
        assert!(!out.recovered());
        assert_eq!(out.path, "/local/a.ckpt");
        // Committed under the final name at the reported size, no stray
        // temp file.
        let node = cluster.process(app).node;
        assert_eq!(cluster.file_size_on(node, "/local/a.ckpt"), Some(out.size));
        assert!(cluster.read_file(app, "/local/a.ckpt.tmp").is_err());
    }

    #[test]
    fn disk_faults_are_retried_and_saved_in_points_at_final_name() {
        let (mut cluster, mut lib, app, buf) = booted_app(&[3u8; 256]);
        cluster.install_faults(FaultPlan::new(11).fail_next_writes(2));
        let out = snapshot(&mut lib, &mut cluster, app, "/local/a.ckpt", &hardened(&[]))
            .unwrap()
            .recovery
            .unwrap();
        assert_eq!(out.attempts, 3);
        assert!(out.recovered());
        assert!(committed_dump_is_whole(&mut cluster, app, "/local/a.ckpt"));
        let entry = lib.db.get(buf).unwrap();
        match &entry.record {
            ObjectRecord::Mem { saved_in, .. } => {
                assert_eq!(saved_in.as_deref(), Some("/local/a.ckpt"));
            }
            _ => panic!("not a mem"),
        }
    }

    #[test]
    fn persistent_failure_falls_to_next_target() {
        let (mut cluster, mut lib, app, _) = booted_app(&[1u8; 128]);
        cluster.install_faults(
            FaultPlan::new(12)
                .fail_next_writes(u32::MAX)
                .only_paths_containing("/local/"),
        );
        let out = snapshot(
            &mut lib,
            &mut cluster,
            app,
            "/local/a.ckpt",
            &hardened(&["/ram/a.ckpt"]),
        )
        .unwrap()
        .recovery
        .unwrap();
        assert_eq!(out.path, "/ram/a.ckpt");
        assert_eq!(out.fallbacks, 1);
        assert_eq!(out.attempts, 4); // 3 on /local + 1 on /ram
    }

    #[test]
    fn short_write_is_caught_by_verify() {
        let (mut cluster, mut lib, app, _) = booted_app(&[6u8; 128]);
        // The sequential write is stored short without an error; only
        // the read-back can notice.
        cluster.install_faults(FaultPlan::new(15).short_next_writes(1));
        let out = snapshot(&mut lib, &mut cluster, app, "/ram/a.ckpt", &hardened(&[]))
            .unwrap()
            .recovery
            .unwrap();
        assert_eq!(out.attempts, 2, "verify must have rejected attempt 1");
        assert!(committed_dump_is_whole(&mut cluster, app, "/ram/a.ckpt"));
    }

    #[test]
    fn all_targets_exhausted_reports_last_error() {
        let (mut cluster, mut lib, app, _) = booted_app(&[2u8; 128]);
        cluster.install_faults(FaultPlan::new(16).fail_next_writes(u32::MAX));
        let policy = CprPolicy::sequential().with_recovery(RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts_per_target: 2,
                ..RetryPolicy::default()
            },
            fallback_targets: vec!["/ram/a.ckpt".to_string()],
        });
        let err = snapshot(&mut lib, &mut cluster, app, "/local/a.ckpt", &policy).unwrap_err();
        assert!(
            matches!(
                err,
                CheclCprError::Cpr(CprError::Fs(osproc::FsError::WriteFailed(_)))
            ),
            "got {err}"
        );
        assert!(stray_temps(&cluster, app).is_empty());
    }

    #[test]
    fn backoff_charges_virtual_time() {
        let elapsed = |faults: Option<FaultPlan>| {
            let (mut cluster, mut lib, app, _) = booted_app(&[4u8; 128]);
            if let Some(plan) = faults {
                cluster.install_faults(plan);
            }
            let t0 = cluster.process(app).clock;
            snapshot(&mut lib, &mut cluster, app, "/ram/a.ckpt", &hardened(&[])).unwrap();
            cluster.process(app).clock.since(t0)
        };
        let clean = elapsed(None);
        let faulted = elapsed(Some(FaultPlan::new(17).fail_next_writes(2)));
        // Two retries: 50 ms + 100 ms of backoff plus the failed
        // attempts' latency.
        assert!(
            faulted.as_secs_f64() > clean.as_secs_f64() + 0.149,
            "faulted {faulted} vs clean {clean}"
        );
    }

    /// When the first attempt's write at `target` is submitted, from a
    /// fault-free dry run of the same app.
    fn first_write_at(data: &[u8], target: &str) -> simcore::SimTime {
        let (mut cluster, mut lib, app, _) = booted_app(data);
        let t0 = cluster.process(app).clock;
        let report = snapshot(&mut lib, &mut cluster, app, target, &hardened(&[]))
            .unwrap()
            .report;
        t0 + report.sync + report.preprocess
    }

    /// An NFS outage that opens one tick after the first write to
    /// `/nfs/a.ckpt` is submitted: that write lands (creating the
    /// temp), its verify read-back fails, and every retry's write
    /// fails — the recipe for an orphaned `.tmp` on fallback.
    fn outage_after_first_write(data: &[u8]) -> FaultPlan {
        let at = first_write_at(data, "/nfs/a.ckpt");
        FaultPlan::new(18).schedule_nfs_outage(
            at + SimDuration::from_nanos(1),
            at + SimDuration::from_secs(3600),
        )
    }

    #[test]
    fn no_tmp_files_survive_a_failed_commit() {
        let data = [8u8; 128];
        let (mut cluster, mut lib, app, _) = booted_app(&data);
        cluster.install_faults(outage_after_first_write(&data));
        let out = snapshot(
            &mut lib,
            &mut cluster,
            app,
            "/nfs/a.ckpt",
            &hardened(&["/local/a.ckpt"]),
        )
        .unwrap()
        .recovery
        .unwrap();
        assert_eq!(out.path, "/local/a.ckpt");
        assert_eq!(out.fallbacks, 1);
        let strays = stray_temps(&cluster, app);
        assert!(strays.is_empty(), "orphaned temp files: {strays:?}");
    }

    #[test]
    fn exhausted_recovery_leaves_no_tmp_behind() {
        // Same shape with no healthy fallback: the whole recovery fails,
        // which must still not orphan temps.
        let data = [8u8; 128];
        let (mut cluster, mut lib, app, _) = booted_app(&data);
        cluster.install_faults(outage_after_first_write(&data));
        let err = snapshot(&mut lib, &mut cluster, app, "/nfs/a.ckpt", &hardened(&[])).unwrap_err();
        assert!(
            matches!(err, CheclCprError::Cpr(CprError::Fs(_))),
            "got {err}"
        );
        let strays = stray_temps(&cluster, app);
        assert!(strays.is_empty(), "orphaned temp files: {strays:?}");
    }

    #[test]
    fn corrupted_write_is_rejected_and_rewritten() {
        let (mut cluster, mut lib, app, _) = booted_app(&[5u8; 128]);
        cluster.install_faults(
            FaultPlan::new(13)
                .corrupt_next_writes(1)
                .corrupt_in_prefix(64),
        );
        let out = snapshot(&mut lib, &mut cluster, app, "/local/a.ckpt", &hardened(&[]))
            .unwrap()
            .recovery
            .unwrap();
        assert!(out.attempts >= 2, "verify must have rejected attempt 1");
        // The committed file restores.
        let node = cluster.process(app).node;
        let vendor = cldriver::vendor::nimbus();
        engine::restore(
            &mut cluster,
            node,
            "/local/a.ckpt",
            vendor,
            RestoreTarget::default(),
        )
        .unwrap();
    }

    #[test]
    fn proxy_death_recovers_buffer_contents() {
        let data: Vec<u8> = (0..512u32).map(|i| (i * 7) as u8).collect();
        let (mut cluster, mut lib, app, buf) = booted_app(&data);
        snapshot(&mut lib, &mut cluster, app, "/local/a.ckpt", &hardened(&[])).unwrap();
        // The proxy dies; the pipe breaks with it.
        let proxy = lib.proxy_pid().unwrap();
        cluster.kill(proxy);
        lib.break_pipe();
        let mut now = cluster.process(app).clock;
        assert!(lib
            .forward(&mut now, clspec::ApiRequest::GetPlatformIds)
            .is_err());
        respawn_proxy_and_restore(
            &mut cluster,
            &mut lib,
            app,
            "/local/a.ckpt",
            cldriver::vendor::nimbus(),
            RestoreTarget::default(),
        )
        .unwrap();
        assert!(lib.has_proxy());
        assert!(!lib.pipe_broken());
        let back = read_buffer(&cluster, &mut lib, app, buf, data.len() as u64);
        assert_eq!(back, data, "buffer contents must match the checkpoint");
    }

    #[test]
    fn restart_chain_skips_corrupt_newest() {
        let (mut cluster, mut lib, app, buf) = booted_app(&[42u8; 64]);
        let node = cluster.process(app).node;
        snapshot(
            &mut lib,
            &mut cluster,
            app,
            "/local/old.ckpt",
            &CprPolicy::sequential(),
        )
        .unwrap();
        // Newest checkpoint lands corrupted in the live frame region.
        cluster.install_faults(
            FaultPlan::new(14)
                .corrupt_next_writes(1)
                .corrupt_in_prefix(64),
        );
        snapshot(
            &mut lib,
            &mut cluster,
            app,
            "/local/new.ckpt",
            &CprPolicy::sequential(),
        )
        .unwrap();
        let vendor = cldriver::vendor::nimbus();
        let (mut restored, pid, _, idx) = restart_checl_chain(
            &mut cluster,
            node,
            &["/local/new.ckpt", "/local/old.ckpt"],
            &vendor,
            RestoreTarget::default(),
        )
        .unwrap();
        assert_eq!(idx, 1, "should have fallen back to the old file");
        let back = read_buffer(&cluster, &mut restored, pid, buf, 64);
        assert_eq!(back, vec![42u8; 64]);
    }

    #[test]
    fn restart_chain_restores_streamed_generations() {
        let (mut cluster, mut lib, app, buf) = booted_app(&[42u8; 64]);
        let node = cluster.process(app).node;
        let pipelined = CprPolicy::pipelined();
        snapshot(&mut lib, &mut cluster, app, "/local/old.ckpt", &pipelined).unwrap();
        // The newest generation holds different bytes, then rots on
        // disk inside its header frame.
        {
            let mut now = cluster.process(app).clock;
            let queue = lib
                .db
                .live_of_kind(HandleKind::CommandQueue)
                .next()
                .unwrap()
                .checl;
            let mut ocl = Ocl::new(&mut lib, &mut now);
            ocl.enqueue_write_buffer(
                clspec::handles::CommandQueue::from_raw(clspec::RawHandle(queue)),
                clspec::handles::Mem::from_raw(clspec::RawHandle(buf)),
                true,
                0,
                vec![7u8; 64].into(),
                &[],
            )
            .unwrap();
            cluster.process_mut(app).clock = now;
        }
        snapshot(&mut lib, &mut cluster, app, "/local/new.ckpt", &pipelined).unwrap();
        let mut bytes = cluster.read_file(app, "/local/new.ckpt").unwrap();
        bytes.flip(64, 0xff);
        cluster.write_file(app, "/local/new.ckpt", bytes).unwrap();

        let vendor = cldriver::vendor::nimbus();
        let (mut restored, pid, _, idx) = restart_checl_chain(
            &mut cluster,
            node,
            &["/local/new.ckpt", "/local/old.ckpt"],
            &vendor,
            RestoreTarget::default(),
        )
        .unwrap();
        assert_eq!(idx, 1, "should have fallen back to the older generation");
        let back = read_buffer(&cluster, &mut restored, pid, buf, 64);
        assert_eq!(back, vec![42u8; 64]);
    }

    #[test]
    fn restart_chain_all_bad_errors_cleanly() {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let writer = cluster.spawn(node);
        cluster
            .write_file(writer, "/local/junk.ckpt", vec![0u8; 64])
            .unwrap();
        let err = match restart_checl_chain(
            &mut cluster,
            node,
            &["/local/junk.ckpt", "/local/none.ckpt"],
            &cldriver::vendor::nimbus(),
            RestoreTarget::default(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("a chain of bad files must not restart"),
        };
        assert!(
            matches!(
                err,
                CheclCprError::Cpr(CprError::Fs(_) | CprError::Corrupt(_))
            ),
            "got {err}"
        );
        // No leaked live processes from the failed attempts.
        let alive = cluster
            .pids()
            .iter()
            .filter(|q| cluster.process(**q).is_alive())
            .count();
        assert_eq!(alive, 1, "only the writer process should be alive");
    }

    #[test]
    fn restart_chain_degraded_host_is_fatal_not_skipped() {
        let (mut cluster, mut lib, app, _) = booted_app(&[9u8; 64]);
        let node = cluster.process(app).node;
        snapshot(
            &mut lib,
            &mut cluster,
            app,
            "/local/a.ckpt",
            &CprPolicy::sequential(),
        )
        .unwrap();
        snapshot(
            &mut lib,
            &mut cluster,
            app,
            "/local/b.ckpt",
            &CprPolicy::sequential(),
        )
        .unwrap();
        let headless = cldriver::vendor::headless();
        let err = match restart_checl_chain(
            &mut cluster,
            node,
            &["/local/b.ckpt", "/local/a.ckpt"],
            &headless,
            RestoreTarget::default(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("restart on a headless host must fail"),
        };
        assert!(
            matches!(err, CheclCprError::NoSuchDevice { available: 0, .. }),
            "got {err}"
        );
    }
}
