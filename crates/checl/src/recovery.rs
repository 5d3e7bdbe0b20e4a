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
use crate::engine::{self, recovery_event};
use crate::runtime::ChecLib;
use blcr::CprError;
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
                Some(data.to_vec()),
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
        data
    }

    #[test]
    fn clean_run_commits_first_try() {
        let (mut cluster, mut lib, app, _) = booted_app(&[7u8; 256]);
        let out = snapshot(&mut lib, &mut cluster, app, "/local/a.ckpt", &hardened(&[]))
            .unwrap()
            .recovery
            .unwrap();
        assert!(!out.recovered());
        assert_eq!(out.path, "/local/a.ckpt");
        // Committed under the final name, no stray temp file.
        assert!(cluster.read_file(app, "/local/a.ckpt").is_ok());
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
                vec![7u8; 64],
                &[],
            )
            .unwrap();
            cluster.process_mut(app).clock = now;
        }
        snapshot(&mut lib, &mut cluster, app, "/local/new.ckpt", &pipelined).unwrap();
        let mut bytes = cluster.read_file(app, "/local/new.ckpt").unwrap();
        bytes[64] ^= 0xff;
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
