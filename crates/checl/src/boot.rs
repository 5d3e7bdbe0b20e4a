//! OS-level wiring: fork the API proxy and bind libraries.
//!
//! "When the CheCL version library is dynamically loaded by an
//! application program, the OpenCL application is executed by at least
//! two processes, an application process and an API proxy … the API
//! proxy is an OpenCL process, and some special devices are mapped to
//! its memory space. On the other hand, the application process is
//! itself a standard process" (§III-A).

use crate::runtime::{ChecLib, CheclConfig, ProxyLink};
use cldriver::{Driver, VendorConfig};
use clspec::api::ClApi as _;
use osproc::{Cluster, Pid, Pipe};
use simcore::{calib, telemetry};

/// A CheCL shim bound to an application process, with its proxy forked.
pub struct BootedChecl {
    /// The shim (implements `ClApi`).
    pub lib: ChecLib,
    /// The application process.
    pub app_pid: Pid,
}

/// Load the vendor driver into process `host`: its handles carry the
/// host's pid, and its device regions are mapped into the host's
/// address space.
fn load_driver(cluster: &mut Cluster, host: Pid, vendor: VendorConfig) -> Driver {
    let driver = Driver::new(vendor, host);
    let p = cluster.process_mut(host);
    for (device, size) in driver.device_files() {
        p.map_device(device, size);
    }
    driver
}

/// Load the vendor driver into the proxy at `pipe`'s far end and attach
/// it to `lib`, which the application at the near end has loaded as
/// `flavor`.
fn attach(
    cluster: &mut Cluster,
    lib: &mut ChecLib,
    pipe: Pipe,
    vendor: VendorConfig,
    flavor: &str,
) {
    let (app_pid, proxy_pid) = (pipe.a, pipe.b);
    let driver = load_driver(cluster, proxy_pid, vendor);
    if telemetry::enabled() {
        telemetry::name_process(app_pid.0 as u64, &format!("app {app_pid} ({flavor})"));
        telemetry::name_process(
            proxy_pid.0 as u64,
            &format!("api-proxy {proxy_pid} ({})", driver.impl_name()),
        );
    }
    lib.attach_proxy(ProxyLink {
        driver,
        pipe,
        proxy_pid,
    });
}

/// Simulate the application process loading the CheCL `libOpenCL.so`:
/// fork the API proxy, load the vendor driver *in the proxy*, map the
/// device regions into the proxy's address space, and connect the two
/// with a pipe.
///
/// The ~80 ms fork-and-initialise cost shows up once per process
/// lifetime (§IV-A).
pub fn boot_checl(
    cluster: &mut Cluster,
    app_pid: Pid,
    vendor: VendorConfig,
    config: CheclConfig,
) -> BootedChecl {
    let proxy_pid = cluster.fork(app_pid, calib::checl_init_overhead());
    let mut lib = ChecLib::new(config);
    let pipe = Pipe::new(app_pid, proxy_pid);
    attach(cluster, &mut lib, pipe, vendor, "checl");
    BootedChecl { lib, app_pid }
}

/// Boot CheCL with a **remote** API proxy: the proxy process runs on
/// `gpu_node` (where the GPUs actually are) and the application talks
/// to it over TCP instead of a local pipe.
///
/// This is the §V extension the paper sketches: "allowing CheCL wrapper
/// functions to communicate with a remote API proxy via TCP/IP sockets"
/// gives rCUDA-style remote device access for free — the application
/// node needs no GPU, no driver, and remains checkpointable as always.
/// The price is gigabit-Ethernet latency and bandwidth on every call.
pub fn boot_checl_remote(
    cluster: &mut Cluster,
    app_pid: Pid,
    gpu_node: osproc::NodeId,
    vendor: VendorConfig,
    config: CheclConfig,
) -> BootedChecl {
    // The remote proxy is spawned by a daemon on the GPU node rather
    // than forked; connection setup replaces the fork cost.
    let proxy_pid = cluster.spawn(gpu_node);
    cluster.process_mut(app_pid).clock += calib::checl_init_overhead();
    let mut lib = ChecLib::new(config);
    let pipe = Pipe::with_link(app_pid, proxy_pid, calib::gige_link());
    attach(cluster, &mut lib, pipe, vendor, "checl-remote");
    BootedChecl { lib, app_pid }
}

/// Fork a *new* proxy for an existing shim — the restart path: "Fork a
/// new API proxy and recreate OpenCL objects via the new proxy"
/// (§III-C). The shim must currently have no proxy.
pub fn refork_proxy(cluster: &mut Cluster, lib: &mut ChecLib, app_pid: Pid, vendor: VendorConfig) {
    assert!(!lib.has_proxy(), "refork with a live proxy");
    let proxy_pid = cluster.fork(app_pid, calib::checl_init_overhead());
    attach(cluster, lib, Pipe::new(app_pid, proxy_pid), vendor, "checl");
}

/// Simulate the application loading the *native* vendor library
/// directly (no CheCL): the device mappings land in the application
/// process itself, which is exactly why plain BLCR then fails (§II).
pub fn boot_native(cluster: &mut Cluster, app_pid: Pid, vendor: VendorConfig) -> Driver {
    load_driver(cluster, app_pid, vendor)
}

/// Kill the API proxy process and drop its driver (all vendor objects
/// die with it). Used before DMTCP-style tree checkpoints and during
/// migration teardown.
pub fn kill_proxy(cluster: &mut Cluster, lib: &mut ChecLib) {
    if let Some(link) = lib.detach_proxy() {
        cluster.kill(link.proxy_pid);
        // Driver dropped here: the vendor state is gone, exactly as if
        // the process died.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clspec::api::ClApi;
    use clspec::types::DeviceType;
    use clspec::Ocl;
    use simcore::SimDuration;

    #[test]
    fn boot_keeps_app_process_clean() {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app = cluster.spawn(node);
        let booted = boot_checl(
            &mut cluster,
            app,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        // The application process has no device mappings …
        assert!(!cluster.process(app).has_device_mappings());
        // … the proxy does.
        let proxy = booted.lib.proxy_pid().unwrap();
        assert!(cluster.process(proxy).has_device_mappings());
        assert_eq!(cluster.process(proxy).parent, Some(app));
    }

    #[test]
    fn boot_charges_init_overhead() {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app = cluster.spawn(node);
        let before = cluster.process(app).clock;
        boot_checl(
            &mut cluster,
            app,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        let after = cluster.process(app).clock;
        assert_eq!(after.since(before), SimDuration::from_millis(80));
    }

    #[test]
    fn native_boot_poisons_app_process() {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app = cluster.spawn(node);
        let _driver = boot_native(&mut cluster, app, cldriver::vendor::nimbus());
        assert!(cluster.process(app).has_device_mappings());
        // And BLCR refuses it.
        assert!(matches!(
            blcr::checkpoint(&mut cluster, app, "/local/x.ckpt"),
            Err(blcr::CprError::DeviceMapped { .. })
        ));
    }

    #[test]
    fn checl_is_transparent_to_the_app() {
        // The same host code runs against CheCL as against a native
        // driver; only impl_name betrays the difference.
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app = cluster.spawn(node);
        let mut booted = boot_checl(
            &mut cluster,
            app,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        assert!(booted.lib.impl_name().starts_with("CheCL"));
        let mut now = cluster.process(app).clock;
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        let platforms = ocl.get_platform_ids().unwrap();
        let devices = ocl.get_device_ids(platforms[0], DeviceType::Gpu).unwrap();
        let info = ocl.get_device_info(devices[0]).unwrap();
        assert_eq!(info.name, "Tesla C1060");
    }

    #[test]
    fn kill_proxy_detaches_and_kills() {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app = cluster.spawn(node);
        let mut booted = boot_checl(
            &mut cluster,
            app,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        let proxy = booted.lib.proxy_pid().unwrap();
        kill_proxy(&mut cluster, &mut booted.lib);
        assert!(!booted.lib.has_proxy());
        assert!(!cluster.process(proxy).is_alive());
        // Calls now fail cleanly.
        let mut now = simcore::SimTime::ZERO;
        assert!(booted
            .lib
            .call(&mut now, clspec::ApiRequest::GetPlatformIds)
            .is_err());
    }
}

#[cfg(test)]
mod remote_tests {
    use super::*;
    use clspec::types::{DeviceType, MemFlags, NDRange, QueueProps};
    use clspec::Ocl;

    /// Remote proxy: the application node has no GPU; all OpenCL work
    /// happens on the GPU node's proxy over TCP.
    #[test]
    fn remote_proxy_end_to_end() {
        let mut cluster = Cluster::with_standard_nodes(2);
        let nodes = cluster.node_ids();
        let app = cluster.spawn(nodes[0]); // CPU-only front-end node
        let mut booted = boot_checl_remote(
            &mut cluster,
            app,
            nodes[1], // the GPU node
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        let proxy = booted.lib.proxy_pid().unwrap();
        assert_eq!(cluster.process(proxy).node, nodes[1]);
        assert!(!cluster.process(app).has_device_mappings());

        let mut now = cluster.process(app).clock;
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
        let ctx = ocl.create_context(&d).unwrap();
        let q = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let n = 1024u32;
        let data: Vec<u8> = (0..n * 4).map(|i| i as u8).collect();
        let buf = ocl
            .create_buffer(
                ctx,
                MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR,
                (n * 4) as u64,
                Some(data.clone().into()),
            )
            .unwrap();
        let src = clkernels::program_source("null").unwrap().source;
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        ocl.build_program(prog, "").unwrap();
        let k = ocl.create_kernel(prog, "null_kernel").unwrap();
        ocl.set_arg_mem(k, 0, buf).unwrap();
        ocl.enqueue_nd_range(q, k, NDRange::d1(n as u64), None, &[])
            .unwrap();
        ocl.finish(q).unwrap();
        let (back, _) = ocl
            .enqueue_read_buffer(q, buf, true, 0, (n * 4) as u64, &[])
            .unwrap();
        assert_eq!(&back[..], &data[..]);
    }

    /// Remote forwarding costs more than local forwarding for bulk
    /// transfers (gigabit Ethernet vs an in-memory pipe).
    #[test]
    fn remote_proxy_slower_than_local() {
        let run = |remote: bool| {
            let mut cluster = Cluster::with_standard_nodes(2);
            let nodes = cluster.node_ids();
            let app = cluster.spawn(nodes[0]);
            let mut booted = if remote {
                boot_checl_remote(
                    &mut cluster,
                    app,
                    nodes[1],
                    cldriver::vendor::nimbus(),
                    CheclConfig::default(),
                )
            } else {
                boot_checl(
                    &mut cluster,
                    app,
                    cldriver::vendor::nimbus(),
                    CheclConfig::default(),
                )
            };
            let mut now = cluster.process(app).clock;
            let mut ocl = Ocl::new(&mut booted.lib, &mut now);
            let p = ocl.get_platform_ids().unwrap();
            let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
            let ctx = ocl.create_context(&d).unwrap();
            let q = ocl
                .create_command_queue(ctx, d[0], QueueProps::default())
                .unwrap();
            let size = 8u64 << 20;
            let buf = ocl
                .create_buffer(ctx, MemFlags::READ_WRITE, size, None)
                .unwrap();
            let t0 = ocl.now();
            ocl.enqueue_write_buffer(q, buf, true, 0, vec![0u8; size as usize].into(), &[])
                .unwrap();
            ocl.now().since(t0)
        };
        let local = run(false);
        let remote = run(true);
        assert!(
            remote > local * 5,
            "remote {remote} should dwarf local {local} for 8 MB"
        );
    }
}
