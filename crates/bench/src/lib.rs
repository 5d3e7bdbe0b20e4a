//! `checl-bench` — harnesses that regenerate every table and figure of
//! the paper's evaluation (§IV).
//!
//! One binary per artifact:
//!
//! | binary                  | artifact |
//! |-------------------------|----------|
//! | `table1`                | Table I system specifications |
//! | `fig4_fig8`             | Fig. 4 runtime overhead of CheCL vs native, and Fig. 8 migration cost, actual vs predicted, from one CheCL run and one migration per program |
//! | `fig5_fig7`             | Fig. 5 checkpoint phase breakdown + file sizes, and Fig. 7 object-recreation breakdown, from one checkpoint and restart per program |
//! | `fig6_mpi`              | Fig. 6 MPI MD global-snapshot times |
//! | `ablation_modes`        | §III-C delayed vs immediate checkpointing |
//! | `ablation_incremental`  | §IV-D incremental checkpointing (future work) |
//! | `ablation_procsel`      | §IV-C runtime processor selection via RAM disk |
//! | `ablation_hostptr`      | §IV-D CL_MEM_USE_HOST_PTR degradation |
//! | `ablation_remote`       | §V local vs remote API proxy |
//! | `ablation_faults`       | fault injection + recovery, one scenario per fault class |
//! | `ablation_pipeline`     | pipelined vs sequential checkpoint engine |
//! | `ablation_dedup`        | content-addressed dedup in the streamed dump path |
//! | `ablation_live`         | live copy-on-write checkpointing: stall vs drain |
//! | `ablation_supervisor`   | self-healing supervisor: interval policy × failure rate, vault scrub |
//! | `ablation_obs`          | the event ledger costs zero virtual time; event census |
//! | `ablation_gray`         | gray and correlated faults, fleet backpressure, crash-point torture |
//! | `checl_inspect`         | fleet health report folded from the event ledger alone |
//! | `fleet`                 | multi-tenant scheduler sweep, 100 → 10,000 jobs |
//!
//! All timings are virtual-clock measurements, deterministic across
//! runs. Every figure prints an aligned table and writes it to
//! `results/<figure>.txt`, with the same data as
//! `results/BENCH_<figure>.json`; passing `--trace <file>` records
//! the run's telemetry and exports it as Chrome trace-event JSON
//! (loadable in Perfetto). `cargo bench` additionally runs wall-clock
//! micro-benchmarks of the simulator's own hot paths
//! (`benches/micro.rs`).
//!
//! The fixtures several binaries share live here once: the supervised
//! iterative-MD job ([`supervised`]) and the crash-point torture run
//! ([`torture`], also driven by `tests/torture_tests.rs`).

pub mod supervised;
pub mod torture;

pub use supervised::{
    iterative_md, md_setup, native_checksums, supervised_cell, SupervisedCell, MD_STEPS, REGIMES,
    SEED,
};

use std::fmt::Write as _;

use checl::CheclConfig;
use clspec::error::ClResult;
use clspec::types::DeviceType;
use osproc::Cluster;
use simcore::telemetry::{json_escape, json_f64};
use simcore::{ByteSize, SimDuration};
use workloads::{CheclSession, NativeSession, StopCondition, Workload, WorkloadCfg};

/// One column of the paper's evaluation: a vendor + device pairing.
#[derive(Clone)]
pub struct EvalTarget {
    /// Display label, matching the paper's figure captions.
    pub label: &'static str,
    /// Vendor configuration factory.
    pub vendor: fn() -> cldriver::VendorConfig,
    /// Device class requested by the applications.
    pub device_type: DeviceType,
    /// Device memory used for workload sizing.
    pub device_mem: ByteSize,
}

impl EvalTarget {
    /// Workload configuration for this target at `scale`.
    pub fn cfg(&self, scale: f64) -> WorkloadCfg {
        WorkloadCfg {
            device_mem: self.device_mem,
            scale,
            device_type: self.device_type,
        }
    }
}

/// The paper's three evaluation columns: NVIDIA GPU, AMD GPU, AMD CPU.
pub fn eval_targets() -> Vec<EvalTarget> {
    vec![
        EvalTarget {
            label: "NVIDIA OpenCL / Tesla C1060",
            vendor: cldriver::vendor::nimbus,
            device_type: DeviceType::Gpu,
            device_mem: simcore::calib::tesla_c1060_memory(),
        },
        EvalTarget {
            label: "AMD OpenCL / Radeon HD5870",
            vendor: cldriver::vendor::crimson,
            device_type: DeviceType::Gpu,
            device_mem: simcore::calib::radeon_hd5870_memory(),
        },
        EvalTarget {
            label: "AMD OpenCL / Core i7 (CPU)",
            vendor: cldriver::vendor::crimson,
            device_type: DeviceType::Cpu,
            device_mem: simcore::calib::host_memory(),
        },
    ]
}

/// Default problem scale for the harnesses: paper-proportional sizes.
pub const HARNESS_SCALE: f64 = 1.0;

/// A workload run to completion.
#[derive(Debug, PartialEq)]
pub struct Completed {
    /// Total virtual execution time.
    pub elapsed: SimDuration,
    /// Checksums of the buffers the program read back, in order.
    pub checksums: Vec<u64>,
}

/// Run a workload natively to completion, or fail with the OpenCL
/// error for non-portable combinations (the paper also reports those,
/// e.g. oclSortingNetworks on the Radeon).
pub fn run_native(w: &Workload, target: &EvalTarget, scale: f64) -> ClResult<Completed> {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = NativeSession::launch(
        &mut cluster,
        node,
        (target.vendor)(),
        w.script(&target.cfg(scale)),
    );
    s.run(&mut cluster, StopCondition::Completion)?;
    Ok(Completed {
        elapsed: s.elapsed(&cluster),
        checksums: s.program.checksums,
    })
}

/// A workload launched under CheCL on node 0 of a 2-node cluster,
/// before its first op; node 1 is free to restart or migrate it onto.
pub fn launch_checl(w: &Workload, target: &EvalTarget, scale: f64) -> (Cluster, CheclSession) {
    let mut cluster = Cluster::with_standard_nodes(2);
    let node = cluster.node_ids()[0];
    let s = CheclSession::launch(
        &mut cluster,
        node,
        (target.vendor)(),
        CheclConfig::default(),
        w.script(&target.cfg(scale)),
    );
    (cluster, s)
}

/// A CheCL session paused right after its first kernel launch,
/// together with its cluster.
pub fn session_at_first_kernel(
    w: &Workload,
    target: &EvalTarget,
    scale: f64,
) -> ClResult<(Cluster, CheclSession)> {
    session_at_kernel(w, target, scale, 1)
}

/// A CheCL session paused right after its *last* kernel launch, with
/// all earlier work drained — every object the program will ever
/// create exists, and exactly one command is in flight. This is the
/// Fig. 5 measurement point: "at least one uncompleted kernel
/// execution command always exists in the queue when the process is
/// checkpointed", taken once per program as the paper does after each
/// kernel execution.
pub fn session_at_last_kernel(
    w: &Workload,
    target: &EvalTarget,
    scale: f64,
) -> ClResult<(Cluster, CheclSession)> {
    let launches = w.script(&target.cfg(scale)).kernel_launches() as u64;
    if launches > 1 {
        let (mut cluster, mut s) = session_at_kernel(w, target, scale, launches - 1)?;
        s.drain(&mut cluster);
        s.run(&mut cluster, StopCondition::AfterKernel(launches))?;
        Ok((cluster, s))
    } else {
        session_at_kernel(w, target, scale, launches)
    }
}

fn session_at_kernel(
    w: &Workload,
    target: &EvalTarget,
    scale: f64,
    nth: u64,
) -> ClResult<(Cluster, CheclSession)> {
    let (mut cluster, mut s) = launch_checl(w, target, scale);
    s.run(&mut cluster, StopCondition::AfterKernel(nth))?;
    Ok((cluster, s))
}

// ---------------------------------------------------------------------
// Figure output: aligned text + machine-readable JSON
// ---------------------------------------------------------------------

/// One table cell: text, a number with display precision, or `n/a`.
#[derive(Clone, Debug)]
pub enum Cell {
    /// Verbatim text.
    Text(String),
    /// A number rendered with `decimals` places in the text table; the
    /// full value goes into the JSON.
    Num {
        /// The value.
        v: f64,
        /// Text-table display precision.
        decimals: u8,
    },
    /// An integer.
    Int(u64),
    /// A percentage, rendered `{:.1}%`.
    Pct(f64),
    /// Not applicable (failed/non-portable combination).
    Na,
}

impl Cell {
    /// Seconds with three decimals from a virtual duration.
    pub fn secs(d: SimDuration) -> Cell {
        Cell::Num {
            v: d.as_secs_f64(),
            decimals: 3,
        }
    }

    /// MiB with one decimal from a byte size.
    pub fn mib(b: ByteSize) -> Cell {
        Cell::Num {
            v: b.as_mib_f64(),
            decimals: 1,
        }
    }

    /// A plain number with chosen display precision.
    pub fn num(v: f64, decimals: u8) -> Cell {
        Cell::Num { v, decimals }
    }

    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num { v, decimals } => format!("{v:.*}", *decimals as usize),
            Cell::Int(v) => v.to_string(),
            Cell::Pct(v) => format!("{v:.1}%"),
            Cell::Na => "n/a".into(),
        }
    }

    fn to_json(&self) -> String {
        match self {
            Cell::Text(s) => json_string(s),
            Cell::Num { v, .. } | Cell::Pct(v) => json_f64(*v),
            Cell::Int(v) => v.to_string(),
            Cell::Na => "null".into(),
        }
    }
}

/// Render a digest quantile of nanosecond observations in seconds.
pub fn quantile_secs(h: &simcore::telemetry::Histogram, p: f64) -> Cell {
    match h.percentile(p) {
        Some(ns) => Cell::num(ns as f64 / 1e9, 3),
        None => Cell::Na,
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

struct Section {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

/// Collects one figure's tables and emits them twice on
/// [`FigureWriter::finish`]: an aligned text report, printed and
/// written to `results/<figure>.txt`, and a machine-readable
/// `results/BENCH_<figure>.json`.
pub struct FigureWriter {
    figure: String,
    sections: Vec<Section>,
}

impl FigureWriter {
    /// Start a report for `figure` (e.g. `"fig5_checkpoint"`).
    pub fn new(figure: &str) -> FigureWriter {
        FigureWriter {
            figure: figure.to_string(),
            sections: Vec::new(),
        }
    }

    /// Open a new table with `title` and column headers.
    pub fn section(&mut self, title: &str, columns: &[&str]) {
        self.sections.push(Section {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        });
    }

    /// Append a row to the current section.
    pub fn row(&mut self, cells: Vec<Cell>) {
        let section = self.sections.last_mut().expect("row before section");
        assert_eq!(
            cells.len(),
            section.columns.len(),
            "row width does not match '{}' header",
            section.title
        );
        section.rows.push(cells);
    }

    /// Attach a free-form note to the current section (printed under
    /// the table, kept in the JSON).
    pub fn note(&mut self, text: impl Into<String>) {
        self.sections
            .last_mut()
            .expect("note before section")
            .notes
            .push(text.into());
    }

    /// Print the aligned text report and write it to
    /// `results/<figure>.txt`, and write the same data as
    /// `results/BENCH_<figure>.json`. Returns the JSON path.
    pub fn finish(self) -> std::io::Result<std::path::PathBuf> {
        let mut text = String::new();
        for section in &self.sections {
            writeln!(text, "\n=== {} ===", section.title).unwrap();
            let mut widths: Vec<usize> = section.columns.iter().map(|c| c.len()).collect();
            let rendered: Vec<Vec<String>> = section
                .rows
                .iter()
                .map(|r| r.iter().map(Cell::render).collect())
                .collect();
            for row in &rendered {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let line = |cells: &[String]| {
                let mut out = String::new();
                for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                    if i == 0 {
                        out.push_str(&format!("{cell:<w$}"));
                    } else {
                        out.push_str(&format!("  {cell:>w$}"));
                    }
                }
                out
            };
            writeln!(text, "{}", line(&section.columns)).unwrap();
            writeln!(
                text,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
            )
            .unwrap();
            for row in &rendered {
                writeln!(text, "{}", line(row)).unwrap();
            }
            for note in &section.notes {
                writeln!(text, "{note}").unwrap();
            }
        }

        let mut json = String::new();
        json.push_str("{\n");
        json.push_str(&format!("  \"figure\": {},\n", json_string(&self.figure)));
        json.push_str("  \"sections\": [\n");
        for (si, section) in self.sections.iter().enumerate() {
            json.push_str("    {\n");
            json.push_str(&format!(
                "      \"title\": {},\n",
                json_string(&section.title)
            ));
            let cols: Vec<String> = section.columns.iter().map(|c| json_string(c)).collect();
            json.push_str(&format!("      \"columns\": [{}],\n", cols.join(", ")));
            json.push_str("      \"rows\": [\n");
            for (ri, row) in section.rows.iter().enumerate() {
                let cells: Vec<String> = row.iter().map(Cell::to_json).collect();
                let comma = if ri + 1 < section.rows.len() { "," } else { "" };
                json.push_str(&format!("        [{}]{comma}\n", cells.join(", ")));
            }
            json.push_str("      ],\n");
            let notes: Vec<String> = section.notes.iter().map(|n| json_string(n)).collect();
            json.push_str(&format!("      \"notes\": [{}]\n", notes.join(", ")));
            let comma = if si + 1 < self.sections.len() {
                ","
            } else {
                ""
            };
            json.push_str(&format!("    }}{comma}\n"));
        }
        json.push_str("  ]\n}\n");

        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.figure));
        std::fs::write(&path, json)?;
        writeln!(text, "\nwrote {}", path.display()).unwrap();
        print!("{text}");
        std::fs::write(dir.join(format!("{}.txt", self.figure)), text)?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------
// --trace wiring
// ---------------------------------------------------------------------

/// Telemetry recording session for a figure binary, driven by a
/// `--trace <file>` command-line argument. With the flag absent this
/// is a no-op (and the instrumentation stays on its near-zero-cost
/// disabled path).
pub struct TraceSession {
    path: Option<std::path::PathBuf>,
}

impl TraceSession {
    /// Parse `--trace <file>` / `--trace=<file>` from `std::env::args`
    /// and, when present, start recording on this thread.
    pub fn from_args() -> TraceSession {
        let args: Vec<String> = std::env::args().collect();
        let mut path = None;
        let mut i = 0;
        while i < args.len() {
            if let Some(v) = args[i].strip_prefix("--trace=") {
                path = Some(std::path::PathBuf::from(v));
            } else if args[i] == "--trace" && i + 1 < args.len() {
                path = Some(std::path::PathBuf::from(&args[i + 1]));
                i += 1;
            }
            i += 1;
        }
        if path.is_some() {
            simcore::telemetry::start_recording();
        }
        TraceSession { path }
    }

    /// Whether a recording is active.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Stop recording, validate the trace, export Chrome trace JSON to
    /// the requested file, and print a one-line summary. Panics if the
    /// trace fails validation — a figure run must produce a
    /// structurally sound trace.
    pub fn finish(self) -> std::io::Result<()> {
        let Some(path) = self.path else { return Ok(()) };
        let rec =
            simcore::telemetry::stop_recording().expect("--trace recording was replaced mid-run");
        match simcore::telemetry::validate(&rec.events) {
            Ok(stats) => println!(
                "trace: {} events ({} spans, {} async, {} instants, depth {}) validated",
                rec.events.len(),
                stats.spans,
                stats.async_pairs,
                stats.instants,
                stats.max_depth,
            ),
            Err(e) => panic!("trace validation failed: {e}"),
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(&path, simcore::telemetry::export_chrome_trace(&rec))?;
        println!(
            "trace: wrote {} (load in Perfetto / chrome://tracing)",
            path.display()
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::workload_by_name;

    #[test]
    fn targets_match_paper_columns() {
        let t = eval_targets();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].device_type, DeviceType::Gpu);
        assert_eq!(t[2].device_type, DeviceType::Cpu);
        assert!(t[1].device_mem < t[0].device_mem);
    }

    /// Run a launched CheCL session to completion.
    fn complete((mut cluster, mut s): (Cluster, CheclSession)) -> ClResult<Completed> {
        s.run(&mut cluster, StopCondition::Completion)?;
        Ok(Completed {
            elapsed: s.elapsed(&cluster),
            checksums: s.program.checksums,
        })
    }

    #[test]
    fn native_and_checl_runners_work() {
        let w = workload_by_name("oclVectorAdd").unwrap();
        let t = &eval_targets()[0];
        let native = run_native(&w, t, 1.0 / 128.0).unwrap();
        let checl = complete(launch_checl(&w, t, 1.0 / 128.0)).unwrap();
        assert!(checl.elapsed > native.elapsed);
        assert_eq!(checl.checksums, native.checksums);
    }

    /// A CheCL run alone on a 1-node cluster and one on node 0 of a
    /// 2-node cluster ([`launch_checl`]) take the same virtual time and
    /// read back the same bytes, or fail with the same error. Returns
    /// whether they completed.
    fn checl_runs_alike(w: &Workload, t: &EvalTarget, scale: f64) -> bool {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let s = CheclSession::launch(
            &mut cluster,
            node,
            (t.vendor)(),
            CheclConfig::default(),
            w.script(&t.cfg(scale)),
        );
        let one = complete((cluster, s));
        assert_eq!(
            one,
            complete(launch_checl(w, t, scale)),
            "{} on {}",
            w.name,
            t.label
        );
        one.is_ok()
    }

    /// `fig4_fig8` takes Fig. 4's CheCL time from the run it then
    /// migrates, on node 0 of a 2-node cluster; the figure means a run
    /// alone on one node.
    #[test]
    fn checl_runs_alike_on_one_node_and_on_node_0_of_two() {
        let targets = eval_targets();
        for t in &targets {
            for w in workloads::all_workloads() {
                assert!(
                    checl_runs_alike(&w, t, 1.0 / 128.0),
                    "{} on {}",
                    w.name,
                    t.label
                );
            }
        }
        // At paper scale oclSortingNetworks's 512-wide work groups do
        // not fit the Radeon, so both sides fail.
        let sorting = workload_by_name("oclSortingNetworks").unwrap();
        assert!(!checl_runs_alike(&sorting, &targets[1], HARNESS_SCALE));
    }

    #[test]
    fn cell_json_bytes_are_pinned() {
        let text = Cell::from("q\"b\\n\nt\tc\u{1}r\r é");
        assert_eq!(text.to_json(), r#""q\"b\\n\nt\tc\u0001r\r é""#);
        assert_eq!(Cell::num(3.0, 1).to_json(), "3.0");
        assert_eq!(Cell::num(0.125, 3).to_json(), "0.125");
        assert_eq!(Cell::secs(SimDuration::from_millis(1500)).to_json(), "1.5");
        assert_eq!(Cell::Pct(97.25).to_json(), "97.25");
        assert_eq!(Cell::num(-2.0, 0).to_json(), "-2.0");
        assert_eq!(Cell::num(1e21, 0).to_json(), "1000000000000000000000.0");
        assert_eq!(Cell::num(f64::NAN, 3).to_json(), "null");
        assert_eq!(Cell::num(f64::INFINITY, 3).to_json(), "null");
        assert_eq!(Cell::Pct(f64::NEG_INFINITY).to_json(), "null");
        assert_eq!(Cell::Int(42).to_json(), "42");
        assert_eq!(Cell::Na.to_json(), "null");
    }

    #[test]
    fn paused_session_has_inflight_kernel() {
        let w = workload_by_name("MaxFlops").unwrap();
        let t = &eval_targets()[0];
        let (_cluster, s) = session_at_first_kernel(&w, t, 1.0 / 128.0).unwrap();
        assert_eq!(s.program.kernels_launched, 1);
        assert!(!s.program.is_done());
    }
}
