//! Regenerates Fig. 4: runtime overhead caused by the CheCL runtime
//! system.
//!
//! Every benchmark runs twice per target — linked against the native
//! vendor library and against CheCL — with no checkpoint taken. The
//! reported value is CheCL time normalised to native time (1.00 = no
//! overhead). Non-portable combinations print `n/a`, like
//! oclSortingNetworks on the AMD GPU in the paper. Wherever both runs
//! complete, CheCL must read back what the native run read back: the
//! binary panics on any checksum that differs.

use checl_bench::{
    eval_targets, run_checl, run_native, Cell, FigureWriter, TraceSession, HARNESS_SCALE,
};
use workloads::all_workloads;

fn main() {
    let trace = TraceSession::from_args();
    let targets = eval_targets();
    let workloads = all_workloads();

    let mut fig = FigureWriter::new("fig4_overhead");
    let mut cols = vec!["benchmark"];
    cols.extend(targets.iter().map(|t| t.label));
    fig.section(
        "Fig. 4: Timing Overhead Caused by CheCL Runtime System \
         (normalized execution time: CheCL / native; 1.00 = no overhead)",
        &cols,
    );

    let mut sums = vec![0.0f64; targets.len()];
    let mut counts = vec![0usize; targets.len()];

    for w in &workloads {
        let mut row: Vec<Cell> = vec![w.name.into()];
        for (i, t) in targets.iter().enumerate() {
            match (
                run_native(w, t, HARNESS_SCALE),
                run_checl(w, t, HARNESS_SCALE),
            ) {
                (Ok(native), Ok(checl)) => {
                    assert_eq!(
                        checl.checksums, native.checksums,
                        "{} on {}: CheCL read back other bytes than the native run",
                        w.name, t.label
                    );
                    let ratio = checl.elapsed.as_secs_f64() / native.elapsed.as_secs_f64();
                    sums[i] += ratio;
                    counts[i] += 1;
                    row.push(Cell::num(ratio, 3));
                }
                _ => row.push(Cell::Na),
            }
        }
        fig.row(row);
    }

    let mut avg_row: Vec<Cell> = vec!["AVERAGE".into()];
    for i in 0..targets.len() {
        avg_row.push(Cell::num(sums[i] / counts[i] as f64, 3));
    }
    fig.row(avg_row);
    for (i, t) in targets.iter().enumerate() {
        let avg = sums[i] / counts[i] as f64;
        fig.note(format!(
            "average runtime overhead on {}: {:.1}%",
            t.label,
            (avg - 1.0) * 100.0
        ));
    }
    fig.note(
        "paper reference: 10.1% (NVIDIA), 19.0% (AMD GPU), 12.2% (AMD CPU); \
         transfer-bound and API-chatty programs dominate the tail",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
