//! Plain-text renderers that print each experiment in the shape the paper
//! reports it.

use crate::experiments::{AblationRow, Fig8Row, Fig9Point, IsolationExperiment, Table1Row, Table3};
use rescue_yield::RescueAreas;
use std::fmt::Write as _;

/// Render Table 1.
pub fn table1_text(rows: &[Table1Row]) -> String {
    let mut s = String::from("Table 1: System Parameters\n");
    for r in rows {
        let _ = writeln!(s, "  {:28} {}", r.name, r.value);
    }
    s
}

/// Render Table 2.
pub fn table2_text(baseline_total: f64, rescue: &RescueAreas) -> String {
    let mut s = String::from("Table 2: Total areas and component relative areas\n");
    let _ = writeln!(
        s,
        "  Baseline total area          {baseline_total:6.1} mm^2"
    );
    let _ = writeln!(
        s,
        "  Rescue total area            {:6.1} mm^2",
        rescue.total_mm2
    );
    for row in rescue.table2() {
        let _ = writeln!(s, "  {:28} {:4.0}%", row.name, row.fraction * 100.0);
    }
    s
}

/// Render Table 3.
pub fn table3_text(t: &Table3) -> String {
    let (b, r) = (&t.baseline.run.stats, &t.rescue.run.stats);
    let mut s = String::from("Table 3: Scan chain data\n");
    let _ = writeln!(s, "  {:10} {:>10} {:>10}", "", "Base", "Rescue");
    for (name, base, resc) in [
        ("faults", b.faults as u64, r.faults as u64),
        ("cells", b.cells as u64, r.cells as u64),
        ("chains", b.chains as u64, r.chains as u64),
        ("vectors", b.vectors as u64, r.vectors as u64),
        ("cycles", b.cycles, r.cycles),
    ] {
        let _ = writeln!(s, "  {name:10} {base:>10} {resc:>10}");
    }
    let _ = writeln!(
        s,
        "  {:10} {:>9.2}% {:>9.2}%",
        "coverage",
        100.0 * t.baseline.run.metrics.coverage.final_coverage(),
        100.0 * t.rescue.run.metrics.coverage.final_coverage()
    );
    let _ = writeln!(
        s,
        "  test-time increase over baseline: {:+.1}%",
        100.0 * (r.cycles as f64 / b.cycles as f64 - 1.0)
    );
    s
}

/// Render the §6.1 isolation experiment.
pub fn isolation_text(e: &IsolationExperiment) -> String {
    let mut s = format!("Fault isolation experiment ({:?} design)\n", e.variant);
    let _ = writeln!(
        s,
        "  {:10} {:>9} {:>9} {:>10}",
        "stage", "injected", "isolated", "ambiguous"
    );
    for st in &e.stages {
        let _ = writeln!(
            s,
            "  {:10} {:>9} {:>9} {:>10}",
            format!("{:?}", st.stage),
            st.injected,
            st.isolated,
            st.ambiguous
        );
    }
    let _ = writeln!(
        s,
        "  total: {}/{} isolated to the correct map-out group",
        e.total_isolated(),
        e.total_injected()
    );
    s
}

/// Render Figure 8 as the paper's bar list.
pub fn fig8_text(rows: &[Fig8Row]) -> String {
    let mut s = String::from("Figure 8: IPC degradation (baseline vs Rescue)\n");
    let _ = writeln!(
        s,
        "  {:10} {:>8} {:>8} {:>8}",
        "benchmark", "base", "rescue", "degr"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:10} {:>8.3} {:>8.3} {:>7.1}%",
            r.name,
            r.baseline_ipc,
            r.rescue_ipc,
            r.degradation_pct()
        );
    }
    if !rows.is_empty() {
        let avg: f64 = rows.iter().map(|r| r.degradation_pct()).sum::<f64>() / rows.len() as f64;
        let _ = writeln!(s, "  average degradation: {avg:.1}%");
    }
    s
}

/// Render one Figure 9 panel.
pub fn fig9_text(title: &str, points: &[Fig9Point]) -> String {
    let mut s = format!("Figure 9 ({title}): relative YAT\n");
    let _ = writeln!(
        s,
        "  {:>6} {:>7} {:>6} {:>8} {:>8} {:>8} {:>12}",
        "node", "growth", "cores", "none", "+CS", "+Rescue", "Rescue/CS"
    );
    for p in points {
        let heal = match p.rescue_self_healing {
            Some(v) => format!(" (+arrays {v:.3})"),
            None => String::new(),
        };
        let _ = writeln!(
            s,
            "  {:>4}nm {:>6.0}% {:>6} {:>8.3} {:>8.3} {:>8.3} {:>11.1}%{heal}",
            p.node_nm,
            (p.growth - 1.0) * 100.0,
            p.yat.cores,
            p.yat.none,
            p.yat.core_sparing,
            p.yat.rescue,
            100.0 * (p.yat.rescue / p.yat.core_sparing - 1.0)
        );
    }
    s
}

/// Render the ablation study.
pub fn ablation_text(rows: &[AblationRow]) -> String {
    let mut s = String::from("Ablation: where Rescue's IPC tax comes from\n");
    let _ = writeln!(s, "  {:45} {:>8} {:>10}", "variant", "IPC", "vs base");
    for r in rows {
        let _ = writeln!(
            s,
            "  {:45} {:>8.3} {:>9.1}%",
            r.label, r.mean_ipc, -r.mean_degradation_pct
        );
    }
    s
}

/// Figure 8 as CSV (plot-ready).
pub fn fig8_csv(rows: &[Fig8Row]) -> String {
    let mut s = String::from("benchmark,baseline_ipc,rescue_ipc,degradation_pct\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{:.4},{:.4},{:.2}",
            r.name,
            r.baseline_ipc,
            r.rescue_ipc,
            r.degradation_pct()
        );
    }
    s
}

/// Figure 9 as CSV (plot-ready; one row per node x growth).
pub fn fig9_csv(points: &[Fig9Point]) -> String {
    let mut s = String::from(
        "node_nm,growth_pct,cores,yat_none,yat_core_sparing,yat_rescue,yat_rescue_self_healing\n",
    );
    for p in points {
        let heal = p
            .rescue_self_healing
            .map(|v| format!("{v:.4}"))
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "{},{:.0},{},{:.4},{:.4},{:.4},{heal}",
            p.node_nm,
            (p.growth - 1.0) * 100.0,
            p.yat.cores,
            p.yat.none,
            p.yat.core_sparing,
            p.yat.rescue
        );
    }
    s
}
