//! Export the generated pipelines as structural Verilog — the artifact
//! the paper's authors started from, regenerated. Writes
//! `rescue_baseline.v` and `rescue_rescue.v` into the current directory
//! (or a directory given as the first argument).

use rescue_core::model::{build_pipeline, ModelParams, Variant};
use rescue_core::netlist::VerilogOptions;
use rescue_obs::Report;

fn main() -> std::io::Result<()> {
    let obs = rescue_bench::obs_init(&["--quick"]);
    let dir = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| ".".to_owned());
    let params = if rescue_bench::quick_mode() {
        ModelParams::tiny()
    } else {
        ModelParams::paper()
    };
    let mut report = Report::new("export_verilog");
    for (variant, tag) in [(Variant::Baseline, "baseline"), (Variant::Rescue, "rescue")] {
        let _span = rescue_obs::span("export.variant");
        let model = build_pipeline(&params, variant);
        let v = model.netlist.to_verilog(&VerilogOptions {
            module: format!("rescue_{tag}"),
            component_comments: true,
        });
        let path = format!("{dir}/rescue_{tag}.v");
        std::fs::write(&path, v)?;
        println!(
            "wrote {path}: {} gates, {} flip-flops",
            model.netlist.num_gates(),
            model.netlist.num_dffs()
        );
        report
            .section(tag)
            .u64("gates", model.netlist.num_gates() as u64)
            .u64("dffs", model.netlist.num_dffs() as u64);
    }
    rescue_bench::obs_finish(&obs, &mut report);
    Ok(())
}
