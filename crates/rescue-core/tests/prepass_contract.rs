//! Model-scale contract of the static-implication ATPG pre-pass.
//!
//! On the model netlists PODEM's default backtrack budget gives up
//! inside redundant cones, so the pre-pass does more than save the
//! search: it knows the true class (`Untestable`) where budgeted
//! search returned `Aborted`. This test pins the exact shape of the
//! on-vs-off difference on both variants:
//!
//! * the generated vectors are byte-identical;
//! * every classification difference is `Aborted` → `Untestable` on a
//!   pre-pass-proven fault — never a `Detected`/`Undetected` moving
//!   anywhere (that would be an unsound proof), never a vector-bearing
//!   fault changing class;
//! * the scan statistics (faults, cells, chains, vectors, cycles) are
//!   byte-identical, every skipped PODEM call is accounted, and the
//!   upgrade count reconciles exactly with the untestable/aborted
//!   totals.
//!
//! The pre-pass-on arm reruns through the design's PODEM memo, as the
//! bench's `prepass_report` does; the fuzz `dropping` oracle pins that
//! such a rerun equals a fresh run.
//!
//! The fully-decided regime — where even the classifications are
//! byte-identical — is pinned at fixture scale by
//! `static_prepass_is_a_pure_shortcut` in `rescue-atpg`, and per
//! random circuit by the fuzz `redundancy` oracle.

use rescue_core::atpg::{AtpgConfig, FaultClass};
use rescue_core::experiments::AtpgDesign;
use rescue_core::model::{ModelParams, Variant};

#[test]
fn prepass_contract() {
    let params = ModelParams::tiny();
    for variant in [Variant::Baseline, Variant::Rescue] {
        let design = AtpgDesign::build(&params, variant, 0);
        let base = &design.run;
        let pre = design.rerun(AtpgConfig {
            static_prepass: true,
            ..AtpgConfig::default()
        });

        // The test set itself never moves.
        assert_eq!(pre.vectors, base.vectors, "{variant:?}: vectors moved");
        assert_eq!(pre.stats, base.stats, "{variant:?}: scan stats moved");

        // Classifications: identical up to sound Aborted → Untestable
        // upgrades. Anything else is an unsound proof or a lost fault.
        assert_eq!(pre.classes.len(), base.classes.len());
        let mut upgraded = 0u64;
        for (fault, base_class) in &base.classes {
            let pre_class = pre
                .classes
                .get(fault)
                .unwrap_or_else(|| panic!("{variant:?}: {fault} lost by the pre-pass"));
            if pre_class == base_class {
                continue;
            }
            assert_eq!(
                (base_class, pre_class),
                (&FaultClass::Aborted, &FaultClass::Untestable),
                "{variant:?}: {fault} moved {base_class:?} → {pre_class:?}"
            );
            upgraded += 1;
        }

        // The pre-pass earned its keep, and the books balance: every
        // proof skipped one PODEM call, every upgrade is one fault that
        // left Aborted for Untestable, and the detected set is frozen.
        let b = &base.metrics.counts;
        let p = &pre.metrics.counts;
        assert!(p.prepass_proven > 0, "{variant:?}: nothing proven");
        assert_eq!(p.prepass_podem_calls_saved, p.prepass_proven);
        assert!(upgraded > 0, "{variant:?}: budget decided everything?");
        assert_eq!(p.untestable, b.untestable + upgraded);
        assert_eq!(p.aborted + upgraded, b.aborted);
        assert_eq!(p.detected, b.detected);
        assert_eq!(p.chain_tested, b.chain_tested);
        assert_eq!(p.vectors, b.vectors);
        // Fewer targetable faults, same detections: coverage can only
        // improve when budget-aborted redundancies are named.
        assert!(pre.coverage() >= base.coverage());

        // Baseline runs never pay for the pre-pass.
        assert_eq!(b.prepass_proven, 0);
        assert_eq!(b.prepass_podem_calls_saved, 0);
        assert_eq!(base.metrics.timing.prepass_ns, 0);
    }
}
