//! Byte-identity regression for the figure 10 / figure 11 result files.
//!
//! The paper's error figures are only meaningful if the prediction
//! pipeline is bit-reproducible: a change that perturbs comparator
//! semantics (e.g. swapping `partial_cmp(..).unwrap_or(Equal)` for
//! `f64::total_cmp`) or map iteration order must not move a single byte
//! of the emitted CSVs. The goldens under `tests/goldens/` were captured
//! before the `total_cmp` migration; this test regenerates the same
//! artifacts through the library APIs and compares bytes.
//!
//! To re-bless after an *intentional* output change:
//! `PANDIA_BLESS_GOLDENS=1 cargo test -p pandia-harness --test goldens`

use std::path::PathBuf;

use pandia_core::ExecContext;
use pandia_harness::experiments::{curves, errors};
use pandia_harness::{report, MachineContext};
use pandia_sim::{FaultPlan, SimConfig, SimMachine};

/// Workloads covered by the golden capture: a memory-bound, a
/// CPU-bound, and a lock-heavy representative keep the comparators'
/// tie-breaking behavior exercised without a full-suite sweep.
const WORKLOADS: [&str; 3] = ["CG", "EP", "MD"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn check_or_bless(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("PANDIA_BLESS_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden files live in a dir"))
            .expect("create goldens dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (re-bless with PANDIA_BLESS_GOLDENS=1)", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} diverged from the pre-migration capture: fig10/fig11 outputs must stay byte-identical"
    );
}

#[test]
fn fig10_fig11_outputs_are_byte_identical_to_goldens() {
    let ctx = MachineContext::by_name("x3-2").expect("x3-2 preset");
    // Same candidate set as the binaries' `--quick` coverage.
    let placements = ctx.enumerator().sampled(&ctx.spec, 3);
    let exec = ExecContext::new(2).with_cache(true);
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|n| pandia_workloads::by_name(n).expect("registered workload"))
        .collect();

    // Figure 10: one measured-vs-predicted curve CSV per workload.
    for w in &workloads {
        let curve = curves::workload_curve_with(&exec, &ctx, w, &placements)
            .expect("placement sweep");
        check_or_bless(
            &format!("fig10_x3-2_{}.csv", w.name),
            &report::curve_csv(&curve),
        );
    }

    // Figure 11: per-workload error bars, both the human table and the CSV.
    let bars = errors::error_bars_with(&exec, &ctx, &workloads, &placements)
        .expect("error sweep");
    let title = format!("Figure 11 — errors on {}", bars.title);
    check_or_bless("fig11_x3-2.txt", &report::error_table(&title, &bars.stats));
    check_or_bless("fig11_x3-2.csv", &report::error_csv(&bars.stats));
}

/// The robustness layer must be invisible when disarmed: a platform
/// carrying an explicit zero-rate [`FaultPlan`] and the default (naive)
/// [`pandia_core::RobustnessPolicy`] must reproduce the pre-robustness
/// goldens byte for byte — the fault gates may not consume a single RNG
/// draw and the default aggregation path may not move a bit.
#[test]
fn zero_fault_plan_leaves_goldens_byte_identical() {
    let mut ctx = MachineContext::by_name("x3-2").expect("x3-2 preset");
    ctx.platform = SimMachine::with_config(
        ctx.spec.clone(),
        SimConfig::default().with_faults(FaultPlan::none()),
    );
    let placements = ctx.enumerator().sampled(&ctx.spec, 3);
    let exec = ExecContext::new(2).with_cache(true);
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|n| pandia_workloads::by_name(n).expect("registered workload"))
        .collect();

    for w in &workloads {
        let curve = curves::workload_curve_with(&exec, &ctx, w, &placements)
            .expect("placement sweep");
        check_or_bless(
            &format!("fig10_x3-2_{}.csv", w.name),
            &report::curve_csv(&curve),
        );
    }
    let bars = errors::error_bars_with(&exec, &ctx, &workloads, &placements)
        .expect("error sweep");
    check_or_bless("fig11_x3-2.csv", &report::error_csv(&bars.stats));
}

/// Coalescing must never skip over an injected fault: with a nonzero
/// [`FaultPlan`] armed, every segment boundary is preserved (the engine
/// reports zero coalesced segments), while the same run without the plan
/// coalesces freely. Run at the platform level so the whole
/// request-to-engine plumbing is covered, not just the engine loop.
#[test]
fn armed_fault_plan_forces_segment_boundaries() {
    use pandia_topology::{MultiRunRequest, Placement};

    let ctx = MachineContext::by_name("x3-2").expect("x3-2 preset");
    let workload = pandia_workloads::by_name("EP").expect("registered workload");
    let behavior = workload.behavior.clone();
    let placement = Placement::spread(&ctx.spec, 4).expect("4 threads fit");

    let mut clean = SimMachine::with_config(ctx.spec.clone(), SimConfig::default());
    let req = MultiRunRequest::new(vec![(behavior, placement)]);
    let (_, clean_stats) = clean.run_multi_stats(&req).expect("fault-free run");
    assert!(
        clean_stats.segments_coalesced > 0,
        "smooth fault-free run should coalesce: {clean_stats:?}"
    );
    assert!(
        clean_stats.solves_skipped > 0,
        "steady re-solves should hit the cache: {clean_stats:?}"
    );

    let mut chaotic = SimMachine::with_config(
        ctx.spec.clone(),
        SimConfig::default().with_faults(FaultPlan::with_intensity(0.4)),
    );
    // Scan a few seeds so at least one run survives the transient gate.
    let mut surviving = 0;
    for seed in 0..8u64 {
        let seeded = MultiRunRequest { seed, ..req.clone() };
        if let Ok((_, stats)) = chaotic.run_multi_stats(&seeded) {
            surviving += 1;
            assert_eq!(
                stats.segments_coalesced, 0,
                "seed {seed}: coalescing skipped past an armed fault plan: {stats:?}"
            );
            assert_eq!(
                stats.segments, clean_stats.segments,
                "seed {seed}: fault plan changed the segment schedule"
            );
        }
    }
    assert!(surviving > 0, "every seed hit the transient gate");
}
