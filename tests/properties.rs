//! Property-style tests over the simulator, the predictor, and the
//! placement machinery, plus the parallel-execution equivalence suite.
//!
//! The build environment is offline, so instead of proptest these tests
//! drive the same randomized scenarios from a small deterministic
//! splitmix64 generator: every case is reproducible from its printed
//! seed.

use pandia::harness::MachineContext;
use pandia::prelude::*;

const CASES: u64 = 24;

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform integer in `[lo, hi]`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A small but varied workload behavior (mirrors the old proptest
/// strategy's ranges).
fn random_behavior(rng: &mut Rng) -> Behavior {
    let l1 = rng.f64_in(0.0, 40.0);
    Behavior {
        name: "prop".into(),
        total_work: rng.f64_in(1.0, 50.0),
        seq_fraction: rng.f64_in(0.0, 0.2),
        demand: UnitDemand {
            instr: rng.f64_in(0.1, 8.0),
            l1,
            l2: l1 * 0.3,
            l3: rng.f64_in(0.0, 8.0),
            dram: rng.f64_in(0.0, 9.0),
        },
        working_set_mib: rng.f64_in(0.1, 400.0),
        burst: BurstProfile::bursty(rng.f64_in(0.2, 1.0), rng.f64_in(1.0, 2.0)),
        scheduling: Scheduling::Partial { dynamic_fraction: rng.f64_in(0.0, 1.0) },
        comm_factor: rng.f64_in(0.0, 0.01),
        intra_socket_comm: 0.1,
        data_placement: DataPlacement::Interleave,
        growth_per_thread: 0.0,
        active_threads: None,
        requires_avx: false,
    }
}

/// A valid canonical placement for the X3-2 (2 sockets, 8 cores, 2 SMT).
fn random_placement(rng: &mut Rng) -> CanonicalPlacement {
    let sockets = rng.usize_in(1, 2);
    let mut groups = Vec::with_capacity(sockets);
    for _ in 0..sockets {
        let cores = rng.usize_in(1, 8);
        groups.push((0..cores).map(|_| rng.usize_in(1, 2) as u8).collect());
    }
    CanonicalPlacement::new(groups)
}

/// A valid workload description against a given machine description
/// (mirrors the old predictor-invariant strategy's ranges).
fn random_description(rng: &mut Rng, machine: &MachineDescription) -> WorkloadDescription {
    let dram = rng.f64_in(0.0, 30.0);
    let nodes = machine.shape.sockets;
    WorkloadDescription {
        name: "prop".into(),
        machine: machine.machine.clone(),
        t1: 100.0,
        demand: DemandVector {
            instr: rng.f64_in(0.1, 12.0),
            l1: 0.0,
            l2: 0.0,
            l3: 0.0,
            dram: vec![dram / nodes as f64; nodes],
        },
        parallel_fraction: rng.f64_in(0.0, 1.0),
        inter_socket_overhead: rng.f64_in(0.0, 0.3),
        load_balance: rng.f64_in(0.0, 1.0),
        burstiness: rng.f64_in(0.0, 2.0),
    }
}

/// Simulated runs always terminate with positive time, never move more
/// bytes than the work implies, and speed up at most linearly.
#[test]
fn simulator_invariants() {
    let spec = MachineSpec::x3_2();
    let mut machine = SimMachine::with_config(spec.clone(), SimConfig::noiseless());
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let behavior = random_behavior(&mut rng);
        let canon = random_placement(&mut rng);
        let placement = canon.instantiate(&spec).unwrap();
        let n = placement.n_threads();
        let result =
            machine.run(&RunRequest::new(behavior.clone(), placement.clone())).unwrap();
        assert!(result.elapsed > 0.0 && result.elapsed.is_finite(), "case {case}");

        // Counters account for exactly the workload's demands (within the
        // final-segment rounding of the fluid model).
        let expected_instr = behavior.total_work * behavior.demand.instr;
        if expected_instr > 0.0 {
            let rel = (result.counters.instructions - expected_instr).abs() / expected_instr;
            assert!(rel < 0.05, "case {case}: instr counter off by {rel}");
        }

        // Speedup vs a solo run is bounded by thread count times the
        // frequency advantage (none here: background fill pins frequency).
        let solo = machine
            .run(&RunRequest::new(behavior.clone(), Placement::spread(&spec, 1).unwrap()))
            .unwrap()
            .elapsed;
        let speedup = solo / result.elapsed;
        assert!(speedup <= n as f64 * 1.05, "case {case}: superlinear speedup {speedup} at n={n}");

        // Busy fractions are valid and thread count matches.
        assert_eq!(result.per_thread_busy.len(), n, "case {case}");
        for &busy in &result.per_thread_busy {
            assert!((0.0..=1.0).contains(&busy), "case {case}");
        }
    }
}

/// Determinism: identical requests produce identical results.
#[test]
fn simulator_is_deterministic() {
    let spec = MachineSpec::x3_2();
    let mut machine = SimMachine::new(spec.clone());
    for case in 0..CASES {
        let mut rng = Rng::new(1000 + case);
        let behavior = random_behavior(&mut rng);
        let placement = random_placement(&mut rng).instantiate(&spec).unwrap();
        let req = RunRequest::new(behavior, placement).with_seed(99);
        let a = machine.run(&req).unwrap();
        let b = machine.run(&req).unwrap();
        assert_eq!(a, b, "case {case}");
    }
}

/// Predictor invariants hold for arbitrary valid descriptions.
#[test]
fn predictor_invariants() {
    let mut machine = SimMachine::new(MachineSpec::x3_2());
    let description = describe_machine(&mut machine).unwrap();
    for case in 0..CASES {
        let mut rng = Rng::new(2000 + case);
        let canon = random_placement(&mut rng);
        let wd = random_description(&mut rng, &description);
        let placement = canon.instantiate(&description).unwrap();
        let pred = predict(&description, &wd, &placement, &PredictorConfig::default()).unwrap();
        assert!(pred.speedup > 0.0 && pred.speedup.is_finite(), "case {case}");
        assert!(pred.speedup <= pred.amdahl_speedup + 1e-9, "case {case}");
        assert!(pred.amdahl_speedup <= placement.n_threads() as f64 + 1e-9, "case {case}");
        for t in &pred.threads {
            assert!(t.slowdown >= 1.0 - 1e-9, "case {case}");
            assert!(t.utilization > 0.0 && t.utilization <= 1.0 + 1e-9, "case {case}");
            assert!(t.communication_penalty >= -1e-12, "case {case}");
            assert!(t.load_balance_penalty >= -1e-9, "case {case}");
        }
        // Resource loads never blow past physical meaning.
        for load in &pred.resource_loads {
            assert!(load.is_finite() && *load >= 0.0, "case {case}");
        }
    }
}

/// Canonicalization is idempotent and instantiation round-trips.
#[test]
fn placement_canonicalization_round_trips() {
    let spec = MachineSpec::x3_2();
    for case in 0..CASES {
        let mut rng = Rng::new(3000 + case);
        let canon = random_placement(&mut rng);
        let placement = canon.instantiate(&spec).unwrap();
        let again = placement.canonicalize(&spec);
        assert_eq!(again, canon, "case {case}");
        let placement2 = again.instantiate(&spec).unwrap();
        assert_eq!(placement.n_threads(), placement2.n_threads(), "case {case}");
    }
}

/// Measured demand rates scale with utilization consistently: scaling a
/// demand vector then routing equals routing then scaling.
#[test]
fn demand_scaling_commutes_with_routing() {
    let spec = MachineSpec::x3_2();
    let table = pandia::topology::ResourceTable::from_spec(&spec);
    for case in 0..CASES {
        let mut rng = Rng::new(4000 + case);
        let f = rng.f64_in(0.01, 1.0);
        let d = DemandVector { instr: 3.0, l1: 10.0, l2: 4.0, l3: 2.0, dram: vec![1.5, 2.5] };
        let mut routed_then_scaled = Vec::new();
        d.route(&spec, &table, CtxId(0), &mut routed_then_scaled);
        for (_, v) in &mut routed_then_scaled {
            *v *= f;
        }
        let mut scaled_then_routed = Vec::new();
        d.scaled(f).route(&spec, &table, CtxId(0), &mut scaled_then_routed);
        assert_eq!(routed_then_scaled.len(), scaled_then_routed.len(), "case {case}");
        for ((r1, v1), (r2, v2)) in routed_then_scaled.iter().zip(&scaled_then_routed) {
            assert_eq!(r1, r2, "case {case}");
            assert!((v1 - v2).abs() < 1e-12, "case {case}");
        }
    }
}

// --- Parallel-execution equivalence suite -------------------------------
//
// The contract of the exec layer: every `*_with` entry point produces
// results byte-identical to its serial counterpart, for any worker
// count, with or without the prediction cache, cold or warm.

/// Workload descriptions for the equivalence tests: a couple profiled
/// from the paper suite (via pandia-workloads) plus randomized ones.
fn equivalence_workloads(ctx: &mut MachineContext, seed: u64) -> Vec<WorkloadDescription> {
    let mut out = Vec::new();
    for name in ["EP", "CG"] {
        let entry = by_name(name).expect("paper workload registered");
        out.push(ctx.profile(&entry).unwrap().description);
    }
    let mut rng = Rng::new(seed);
    for _ in 0..3 {
        out.push(random_description(&mut rng, &ctx.description));
    }
    out
}

#[test]
fn placement_report_is_identical_across_jobs_and_cache() {
    let mut ctx = MachineContext::x3_2().unwrap();
    let candidates = ctx.enumerator().sampled(&ctx.spec, 4);
    let config = PredictorConfig::default();
    for (i, wd) in equivalence_workloads(&mut ctx, 5000).iter().enumerate() {
        let serial = placement_report(&ctx.description, wd, &candidates, &config).unwrap();
        let serial_json = serde_json::to_string(&serial).unwrap();
        for jobs in [1, 4] {
            let cold = ExecContext::new(jobs);
            let report =
                placement_report_with(&cold, &ctx.description, wd, &candidates, &config)
                    .unwrap();
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serial_json,
                "workload {i}, jobs={jobs}, cold cache"
            );
            // Warm pass over the same context: pure cache hits, same bytes.
            let warm =
                placement_report_with(&cold, &ctx.description, wd, &candidates, &config)
                    .unwrap();
            assert_eq!(
                serde_json::to_string(&warm).unwrap(),
                serial_json,
                "workload {i}, jobs={jobs}, warm cache"
            );
            let stats = cold.cache_stats();
            assert!(stats.hits >= candidates.len() as u64, "workload {i}: {stats:?}");

            let uncached = ExecContext::new(jobs).with_cache(false);
            let report =
                placement_report_with(&uncached, &ctx.description, wd, &candidates, &config)
                    .unwrap();
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serial_json,
                "workload {i}, jobs={jobs}, no cache"
            );
            assert_eq!(uncached.cache_stats(), CacheStats::default());
        }
    }
}

/// The recommendation `Recommendation::analyze` must equal, assembled
/// from the full report through `PlacementReport::best` and
/// `PlacementReport::resource_saving`.
fn recommendation_from_report(report: &PlacementReport, tolerance: f64) -> Recommendation {
    let best = report.best().unwrap().clone();
    Recommendation {
        use_multiple_sockets: best.placement.sockets_used() > 1,
        use_smt: best.placement.sockets.iter().flatten().any(|&occ| occ >= 2),
        resource_saving: report.resource_saving(tolerance).cloned(),
        best,
        tolerance,
    }
}

#[test]
fn recommendation_is_identical_across_jobs_and_cache() {
    let mut ctx = MachineContext::x3_2().unwrap();
    let candidates = ctx.enumerator().sampled(&ctx.spec, 4);
    let config = PredictorConfig::default();
    let tolerance = 0.95;
    let (mut best_ties, mut saving_ties) = (0, 0);
    for (i, wd) in equivalence_workloads(&mut ctx, 8000).iter().enumerate() {
        // A fully serial variant predicts the same speedup for every
        // placement, so the pick among equal maxima shows in the result.
        let mut serial_only = wd.clone();
        serial_only.parallel_fraction = 0.0;
        for (variant, wd) in [("as profiled", wd), ("serial", &serial_only)] {
            let report = placement_report(&ctx.description, wd, &candidates, &config).unwrap();
            let expected = recommendation_from_report(&report, tolerance);
            let o = &report.outcomes;
            best_ties += o.iter().filter(|x| x.speedup == expected.best.speedup).count() - 1;
            if let Some(rs) = &expected.resource_saving {
                let size = |x: &PlacementOutcome| (x.n_threads, x.placement.cores_used());
                let floor = tolerance * expected.best.speedup;
                saving_ties +=
                    o.iter().filter(|x| x.speedup >= floor && size(x) == size(rs)).count() - 1;
            }
            let serial =
                Recommendation::analyze(&ctx.description, wd, &candidates, tolerance, &config)
                    .unwrap();
            assert_eq!(serial, expected, "workload {i} ({variant}): analyze vs report");
            let expected_json = serde_json::to_string(&expected).unwrap();
            for jobs in [1, 4] {
                let exec = ExecContext::new(jobs);
                for pass in ["cold", "warm"] {
                    let rec = Recommendation::analyze_with(
                        &exec,
                        &ctx.description,
                        wd,
                        &candidates,
                        tolerance,
                        &config,
                    )
                    .unwrap();
                    assert_eq!(
                        serde_json::to_string(&rec).unwrap(),
                        expected_json,
                        "workload {i} ({variant}), jobs={jobs}, {pass} cache"
                    );
                }
                assert!(exec.cache_stats().hits >= candidates.len() as u64, "workload {i}");
                let uncached = ExecContext::new(jobs).with_cache(false);
                let rec = Recommendation::analyze_with(
                    &uncached,
                    &ctx.description,
                    wd,
                    &candidates,
                    tolerance,
                    &config,
                )
                .unwrap();
                assert_eq!(
                    serde_json::to_string(&rec).unwrap(),
                    expected_json,
                    "workload {i} ({variant}), jobs={jobs}, no cache"
                );
            }
        }
    }
    // Both tie-breaks must have been exercised, not just agreed on.
    assert!(best_ties > 0, "no equal maxima among the best speedups");
    assert!(saving_ties > 0, "no equal minima among the resource-saving sizes");
}

/// `PredictSession::predict_batch` against the per-candidate
/// `predict_with` loop the placement search ran before it: on
/// duplicate-free candidate lists the batch returns the loop's bits and
/// leaves equal cache counts (hits, misses, entries, evictions), cold,
/// warm and with the cache off, at one worker and at four.
///
/// Beyond that only counts can differ, never a value, because the cache
/// only short-circuits identical inputs. The batch reads every hit before
/// it stores any miss, so a candidate repeated within one list misses
/// twice where the loop hits its second time, and a shard that overflows
/// within one call may evict other victims (and so split later lookups
/// into hits and misses differently), as overflow counts already do
/// between shard layouts.
#[test]
fn batch_prediction_matches_the_per_candidate_loop() {
    let ctx = MachineContext::x3_2().unwrap();
    let config = PredictorConfig::default();
    let enumerator = ctx.enumerator();
    let lists = [("sampled(4)", enumerator.sampled(&ctx.spec, 4)), ("all()", enumerator.all())];
    let mut rng = Rng::new(9100);
    let workloads: Vec<WorkloadDescription> =
        (0..2).map(|_| random_description(&mut rng, &ctx.description)).collect();
    // `{:?}` prints every f64 round-trip exactly, so equal text is equal bits.
    let bits = |p: &Prediction| format!("{p:?}");
    for (name, candidates) in &lists {
        let mut distinct = candidates.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), candidates.len(), "{name} repeats a candidate");
        for (w, wd) in workloads.iter().enumerate() {
            for jobs in [1, 4] {
                for cached in [true, false] {
                    let looped_exec = ExecContext::new(jobs).with_cache(cached);
                    let batch_exec = ExecContext::new(jobs).with_cache(cached);
                    let looped_session =
                        PredictSession::new(&looped_exec, &ctx.description, wd, &config).unwrap();
                    let batch_session =
                        PredictSession::new(&batch_exec, &ctx.description, wd, &config).unwrap();
                    for pass in ["cold", "warm"] {
                        let looped: Vec<String> = looped_exec
                            .parallel_map_sized(
                                candidates,
                                |c| c.total_threads() as f64,
                                |c| {
                                    let placement = c.instantiate(&ctx.description)?;
                                    looped_session.predict_with(&placement, bits)
                                },
                            )
                            .into_iter()
                            .collect::<Result<_, PandiaError>>()
                            .unwrap();
                        let batched = batch_session.predict_batch(candidates, bits).unwrap();
                        let case =
                            format!("{name}, workload {w}, jobs={jobs}, cache {cached}, {pass}");
                        assert!(batched == looped, "{case}: answers differ");
                        assert_eq!(batch_exec.cache_stats(), looped_exec.cache_stats(), "{case}");
                    }
                }
            }
        }
    }
}

#[test]
fn scaling_profile_and_plan_are_identical_across_jobs() {
    let mut ctx = MachineContext::x3_2().unwrap();
    let candidates = ctx.enumerator().sampled(&ctx.spec, 4);
    let config = PredictorConfig::default();
    for (i, wd) in equivalence_workloads(&mut ctx, 6000).iter().enumerate() {
        let serial_profile =
            pandia::core::scaling_profile(&ctx.description, wd, &candidates, &config).unwrap();
        let serial_plan = pandia::core::plan(
            &ctx.description,
            wd,
            &candidates,
            pandia::core::Target::FractionOfPeak(0.9),
            &config,
        )
        .unwrap();
        for jobs in [1, 4] {
            let exec = ExecContext::new(jobs);
            let profile = pandia::core::scaling_profile_with(
                &exec,
                &ctx.description,
                wd,
                &candidates,
                &config,
            )
            .unwrap();
            assert_eq!(
                serde_json::to_string(&profile).unwrap(),
                serde_json::to_string(&serial_profile).unwrap(),
                "workload {i}, jobs={jobs}"
            );
            let plan = pandia::core::plan_with(
                &exec,
                &ctx.description,
                wd,
                &candidates,
                pandia::core::Target::FractionOfPeak(0.9),
                &config,
            )
            .unwrap();
            assert_eq!(
                serde_json::to_string(&plan).unwrap(),
                serde_json::to_string(&serial_plan).unwrap(),
                "workload {i}, jobs={jobs}"
            );
        }
    }
}

#[test]
fn coschedule_is_identical_across_jobs_and_cache() {
    let machine = MachineDescription::toy();
    let mut rng = Rng::new(7000);
    for case in 0..4 {
        let mut a = random_description(&mut rng, &machine);
        a.name = "a".into();
        // Keep the joint search feasible: mostly-parallel jobs.
        a.parallel_fraction = a.parallel_fraction.max(0.9);
        let mut b = random_description(&mut rng, &machine);
        b.name = "b".into();
        b.parallel_fraction = b.parallel_fraction.max(0.9);
        let serial = CoScheduler::new(&machine).schedule(&[&a, &b]).unwrap();
        for jobs in [2, 4] {
            let parallel = CoScheduler::new(&machine)
                .with_exec(ExecContext::new(jobs))
                .schedule(&[&a, &b])
                .unwrap();
            assert_eq!(serial, parallel, "case {case}, jobs={jobs}");
            let uncached = CoScheduler::new(&machine)
                .with_exec(ExecContext::new(jobs).with_cache(false))
                .schedule(&[&a, &b])
                .unwrap();
            assert_eq!(serial, uncached, "case {case}, jobs={jobs}, no cache");
        }
    }
}

#[test]
fn profile_many_matches_serial_profiling() {
    let ctx = MachineContext::x3_2().unwrap();
    let profiler = WorkloadProfiler::new(&ctx.description);
    let workloads: Vec<(Behavior, String)> = ["EP", "CG", "MG"]
        .iter()
        .map(|n| {
            let entry = by_name(n).expect("registered");
            (entry.behavior.clone(), entry.name.to_string())
        })
        .collect();
    let mut serial = Vec::new();
    for (behavior, name) in &workloads {
        let mut platform = ctx.platform.clone();
        serial.push(profiler.profile(&mut platform, behavior, name).unwrap());
    }
    let exec = ExecContext::new(3);
    let parallel = profiler.profile_many(&exec, &ctx.platform, &workloads).unwrap();
    assert_eq!(serial, parallel);
}
