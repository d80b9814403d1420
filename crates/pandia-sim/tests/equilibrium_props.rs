//! Property suite for the max-min fair equilibrium solver and its
//! incremental wrapper.
//!
//! The build environment is offline, so instead of proptest these tests
//! drive randomized demand/capacity vectors from a small deterministic
//! splitmix64 generator: every case is reproducible from its printed
//! seed. Instances are written as the spec's `EntityDemand` bundles and
//! compiled into a `Demands` structure for the incremental solver.

use pandia_sim::equilibrium::{
    pool_loads, solve, Demands, EntityDemand, IncrementalSolver, SolveStats,
};

const CASES: u64 = 48;

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

/// A random solver instance: a handful of entities with sparse demand
/// bundles over a random pool count, plus the capacity vector.
fn random_instance(rng: &mut Rng) -> (Vec<EntityDemand>, Vec<f64>) {
    let n_pools = rng.usize_in(2, 8);
    let n_entities = rng.usize_in(1, 10);
    let capacities: Vec<f64> = (0..n_pools).map(|_| rng.f64_in(0.5, 20.0)).collect();
    let entities = (0..n_entities)
        .map(|_| {
            let touched = rng.usize_in(1, n_pools);
            let mut demands = Vec::with_capacity(touched);
            for _ in 0..touched {
                demands.push((rng.usize_in(0, n_pools - 1), rng.f64_in(0.05, 6.0)));
            }
            EntityDemand { demands, max_rate: rng.f64_in(0.1, 3.0) }
        })
        .collect();
    (entities, capacities)
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str, seed: u64) {
    assert_eq!(got.len(), want.len(), "{what} lengths (seed {seed})");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} {i} differs, {x} vs {y} (seed {seed})");
    }
}

/// The structure of `entities`' bundles, every entry kept (zero values
/// too) in push order, with each entry's value written. Even entities
/// take the high value of their pairs and odd ones the low value; the
/// other value is NaN, so a pick from the wrong side poisons the solve.
fn compile(entities: &[EntityDemand]) -> Demands {
    let entries: Vec<(usize, usize)> = entities
        .iter()
        .enumerate()
        .flat_map(|(e, ent)| ent.demands.iter().map(move |&(r, _)| (e, r)))
        .collect();
    let high: Vec<bool> = (0..entities.len()).map(|e| e % 2 == 0).collect();
    let pairs: Vec<[f64; 2]> = entities
        .iter()
        .enumerate()
        .flat_map(|(e, ent)| ent.demands.iter().map(move |&(_, d)| (e, d)))
        .map(|(e, d)| if high[e] { [f64::NAN, d] } else { [d, f64::NAN] })
        .collect();
    let mut demands = Demands::compile(entities.len(), &entries);
    let slot_pairs = demands.in_slot_order(&pairs);
    demands.set_values(&slot_pairs, &high);
    demands
}

fn max_rates(entities: &[EntityDemand]) -> Vec<f64> {
    entities.iter().map(|e| e.max_rate).collect()
}

/// The capacities of `demands`' pools, out of the full vector.
fn pool_caps(demands: &Demands, capacities: &[f64]) -> Vec<f64> {
    demands.pools().iter().map(|&r| capacities[r]).collect()
}

/// [`IncrementalSolver::solve`] on `entities` compiled afresh.
fn solve_compiled(
    solver: &mut IncrementalSolver,
    entities: &[EntityDemand],
    capacities: &[f64],
) -> Vec<f64> {
    let demands = compile(entities);
    solver.solve(&demands, &max_rates(entities), &pool_caps(&demands, capacities), None).to_vec()
}

/// Asserts an [`IncrementalSolver`]'s `rates` are bitwise [`solve`]'s on
/// the same inputs, and so are the loads [`pool_loads`] and
/// [`Demands::loads`] derive from them.
fn assert_matches_solve(
    rates: &[f64],
    entities: &[EntityDemand],
    capacities: &[f64],
    what: &str,
    seed: u64,
) {
    let want = solve(entities, capacities);
    assert_bits_eq(rates, &want.rates, &format!("{what}: rate"), seed);
    let loads = pool_loads(entities, rates, capacities.len());
    assert_bits_eq(&loads, &want.loads, &format!("{what}: load"), seed);
    let compiled = compile(entities).loads(rates, capacities.len());
    assert_bits_eq(&compiled, &want.loads, &format!("{what}: compiled load"), seed);
}

#[test]
fn no_pool_is_over_allocated() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (entities, capacities) = random_instance(&mut rng);
        let alloc = solve(&entities, &capacities);
        for (r, (&load, &cap)) in alloc.loads.iter().zip(&capacities).enumerate() {
            assert!(
                load <= cap * (1.0 + 1e-6) + 1e-9,
                "pool {r} over-allocated: {load} > {cap} (seed {seed})"
            );
        }
        for (e, &rate) in alloc.rates.iter().enumerate() {
            assert!(rate >= 0.0, "entity {e} has negative rate {rate} (seed {seed})");
            assert!(
                rate <= entities[e].max_rate + 1e-9,
                "entity {e} exceeds its cap: {rate} > {} (seed {seed})",
                entities[e].max_rate
            );
        }
    }
}

#[test]
fn allocation_is_work_conserving() {
    // Progressive filling stops only when every entity is frozen: each is
    // either at its intrinsic cap or touches a saturated pool.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (entities, capacities) = random_instance(&mut rng);
        let alloc = solve(&entities, &capacities);
        let saturated: Vec<bool> = alloc
            .loads
            .iter()
            .zip(&capacities)
            .map(|(&load, &cap)| cap - load <= 1e-6 * cap.max(1.0))
            .collect();
        for (e, ent) in entities.iter().enumerate() {
            let capped = alloc.rates[e] >= ent.max_rate - 1e-9;
            let blocked = ent.demands.iter().any(|&(r, d)| d > 0.0 && saturated[r]);
            assert!(
                capped || blocked,
                "entity {e} is neither capped ({} < {}) nor blocked (seed {seed})",
                alloc.rates[e],
                ent.max_rate
            );
        }
    }
}

#[test]
fn added_demand_never_raises_other_rates() {
    // Monotonicity under added demand. With *sparse* bundles max-min
    // fairness is famously non-monotonic (a newcomer can saturate pool A
    // early, freeze A's users, and leave more of pool B's slope to a
    // third entity), so the property is asserted where it provably holds:
    // dense bundles, where every entity touches every pool and all rates
    // are `min(cap, common fill level)` — adding an entity only raises
    // every pool's consumption at each fill level, so the saturation
    // level, and with it every pre-existing rate, can only drop.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let n_pools = rng.usize_in(2, 8);
        let capacities: Vec<f64> = (0..n_pools).map(|_| rng.f64_in(0.5, 20.0)).collect();
        let dense = |rng: &mut Rng| EntityDemand {
            demands: (0..n_pools).map(|r| (r, rng.f64_in(0.05, 6.0))).collect(),
            max_rate: rng.f64_in(0.1, 3.0),
        };
        let mut entities: Vec<EntityDemand> =
            (0..rng.usize_in(1, 10)).map(|_| dense(&mut rng)).collect();
        let before = solve(&entities, &capacities);
        entities.push(dense(&mut rng));
        let after = solve(&entities, &capacities);
        for (e, (&old, &new)) in before.rates.iter().zip(&after.rates).enumerate() {
            assert!(
                new <= old + 1e-9,
                "entity {e} sped up from {old} to {new} after contention grew (seed {seed})"
            );
        }
    }
}

#[test]
fn incremental_matches_from_scratch_bitwise() {
    // A cold build, an exact repeat through `solve_same_demands`, and
    // repeated single-entity removal (a thread finishing every step, each
    // a fresh build over reused buffers) must all reproduce the naive
    // solve bit for bit.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (mut entities, capacities) = random_instance(&mut rng);
        let removals = entities.len() as u64;
        let mut solver = IncrementalSolver::new();

        let demands = compile(&entities);
        let caps = pool_caps(&demands, &capacities);
        let cold = solver.solve(&demands, &max_rates(&entities), &caps, None).to_vec();
        assert_matches_solve(&cold, &entities, &capacities, "cold", seed);
        let hit = solver.solve_same_demands(&demands, &max_rates(&entities), &caps, None);
        assert_bits_eq(hit, &cold, "cache hit: rate", seed);

        while !entities.is_empty() {
            let victim = rng.usize_in(0, entities.len() - 1);
            entities.remove(victim);
            let warm = solve_compiled(&mut solver, &entities, &capacities);
            assert_matches_solve(&warm, &entities, &capacities, "rebuild", seed);
        }
        let want = SolveStats { solves: 1 + removals, solves_skipped: 1, prefix_solves: 0 };
        assert_eq!(solver.stats(), want, "one exact repeat per case (seed {seed})");
    }
}

/// Drives one [`IncrementalSolver`] over `candidates` in order and asserts
/// each answer is bitwise the independent solve of that candidate, so
/// every reuse path the sharing pattern reaches is checked.
fn assert_batch_matches_independent(
    candidates: &[Vec<EntityDemand>],
    capacities: &[f64],
    what: &str,
    seed: u64,
) {
    let mut solver = IncrementalSolver::new();
    for (c, cand) in candidates.iter().enumerate() {
        let got = solve_compiled(&mut solver, cand, capacities);
        assert_matches_solve(&got, cand, capacities, &format!("{what} candidate {c}"), seed);
    }
}

#[test]
fn batched_solves_match_independent_when_all_candidates_share() {
    // All-share: every candidate has the same demand bundles and only the
    // rate caps move — the pure prefix fan-out case. One compiled
    // structure must serve the whole batch without changing a single bit.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (base, capacities) = random_instance(&mut rng);
        let demands = compile(&base);
        let caps = pool_caps(&demands, &capacities);
        let mut solver = IncrementalSolver::new();
        for c in 0..5 {
            let cand: Vec<EntityDemand> = base
                .iter()
                .map(|e| EntityDemand {
                    demands: e.demands.clone(),
                    max_rate: rng.f64_in(0.1, 3.0),
                })
                .collect();
            let got = if c == 0 {
                solver.solve(&demands, &max_rates(&cand), &caps, None)
            } else {
                solver.solve_same_demands(&demands, &max_rates(&cand), &caps, None)
            };
            let what = format!("all-share candidate {c}");
            assert_matches_solve(got, &cand, &capacities, &what, seed);
        }
        let want = SolveStats { solves: 1, solves_skipped: 0, prefix_solves: 4 };
        assert_eq!(solver.stats(), want, "one build fans out (seed {seed})");
    }
}

#[test]
fn batched_solves_match_independent_when_no_candidates_share() {
    // None-share: unrelated instances back to back. The batch degenerates
    // to from-scratch solves and must still be exact.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let n_pools = rng.usize_in(2, 8);
        let capacities: Vec<f64> = (0..n_pools).map(|_| rng.f64_in(0.5, 20.0)).collect();
        let candidates: Vec<Vec<EntityDemand>> = (0..5)
            .map(|_| {
                (0..rng.usize_in(1, 8))
                    .map(|_| {
                        let touched = rng.usize_in(1, n_pools);
                        let mut demands = Vec::with_capacity(touched);
                        for _ in 0..touched {
                            demands.push((rng.usize_in(0, n_pools - 1), rng.f64_in(0.05, 6.0)));
                        }
                        EntityDemand { demands, max_rate: rng.f64_in(0.1, 3.0) }
                    })
                    .collect()
            })
            .collect();
        assert_batch_matches_independent(&candidates, &capacities, "none-share", seed);
    }
}

#[test]
fn batched_solves_match_independent_on_nested_prefixes() {
    // Nested prefixes: candidate k is the first k+1 entities of a common
    // list, swept longest → shortest → longest, so consecutive builds
    // shrink and regrow the solver's retained buffers.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (base, capacities) = random_instance(&mut rng);
        let mut candidates: Vec<Vec<EntityDemand>> =
            (0..base.len()).rev().map(|k| base[..=k].to_vec()).collect();
        candidates.extend((0..base.len()).map(|k| base[..=k].to_vec()));
        assert_batch_matches_independent(&candidates, &capacities, "nested", seed);
    }
}

#[test]
fn batched_prefix_reuse_survives_capacity_changes() {
    // The compiled structure and its slopes are independent of
    // capacities, so a batch whose candidates share demands but see
    // different capacity vectors must still fan one solve across all of
    // them.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (base, capacities) = random_instance(&mut rng);
        let demands = compile(&base);
        let mut solver = IncrementalSolver::new();
        for step in 0..4 {
            let caps: Vec<f64> = capacities.iter().map(|c| c * (1.0 + 0.1 * step as f64)).collect();
            let (rates, pools) = (max_rates(&base), pool_caps(&demands, &caps));
            let got = if step == 0 {
                solver.solve(&demands, &rates, &pools, None)
            } else {
                solver.solve_same_demands(&demands, &rates, &pools, None)
            };
            assert_matches_solve(got, &base, &caps, "capacity sweep", seed);
        }
        let stats = solver.stats();
        assert_eq!(stats.solves, 1, "only the first call builds state: {stats:?}");
        assert_eq!(
            stats.prefix_solves, 3,
            "capacity-only changes must ride the batched path: {stats:?}"
        );
        assert_eq!(stats.solves_skipped, 0, "every capacity vector is new: {stats:?}");
    }
}

#[test]
fn incremental_survives_interleaved_input_changes() {
    // Alternating between two unrelated instances (as the engine's two
    // relaxation rounds do) must never poison the cache.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (a_entities, a_caps) = random_instance(&mut rng);
        let (b_entities, b_caps) = random_instance(&mut rng);
        let mut solver = IncrementalSolver::new();
        for _ in 0..3 {
            let a = solve_compiled(&mut solver, &a_entities, &a_caps);
            assert_matches_solve(&a, &a_entities, &a_caps, "interleaved a", seed);
            let b = solve_compiled(&mut solver, &b_entities, &b_caps);
            assert_matches_solve(&b, &b_entities, &b_caps, "interleaved b", seed);
        }
    }
}

/// Perturbs every rate cap (kept positive, so every entity stays
/// active).
fn new_rate_caps(rng: &mut Rng, entities: &mut [EntityDemand]) {
    for e in entities {
        e.max_rate = rng.f64_in(0.1, 3.0);
    }
}

#[test]
fn same_demand_solves_match_plain_solves() {
    // `solve_same_demands` reuses the written values for callers that
    // know no demand value moved. Over rate-cap and capacity changes
    // only (and exact repeats), it must return `solve`'s bits, skipping
    // exactly the repeats and re-filling on every other call.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (mut entities, base_caps) = random_instance(&mut rng);
        let demands = compile(&entities);
        let mut caps = base_caps.clone();
        let mut known = IncrementalSolver::new();
        known.solve(&demands, &max_rates(&entities), &pool_caps(&demands, &caps), None);
        for step in 0..9 {
            match step % 3 {
                0 => new_rate_caps(&mut rng, &mut entities),
                1 => caps = base_caps.iter().map(|c| c * rng.f64_in(0.5, 2.0)).collect(),
                _ => {}
            }
            let pools = pool_caps(&demands, &caps);
            let got = known.solve_same_demands(&demands, &max_rates(&entities), &pools, None);
            assert_matches_solve(got, &entities, &caps, "same demands", seed);
        }
        let want = SolveStats { solves: 1, solves_skipped: 3, prefix_solves: 6 };
        assert_eq!(known.stats(), want, "one exact repeat per cycle (seed {seed})");
    }
}

/// `entities` with a zero-valued entry added to each bundle at a random
/// position, on a random pool or on `spare`, a pool no positive entry
/// names: the structure keeps such an entry, the spec's bundles omit it.
fn with_zero_entries(rng: &mut Rng, entities: &[EntityDemand], spare: usize) -> Vec<EntityDemand> {
    entities
        .iter()
        .map(|e| {
            let mut demands = e.demands.clone();
            let pool = if rng.usize_in(0, 2) == 0 { spare } else { rng.usize_in(0, spare) };
            demands.insert(rng.usize_in(0, demands.len()), (pool, 0.0));
            EntityDemand { demands, ..e.clone() }
        })
        .collect()
}

#[test]
fn zero_entries_and_inactive_entities_match_the_spec() {
    // A compiled structure may hold entries whose value is 0.0 in this
    // solve (the engine's low burst phase at multiplier 0.0) and entities
    // whose cap is 0.0. The spec's bundles leave the zero entries out and
    // its solve leaves the inactive entities out; the incremental rates
    // and loads must still be its bits, through `solve` and through
    // `solve_same_demands` as the inactive set moves.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (mut spec, mut capacities) = random_instance(&mut rng);
        let spare = capacities.len();
        capacities.push(rng.f64_in(0.5, 20.0));
        let structure = with_zero_entries(&mut rng, &spec, spare);
        let demands = compile(&structure);
        let caps = pool_caps(&demands, &capacities);
        let mut solver = IncrementalSolver::new();
        for step in 0..4 {
            let inactive = rng.usize_in(0, spec.len() - 1);
            new_rate_caps(&mut rng, &mut spec);
            spec[inactive].max_rate = 0.0;
            let got = if step == 0 {
                solver.solve(&demands, &max_rates(&spec), &caps, None)
            } else {
                solver.solve_same_demands(&demands, &max_rates(&spec), &caps, None)
            };
            assert_eq!(got[inactive], 0.0, "inactive entity {inactive} moved (seed {seed})");
            let what = format!("zero entries, step {step}");
            assert_matches_solve(got, &spec, &capacities, &what, seed);
            let loads = demands.loads(got, capacities.len());
            assert_bits_eq(&loads, &solve(&spec, &capacities).loads, "structure load", seed);
        }
        // A lone entity is the inactive one every step, so its caps repeat
        // bitwise and the later calls skip; otherwise every call fills.
        let repeats = if spec.len() == 1 { 3 } else { 0 };
        let want = SolveStats { solves: 1, solves_skipped: repeats, prefix_solves: 3 - repeats };
        assert_eq!(solver.stats(), want, "one solve, then fills (seed {seed})");
    }
}

/// `random_instance` with one more pool, which every entity also uses at
/// a random position in its bundle: a pool that can saturate under every
/// entity at the first step.
fn shared_pool_instance(rng: &mut Rng) -> (Vec<EntityDemand>, Vec<f64>) {
    let (mut entities, mut capacities) = random_instance(rng);
    let shared = capacities.len();
    capacities.push(rng.f64_in(0.5, 4.0));
    for e in &mut entities {
        let at = rng.usize_in(0, e.demands.len());
        e.demands.insert(at, (shared, rng.f64_in(0.05, 6.0)));
    }
    (entities, capacities)
}

#[test]
fn a_saturated_first_step_is_every_rate() {
    // Whenever `first_step` says its step freezes every entity, any rate
    // caps at or above the step (one of them exactly the step) leave the
    // step as every rate, with the loads of `Demands::loads`; and a solve
    // given the step is bitwise the one that scans for it.
    let mut answered = 0;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (mut entities, capacities) = shared_pool_instance(&mut rng);
        let demands = compile(&entities);
        let caps = pool_caps(&demands, &capacities);
        let mut solver = IncrementalSolver::new();
        let (step, freezes_all) = solver.first_step(&demands, &caps);
        if !freezes_all {
            continue;
        }
        answered += 1;
        for e in &mut entities {
            e.max_rate = step * rng.f64_in(1.0, 3.0);
        }
        let at_step = rng.usize_in(0, entities.len() - 1);
        entities[at_step].max_rate = step;
        let want = vec![step; entities.len()];
        let alloc = solve(&entities, &capacities);
        assert_bits_eq(&alloc.rates, &want, "saturated step: rate", seed);
        let loads = demands.loads(&want, capacities.len());
        assert_bits_eq(&alloc.loads, &loads, "saturated step: load", seed);
        let given = solver.solve(&demands, &max_rates(&entities), &caps, Some(step)).to_vec();
        assert_bits_eq(&given, &want, "saturated step, given: rate", seed);
        let mut scanning = IncrementalSolver::new();
        let scanned = scanning.solve(&demands, &max_rates(&entities), &caps, None);
        assert_bits_eq(scanned, &want, "saturated step, scanned: rate", seed);
    }
    assert!(answered >= CASES / 2, "only {answered} of {CASES} instances had a saturated step");
}

#[test]
fn a_given_first_step_matches_a_scan() {
    // `first_step`'s step spares the first filling round its scan: on any
    // instance and any caps, including caps that are not positive (those
    // entities start frozen, so the fill must scan after all), `solve` and
    // `solve_same_demands` return the bits they return without it.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (mut entities, capacities) =
            if seed % 2 == 0 { random_instance(&mut rng) } else { shared_pool_instance(&mut rng) };
        let demands = compile(&entities);
        let caps = pool_caps(&demands, &capacities);
        let (mut given, mut scanned) = (IncrementalSolver::new(), IncrementalSolver::new());
        let (step, _) = given.first_step(&demands, &caps);
        for call in 0..4 {
            new_rate_caps(&mut rng, &mut entities);
            if call % 2 == 1 {
                let frozen = rng.usize_in(0, entities.len() - 1);
                entities[frozen].max_rate = 0.0;
            }
            let maxr = max_rates(&entities);
            let (a, b) = if call == 0 {
                let a = given.solve(&demands, &maxr, &caps, Some(step)).to_vec();
                (a, scanned.solve(&demands, &maxr, &caps, None).to_vec())
            } else {
                let a = given.solve_same_demands(&demands, &maxr, &caps, Some(step)).to_vec();
                (a, scanned.solve_same_demands(&demands, &maxr, &caps, None).to_vec())
            };
            assert_bits_eq(&a, &b, &format!("call {call}: rate"), seed);
            assert_matches_solve(&a, &entities, &capacities, &format!("call {call}"), seed);
        }
    }
}

/// A two-entity structure on pools 0 and 1 with the given entries
/// `(entity, pool, [low, high])`, entity 0 in its high phase and entity 1
/// in its low phase.
fn two_entities(entries: &[(usize, usize, [f64; 2])]) -> Demands {
    let structure: Vec<(usize, usize)> = entries.iter().map(|&(e, r, _)| (e, r)).collect();
    let pairs: Vec<[f64; 2]> = entries.iter().map(|&(_, _, pair)| pair).collect();
    let mut demands = Demands::compile(2, &structure);
    let slot_pairs = demands.in_slot_order(&pairs);
    demands.set_values(&slot_pairs, &[true, false]);
    demands
}

#[test]
fn no_step_when_an_entity_escapes_the_saturating_pools() {
    // Pool 0 (capacity 2) saturates at the first step, 2 / 4 = 0.5; pool 1
    // (capacity 100) does not. Entity 1 keeps rising past the step in both
    // cases, so no step may be claimed for it.
    let caps = [2.0, 100.0];
    // Its only entry on pool 0 is a low-phase value of 0.0.
    let zero_low = two_entities(&[(0, 0, [1.0, 4.0]), (1, 0, [0.0, 4.0]), (1, 1, [1.0, 1.0])]);
    // It never touches pool 0.
    let elsewhere = two_entities(&[(0, 0, [1.0, 4.0]), (1, 1, [1.0, 1.0])]);
    for (what, demands) in [("zero low-phase entry", &zero_low), ("untouched pool", &elsewhere)] {
        let mut solver = IncrementalSolver::new();
        assert_eq!(solver.first_step(demands, &caps), (0.5, false), "{what}");
        let rates = solver.solve(demands, &[1.0, 1.0], &caps, Some(0.5));
        assert_eq!(rates, [0.5, 1.0], "{what}: entity 1 rises to its cap");
    }
}

#[test]
fn a_cap_one_ulp_below_the_step_is_not_the_step() {
    // The shortcut needs every cap at or above the step: one cap a single
    // ulp below it binds first, and that entity's rate is its cap. So the
    // engine must decline there and solve.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (mut entities, capacities) = shared_pool_instance(&mut rng);
        let demands = compile(&entities);
        let caps = pool_caps(&demands, &capacities);
        let (step, freezes_all) = IncrementalSolver::new().first_step(&demands, &caps);
        if !freezes_all {
            continue;
        }
        let below = f64::from_bits(step.to_bits() - 1);
        for e in &mut entities {
            e.max_rate = step;
        }
        let low = rng.usize_in(0, entities.len() - 1);
        entities[low].max_rate = below;
        let alloc = solve(&entities, &capacities);
        assert_eq!(alloc.rates[low].to_bits(), below.to_bits(), "capped entity (seed {seed})");
    }
}
