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
    solver.solve(&demands, &max_rates(entities), &pool_caps(&demands, capacities)).to_vec()
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
        let cold = solver.solve(&demands, &max_rates(&entities), &caps).to_vec();
        assert_matches_solve(&cold, &entities, &capacities, "cold", seed);
        let hit = solver.solve_same_demands(&demands, &max_rates(&entities), &caps);
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
                solver.solve(&demands, &max_rates(&cand), &caps)
            } else {
                solver.solve_same_demands(&demands, &max_rates(&cand), &caps)
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
                solver.solve(&demands, &rates, &pools)
            } else {
                solver.solve_same_demands(&demands, &rates, &pools)
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
        known.solve(&demands, &max_rates(&entities), &pool_caps(&demands, &caps));
        for step in 0..9 {
            match step % 3 {
                0 => new_rate_caps(&mut rng, &mut entities),
                1 => caps = base_caps.iter().map(|c| c * rng.f64_in(0.5, 2.0)).collect(),
                _ => {}
            }
            let pools = pool_caps(&demands, &caps);
            let got = known.solve_same_demands(&demands, &max_rates(&entities), &pools);
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
                solver.solve(&demands, &max_rates(&spec), &caps)
            } else {
                solver.solve_same_demands(&demands, &max_rates(&spec), &caps)
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
