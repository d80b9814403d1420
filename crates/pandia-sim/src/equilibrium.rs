//! Max-min fair rate allocation over contended resources.
//!
//! Each runnable entity (workload thread, stressor, background spinner)
//! demands a fixed bundle of resources per unit of progress. Given resource
//! capacities, the solver finds the progressive-filling (max-min fair)
//! progress rates: all entities speed up together until some resource
//! saturates; entities bottlenecked there freeze and the rest keep rising,
//! until every entity is frozen by either a saturated resource or its own
//! intrinsic speed limit.
//!
//! This mirrors how hardware arbitrates contended bandwidth closely enough
//! for a ground-truth model, while being mechanically different from the
//! Pandia predictor's per-thread oversubscription factors.

/// One entity's demand bundle: sparse `(resource index, demand per unit of
//  progress)` pairs plus an intrinsic rate cap.
#[derive(Debug, Clone)]
pub struct EntityDemand {
    /// Sparse per-unit demands: `(resource index, amount per progress unit)`.
    pub demands: Vec<(usize, f64)>,
    /// Intrinsic maximum progress rate (dependency-limited speed).
    pub max_rate: f64,
}

/// Result of an equilibrium solve.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Progress rate per entity, same order as the input.
    pub rates: Vec<f64>,
    /// Total load placed on each resource by the solution.
    pub loads: Vec<f64>,
}

/// Solves the max-min fair allocation.
///
/// `capacities[r]` may be `f64::INFINITY`-like large values for resources
/// that never contend. Entities with empty demand bundles simply run at
/// their `max_rate`.
pub fn solve(entities: &[EntityDemand], capacities: &[f64]) -> Allocation {
    let n = entities.len();
    let m = capacities.len();
    let mut rates = vec![0.0; n];
    if n == 0 {
        return Allocation { rates, loads: vec![0.0; m] };
    }

    let mut active: Vec<usize> = (0..n).filter(|&e| entities[e].max_rate > 0.0).collect();
    let mut residual: Vec<f64> = capacities.to_vec();
    // Track which resources have saturated so we can freeze their users.
    let mut saturated = vec![false; m];

    // Each iteration freezes at least one entity, so this terminates in at
    // most `n` rounds.
    while !active.is_empty() {
        // Slope of load increase per unit of common rate increase.
        let mut slope = vec![0.0; m];
        for &e in &active {
            for &(r, d) in &entities[e].demands {
                slope[r] += d;
            }
        }
        // Largest common increase before a capacity or a rate cap binds.
        let mut delta = f64::INFINITY;
        for (r, &s) in slope.iter().enumerate() {
            if s > 0.0 {
                delta = delta.min((residual[r].max(0.0)) / s);
            }
        }
        for &e in &active {
            delta = delta.min(entities[e].max_rate - rates[e]);
        }
        if !delta.is_finite() {
            // No binding constraint at all (can only happen with infinite
            // max rates, which callers do not construct). Bail out safely.
            break;
        }
        let delta = delta.max(0.0);
        for &e in &active {
            rates[e] += delta;
        }
        for (r, &s) in slope.iter().enumerate() {
            if s > 0.0 {
                residual[r] -= s * delta;
                if residual[r] <= 1e-9 * capacities[r].max(1.0) {
                    residual[r] = residual[r].max(0.0);
                    saturated[r] = true;
                }
            }
        }
        // Freeze entities at their cap or touching a saturated resource.
        active.retain(|&e| {
            if rates[e] >= entities[e].max_rate - 1e-12 {
                return false;
            }
            !entities[e].demands.iter().any(|&(r, d)| d > 0.0 && saturated[r])
        });
    }

    let loads = pool_loads(entities, &rates, m);
    Allocation { rates, loads }
}

/// The load each of `pools` resources carries at `rates`: every entity's
/// rate times each of its per-unit demands, summed in entity order. A
/// solve's loads are `pool_loads` of its own rates.
pub fn pool_loads(entities: &[EntityDemand], rates: &[f64], pools: usize) -> Vec<f64> {
    let mut loads = vec![0.0; pools];
    for (ent, &rate) in entities.iter().zip(rates) {
        for &(r, d) in &ent.demands {
            loads[r] += rate * d;
        }
    }
    loads
}

/// Counters kept by an [`IncrementalSolver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// [`IncrementalSolver::solve`] calls: each builds the pristine
    /// contributor state from its entities and runs the filling loop.
    pub solves: u64,
    /// [`IncrementalSolver::solve_same_demands`] calls answered from the
    /// cached rates: the rate caps and capacities were bitwise equal
    /// to the previous call's as well.
    pub solves_skipped: u64,
    /// [`IncrementalSolver::solve_same_demands`] calls whose rate caps or
    /// capacities moved: the pristine state is shared outright and only
    /// the filling loop runs (the engine's later relaxation rounds).
    pub prefix_solves: u64,
}

/// The pristine (pre-iteration) contributor state of an entity list:
/// what [`solve`] derives before its first filling round.
///
/// A pool's slope is accumulated left to right as the entities are
/// added, the same addition sequence [`solve`]'s first round performs,
/// so a fill over this state starts from the very bits a from-scratch
/// solve would.
///
/// Every buffer is retained across builds and refilled in place, so a
/// long solve sequence settles into zero steady-state allocation: the
/// solver sits two calls deep in the engine's per-segment hot loop.
#[derive(Debug, Default)]
struct PristineState {
    /// The rate-cap bits of the last call's entities, which
    /// [`IncrementalSolver::solve_same_demands`] compares to skip a fill.
    max_rates: Vec<u64>,
    /// A copy of the entities the state was built from, read only by
    /// debug builds' check of `solve_same_demands`'s contract. Slots are
    /// reused on rebuild so inner demand vectors keep their capacity.
    #[cfg(debug_assertions)]
    entities: Vec<EntityDemand>,
    /// Entity indices with positive max rate, ascending.
    active: Vec<usize>,
    /// Per-pool `(entity, demand)` contributor lists in entity order.
    contrib: Vec<Vec<(usize, f64)>>,
    /// Per-pool contributor count, kept equal to `contrib[r].len()`. The
    /// filling loop seeds its touched-pool list and live counters from
    /// this dense array instead of walking `m` vector headers per call.
    live: Vec<u32>,
    /// Per-pool slope: the running left-to-right sum of its contributors.
    slope: Vec<f64>,
}

/// Whether two entities build the same pristine contributor state: the
/// demand bundles are bitwise equal and the entity is active (positive
/// max rate) in both. The *value* of a positive max rate only matters to
/// the filling loop, which always reads it fresh.
#[cfg(debug_assertions)]
fn same_pristine(a: &EntityDemand, b: &EntityDemand) -> bool {
    (a.max_rate > 0.0) == (b.max_rate > 0.0)
        && a.demands.len() == b.demands.len()
        && a.demands
            .iter()
            .zip(&b.demands)
            .all(|(&(ra, da), &(rb, db))| ra == rb && da.to_bits() == db.to_bits())
}

impl PristineState {
    /// Rebuilds the state for `entities` over `m` pools.
    fn build(&mut self, entities: &[EntityDemand], m: usize) {
        #[cfg(debug_assertions)]
        self.copy_entities(entities);
        self.active.clear();
        for list in &mut self.contrib {
            list.clear();
        }
        self.contrib.resize_with(m, Vec::new);
        self.live.clear();
        self.live.resize(m, 0);
        self.slope.clear();
        self.slope.resize(m, 0.0);
        for (idx, e) in entities.iter().enumerate() {
            if e.max_rate > 0.0 {
                self.active.push(idx);
                for &(r, d) in &e.demands {
                    self.contrib[r].push((idx, d));
                    self.live[r] += 1;
                    self.slope[r] += d;
                }
            }
        }
    }

    /// Copies `entities` into [`Self::entities`], reusing its slots.
    #[cfg(debug_assertions)]
    fn copy_entities(&mut self, entities: &[EntityDemand]) {
        self.entities.truncate(entities.len());
        for (idx, e) in entities.iter().enumerate() {
            if let Some(slot) = self.entities.get_mut(idx) {
                slot.max_rate = e.max_rate;
                slot.demands.clear();
                slot.demands.extend_from_slice(&e.demands);
            } else {
                // lint: allow(H2): first-use growth only; steady state reuses the slot
                self.entities.push(e.clone());
            }
        }
    }
}

/// Reusable working memory for [`fill_pristine`].
#[derive(Debug, Default)]
struct FillScratch {
    active: Vec<usize>,
    slope: Vec<f64>,
    residual: Vec<f64>,
    saturated: Vec<bool>,
    frozen: Vec<bool>,
    newly_frozen: Vec<usize>,
    dirty: Vec<usize>,
    /// Pools with at least one contributor, ascending. Every other pool's
    /// slope is exactly 0.0 for the whole fill, so the per-round scans
    /// visit only this list instead of all `m` pools.
    touched: Vec<usize>,
    /// Per-entity flag: the entity places positive demand on some pool
    /// that has saturated. Saturation is monotone within a fill, so the
    /// flag is set once — when the pool saturates, from its contributor
    /// list — and the freeze check reads one bool instead of re-scanning
    /// the entity's demand bundle every round.
    touch_sat: Vec<bool>,
    /// Unfrozen contributors remaining per pool. When it reaches zero the
    /// pool's slope is the empty filtered sum — exactly `0.0`, forever —
    /// so the pool is dropped from `touched` and the per-round scans keep
    /// shrinking as the fill freezes entities.
    contrib_live: Vec<u32>,
    /// Dense copy of the entities' rate caps: the per-round headroom scan
    /// and the freeze check read one packed `f64` array instead of
    /// striding across 32-byte `EntityDemand` records.
    maxr: Vec<f64>,
    /// Per-pool membership flag for the `dirty` list, so adding a pool is
    /// one bool test instead of a linear `contains` scan.
    dirty_flag: Vec<bool>,
}

/// A [`solve`] wrapper that keeps the pristine contributor state of its
/// last [`Self::solve`] call, for callers that then re-solve the same
/// demand bundles under new rate caps or capacities.
///
/// * [`Self::solve`] builds the pristine state from its entities and
///   runs the filling loop;
/// * [`Self::solve_same_demands`] is for callers that know no demand
///   bundle moved since the previous call: it returns the cached rates
///   outright when the rate caps and capacities are bitwise unchanged
///   too (*skip*), and otherwise shares the whole pristine state and
///   runs only the filling loop (*prefix*).
///
/// Both return rates only, **bit-identical** to [`solve`]'s on the same
/// inputs: a pool's slope is the same left-to-right sum over its
/// contributors in entity order, and IEEE arithmetic is deterministic,
/// so a reused value is the value the recomputation would produce. A
/// caller that wants the pool loads (the engine does only when traced)
/// asks [`pool_loads`] for them.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    /// Whether `pristine`/`rates` hold the previous call's inputs and
    /// result.
    primed: bool,
    pristine: PristineState,
    capacities: Vec<f64>,
    rates: Vec<f64>,
    scratch: FillScratch,
    stats: SolveStats,
}

impl IncrementalSolver {
    /// Creates a solver with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Solves the max-min fair rates and keeps the pristine state for
    /// [`Self::solve_same_demands`]. Bit-identical to [`solve`]'s rates;
    /// the returned slice is valid until the next call (the engine's hot
    /// loop copies the rates out, so nothing is cloned per solve).
    pub fn solve(&mut self, entities: &[EntityDemand], capacities: &[f64]) -> &[f64] {
        self.stats.solves += 1;
        self.pristine.build(entities, capacities.len());
        self.primed = true;
        self.fill(entities, capacities)
    }

    /// [`Self::solve`] for callers that *know* every demand bundle is
    /// bitwise unchanged since the previous call on this solver — the
    /// engine's later relaxation rounds, which rewrite only the rate caps
    /// between solves. Counts `solves_skipped` when the caps and
    /// capacities are also bit-equal and `prefix_solves` otherwise.
    /// Debug builds verify the caller's contract in full.
    pub fn solve_same_demands(&mut self, entities: &[EntityDemand], capacities: &[f64]) -> &[f64] {
        let pristine = &self.pristine;
        debug_assert!(self.primed);
        debug_assert_eq!(pristine.max_rates.len(), entities.len());
        debug_assert_eq!(pristine.slope.len(), capacities.len());
        #[cfg(debug_assertions)]
        debug_assert!(pristine
            .entities
            .iter()
            .zip(entities)
            .all(|(prev, cur)| same_pristine(prev, cur)));
        let caps_match = pristine
            .max_rates
            .iter()
            .zip(entities)
            .all(|(&prev, cur)| prev == cur.max_rate.to_bits());
        if caps_match && bits_eq(&self.capacities, capacities) {
            self.stats.solves_skipped += 1;
            return &self.rates;
        }
        self.stats.prefix_solves += 1;
        self.fill(entities, capacities)
    }

    /// Records this call's rate caps and capacities — the pristine state
    /// ignores their values, but the next call's skip check needs the
    /// exact bits — and runs the filling loop over the pristine state.
    fn fill(&mut self, entities: &[EntityDemand], capacities: &[f64]) -> &[f64] {
        self.pristine.max_rates.clear();
        self.pristine.max_rates.extend(entities.iter().map(|e| e.max_rate.to_bits()));
        self.capacities.clear();
        self.capacities.extend_from_slice(capacities);
        fill_pristine(
            entities,
            capacities,
            &self.pristine.active,
            &self.pristine.contrib,
            &self.pristine.live,
            &self.pristine.slope,
            &mut self.scratch,
            &mut self.rates,
        );
        &self.rates
    }
}

/// Bitwise equality of two capacity vectors.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Left-to-right sum of a contributor list skipping frozen entities: the
/// same addition sequence [`solve`] performs after those contributors
/// drop out, so the reused value is bit-exact without mutating the
/// pristine list.
fn frozen_filtered_sum(contrib: &[(usize, f64)], frozen: &[bool]) -> f64 {
    let mut s = 0.0;
    for &(e, d) in contrib {
        if !frozen[e] {
            s += d;
        }
    }
    s
}

/// The progressive-filling loop over a pre-built contributor state,
/// writing the rates into `rates`.
///
/// Mirrors [`solve`]'s rates exactly, except that a pool's slope is only
/// re-summed when one of its contributors froze in the previous round
/// (the "dirty" pools); an untouched pool's slope is the same ordered sum
/// [`solve`] would recompute, so reusing it is bit-exact. The loop ends
/// as soon as the last entity freezes, before the re-sum that only a
/// next round would read. The pristine contributor lists are read-only —
/// frozen entities are skipped via a flag vector rather than removed —
/// and all working memory lives in the caller-owned scratch, so the loop
/// performs no allocation beyond first-use buffer growth.
#[allow(clippy::too_many_arguments)] // the pristine state's parallel arrays are deliberate SoA
fn fill_pristine(
    entities: &[EntityDemand],
    capacities: &[f64],
    pristine_active: &[usize],
    contrib: &[Vec<(usize, f64)>],
    pristine_live: &[u32],
    pristine_slope: &[f64],
    scratch: &mut FillScratch,
    rates: &mut Vec<f64>,
) {
    let n = entities.len();
    let m = capacities.len();
    rates.clear();
    rates.resize(n, 0.0);
    if n == 0 {
        return;
    }
    let s = scratch;
    s.active.clear();
    s.active.extend_from_slice(pristine_active);
    s.slope.clear();
    s.slope.extend_from_slice(pristine_slope);
    s.residual.clear();
    s.residual.extend_from_slice(capacities);
    s.saturated.clear();
    s.saturated.resize(m, false);
    s.frozen.clear();
    s.frozen.resize(n, false);
    s.touch_sat.clear();
    s.touch_sat.resize(n, false);
    // A pool without contributors keeps slope exactly 0.0 all fill long
    // (pushes only touch demanded pools, re-sums only dirty ones), so the
    // per-round scans below can skip it — same `sl > 0.0` guard, same
    // ascending order, same arithmetic on the pools that do run.
    s.touched.clear();
    s.touched.extend((0..m).filter(|&r| pristine_live[r] > 0));
    s.contrib_live.clear();
    s.contrib_live.extend_from_slice(pristine_live);
    s.maxr.clear();
    s.maxr.extend(entities.iter().map(|e| e.max_rate));
    s.dirty_flag.clear();
    s.dirty_flag.resize(m, false);

    while !s.active.is_empty() {
        // Four independent min accumulators let the divisions pipeline
        // instead of serialising behind one running minimum; `f64::min`
        // is exact (the result is one of its operands, never a rounded
        // combination), so regrouping the reduction cannot change which
        // value survives.
        let (mut d0, mut d1, mut d2, mut d3) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut quads = s.touched.chunks_exact(4);
        for quad in &mut quads {
            let (r0, r1, r2, r3) = (quad[0], quad[1], quad[2], quad[3]);
            let (s0, s1, s2, s3) = (s.slope[r0], s.slope[r1], s.slope[r2], s.slope[r3]);
            if s0 > 0.0 {
                d0 = d0.min(s.residual[r0].max(0.0) / s0);
            }
            if s1 > 0.0 {
                d1 = d1.min(s.residual[r1].max(0.0) / s1);
            }
            if s2 > 0.0 {
                d2 = d2.min(s.residual[r2].max(0.0) / s2);
            }
            if s3 > 0.0 {
                d3 = d3.min(s.residual[r3].max(0.0) / s3);
            }
        }
        for &r in quads.remainder() {
            let sl = s.slope[r];
            if sl > 0.0 {
                d0 = d0.min((s.residual[r].max(0.0)) / sl);
            }
        }
        let mut delta = d0.min(d1).min(d2).min(d3);
        for &e in &s.active {
            delta = delta.min(s.maxr[e] - rates[e]);
        }
        if !delta.is_finite() {
            break;
        }
        let delta = delta.max(0.0);
        for &e in &s.active {
            rates[e] += delta;
        }
        for &r in &s.touched {
            let sl = s.slope[r];
            if sl > 0.0 {
                s.residual[r] -= sl * delta;
                if s.residual[r] <= 1e-9 * capacities[r].max(1.0) {
                    s.residual[r] = s.residual[r].max(0.0);
                    // First saturation of this pool: flag every entity
                    // that places positive demand here. The contributor
                    // list holds exactly the active entities' demand
                    // entries for the pool, so the flag equals the
                    // `any(d > 0.0 && saturated[r])` scan [`solve`]
                    // performs — computed once instead of every round.
                    if !s.saturated[r] {
                        s.saturated[r] = true;
                        for &(e, d) in &contrib[r] {
                            if d > 0.0 {
                                s.touch_sat[e] = true;
                            }
                        }
                    }
                }
            }
        }
        s.newly_frozen.clear();
        let (maxr, touch_sat, newly_frozen) = (&s.maxr, &s.touch_sat, &mut s.newly_frozen);
        s.active.retain(|&e| {
            let keep = if rates[e] >= maxr[e] - 1e-12 { false } else { !touch_sat[e] };
            if !keep {
                newly_frozen.push(e);
            }
            keep
        });
        if s.active.is_empty() {
            break;
        }
        if !s.newly_frozen.is_empty() {
            s.dirty.clear();
            for &e in &s.newly_frozen {
                s.frozen[e] = true;
                for &(r, _) in &entities[e].demands {
                    s.contrib_live[r] -= 1;
                    if !s.dirty_flag[r] {
                        s.dirty_flag[r] = true;
                        s.dirty.push(r);
                    }
                }
            }
            for &r in &s.dirty {
                s.dirty_flag[r] = false;
                s.slope[r] = frozen_filtered_sum(&contrib[r], &s.frozen);
            }
            // Drop pools with no unfrozen contributors left: their slope
            // is exactly 0.0 from here on (the empty filtered sum), so
            // the scans above would skip them anyway — and entities never
            // un-freeze, so the drop is permanent. Ascending order is
            // preserved; the surviving pools see identical arithmetic.
            let live = &s.contrib_live;
            s.touched.retain(|&r| live[r] > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(demands: Vec<(usize, f64)>, max_rate: f64) -> EntityDemand {
        EntityDemand { demands, max_rate }
    }

    #[test]
    fn uncontended_entities_run_at_max_rate() {
        let entities = vec![ent(vec![(0, 1.0)], 1.0), ent(vec![(1, 1.0)], 0.5)];
        let a = solve(&entities, &[10.0, 10.0]);
        assert_eq!(a.rates, vec![1.0, 0.5]);
        assert_eq!(a.loads, vec![1.0, 0.5]);
    }

    #[test]
    fn two_equal_entities_split_a_saturated_resource() {
        // Each wants 8 units/sec of a 10-capacity resource.
        let entities = vec![ent(vec![(0, 8.0)], 1.0), ent(vec![(0, 8.0)], 1.0)];
        let a = solve(&entities, &[10.0]);
        assert!((a.rates[0] - 0.625).abs() < 1e-9);
        assert!((a.rates[1] - 0.625).abs() < 1e-9);
        assert!((a.loads[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_fairness_gives_slack_to_light_users() {
        // Entity 0 uses only the contended resource heavily; entity 1
        // lightly (so it can reach max rate); capacity binds entity 0.
        let entities = vec![ent(vec![(0, 10.0)], 1.0), ent(vec![(0, 1.0)], 1.0)];
        let a = solve(&entities, &[6.0]);
        // Progressive filling: both rise to ~0.545 where 0 saturates...
        // entity 1 continues to its cap 1.0? No: entity 1 also uses the
        // saturated resource, so it freezes too. Both stop at 6/11.
        assert!((a.rates[0] - 6.0 / 11.0).abs() < 1e-9);
        assert!((a.rates[1] - 6.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_bottlenecks_freeze_independently() {
        // Entities 0,1 share resource 0; entity 2 alone on resource 1.
        let entities = vec![
            ent(vec![(0, 4.0)], 1.0),
            ent(vec![(0, 4.0)], 1.0),
            ent(vec![(1, 4.0)], 1.0),
        ];
        let a = solve(&entities, &[4.0, 8.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-9);
        assert!((a.rates[1] - 0.5).abs() < 1e-9);
        assert!((a.rates[2] - 1.0).abs() < 1e-9, "entity 2 unconstrained: {}", a.rates[2]);
    }

    #[test]
    fn multi_resource_entity_bound_by_tightest() {
        // Entity uses two resources; resource 1 is the bottleneck.
        let entities = vec![ent(vec![(0, 1.0), (1, 10.0)], 1.0)];
        let a = solve(&entities, &[100.0, 5.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn figure_7b_interconnect_example() {
        // Three threads of the worked example at utilization-scaled demand:
        // each puts 33.3 on both DRAM nodes and 33.3 on the shared
        // interconnect (its remote half), so the link of 50 sees 100 total
        // => rates scale by 1/2 (Figure 7's oversubscription factor 2.00).
        // Resources: 0=dram0(100), 1=dram1(100), 2=link(50).
        let per = 40.0 * 0.8333333;
        let mk = || ent(vec![(0, per), (1, per), (2, per)], 1.0);
        let entities = vec![mk(), mk(), mk()];
        let a = solve(&entities, &[100.0, 100.0, 50.0]);
        // Link load = 3 * per * rate = 50 => rate = 50 / (3 * 33.33) = 0.5.
        for r in &a.rates {
            assert!((r - 0.5).abs() < 1e-6, "rate {r}");
        }
        assert!((a.loads[2] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn zero_max_rate_entities_get_nothing() {
        let entities = vec![ent(vec![(0, 1.0)], 0.0), ent(vec![(0, 1.0)], 1.0)];
        let a = solve(&entities, &[10.0]);
        assert_eq!(a.rates[0], 0.0);
        assert_eq!(a.rates[1], 1.0);
    }

    #[test]
    fn loads_never_exceed_capacity() {
        // Stress with many entities and random-ish demands.
        let entities: Vec<EntityDemand> = (0..50)
            .map(|i| {
                ent(
                    vec![(i % 5, 1.0 + (i % 3) as f64), ((i + 1) % 5, 0.5)],
                    0.5 + (i % 4) as f64 * 0.25,
                )
            })
            .collect();
        let caps = [7.0, 9.0, 11.0, 13.0, 15.0];
        let a = solve(&entities, &caps);
        for (r, &cap) in caps.iter().enumerate() {
            assert!(a.loads[r] <= cap * (1.0 + 1e-9), "resource {r} overloaded");
        }
        // Every entity gets a positive rate.
        assert!(a.rates.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn empty_input_is_fine() {
        let a = solve(&[], &[1.0]);
        assert!(a.rates.is_empty());
        assert_eq!(a.loads, vec![0.0]);
    }
}
