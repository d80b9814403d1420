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

/// Counters kept by an [`IncrementalSolver`], one per solving call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// [`IncrementalSolver::solve`] calls: each runs the filling loop from
    /// the slopes of the values just written.
    pub solves: u64,
    /// [`IncrementalSolver::solve_same_demands`] calls answered from the
    /// cached rates: the rate caps and capacities were bitwise equal
    /// to the previous call's as well.
    pub solves_skipped: u64,
    /// [`IncrementalSolver::solve_same_demands`] calls whose rate caps or
    /// capacities moved: only the filling loop runs again.
    pub prefix_solves: u64,
}

/// A demand list's fixed structure plus one solve's values: each
/// entity's entries in push order, and a pool-major contributor index in
/// entity order (CSR). The pools are renumbered, ascending, down to those
/// some entry names, so a solve's capacities are given in [`Self::pools`]
/// order.
///
/// The structure is compiled once and solved under many value sets:
/// [`Self::set_values`] picks each entry's value from its `[low, high]`
/// pair and sums each pool's slope left to right, the addition sequence
/// [`solve`] performs over the same entries. An entry whose value is 0.0
/// adds +0.0 to a non-negative sum, which leaves its bits alone, so with
/// non-negative values the solve is [`solve`]'s over bundles that omit
/// the zero entries.
#[derive(Debug, Default)]
pub struct Demands {
    /// The original index of each pool, ascending, and every renumbered
    /// pool, `0..pools.len()`, the pools a first filling round scans.
    pools: Vec<usize>,
    every: Vec<usize>,
    /// Pool `c`'s slots are `pool_start[c]..pool_start[c + 1]`.
    pool_start: Vec<usize>,
    /// Each slot's entity (ascending within a pool) and entry index.
    slot_entity: Vec<usize>,
    slot_entry: Vec<usize>,
    /// Entity `e`'s pools (renumbered), in push order, are
    /// `entity_pools[entity_start[e]..entity_start[e + 1]]`.
    entity_start: Vec<usize>,
    entity_pools: Vec<usize>,
    /// Contributors per pool, for the fill's live counts.
    live: Vec<u32>,
    values: Vec<f64>,
    slopes: Vec<f64>,
}

impl Demands {
    /// Compiles the structure of `entities` entities from `entries`, each
    /// `(entity, pool)`, listed by entity and within one entity in push
    /// order. Every value starts at 0.0.
    pub fn compile(entities: usize, entries: &[(usize, usize)]) -> Self {
        // A stable sort by pool keeps each pool's entries in entity order.
        let mut slot_entry: Vec<usize> = (0..entries.len()).collect();
        slot_entry.sort_by_key(|&j| entries[j].1);
        let (mut pools, mut pool_start) = (Vec::new(), Vec::new());
        let mut entity_pools = vec![0; entries.len()];
        for (slot, &j) in slot_entry.iter().enumerate() {
            if pools.last() != Some(&entries[j].1) {
                pools.push(entries[j].1);
                pool_start.push(slot);
            }
            entity_pools[j] = pools.len() - 1;
        }
        pool_start.push(entries.len());
        let start = |e: usize| entries.partition_point(|&(x, _)| x < e);
        Self {
            slot_entity: slot_entry.iter().map(|&j| entries[j].0).collect(),
            slot_entry,
            entity_start: (0..=entities).map(start).collect(),
            entity_pools,
            live: pool_start.windows(2).map(|w| (w[1] - w[0]) as u32).collect(),
            values: vec![0.0; entries.len()],
            slopes: vec![0.0; pools.len()],
            every: (0..pools.len()).collect(),
            pools,
            pool_start,
        }
    }

    /// The original index of each pool, ascending.
    pub fn pools(&self) -> &[usize] {
        &self.pools
    }

    /// `per_entry`, listed as [`Self::compile`]'s entries are, in slot
    /// order: pool by pool, each pool's entries in entity order.
    pub fn in_slot_order<T: Copy>(&self, per_entry: &[T]) -> Vec<T> {
        self.slot_entry.iter().map(|&j| per_entry[j]).collect()
    }

    /// Writes every entry's value pool by pool from `pairs`, one `[low,
    /// high]` pair per entry in slot order: an entry takes its high value
    /// when its entity's `high` bit is set. Each pool's slope is summed
    /// over its entries in entity order as they are written.
    pub fn set_values(&mut self, pairs: &[[f64; 2]], high: &[bool]) {
        for (c, slope) in self.slopes.iter_mut().enumerate() {
            let (first, end) = (self.pool_start[c], self.pool_start[c + 1]);
            let slots = self.values[first..end].iter_mut().zip(&pairs[first..end]);
            let mut sum = 0.0;
            for ((value, pair), &e) in slots.zip(&self.slot_entity[first..end]) {
                *value = pair[usize::from(high[e])];
                sum += *value;
            }
            *slope = sum;
        }
    }

    /// The load on each of `pools` resources, in the original numbering,
    /// at `rates`: [`pool_loads`]'s entity-order sums over the same entries.
    pub fn loads(&self, rates: &[f64], pools: usize) -> Vec<f64> {
        let mut loads = vec![0.0; pools];
        for (c, &r) in self.pools.iter().enumerate() {
            for (e, v) in self.contributors(c) {
                loads[r] += rates[e] * v;
            }
        }
        loads
    }

    /// Pool `c`'s `(entity, value)` contributors, in entity order.
    fn contributors(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let slots = self.pool_start[c]..self.pool_start[c + 1];
        self.slot_entity[slots.clone()].iter().copied().zip(self.values[slots].iter().copied())
    }
}

/// Reusable working memory for [`fill`].
#[derive(Debug, Default)]
struct FillScratch {
    active: Vec<usize>,
    slope: Vec<f64>,
    residual: Vec<f64>,
    saturated: Vec<bool>,
    frozen: Vec<bool>,
    newly_frozen: Vec<usize>,
    dirty: Vec<usize>,
    /// Pools with an unfrozen contributor, ascending. Every other pool's
    /// slope is exactly 0.0 for the rest of the fill, so the per-round
    /// scans visit only this list.
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
    /// Per-pool membership flag for the `dirty` list, so adding a pool is
    /// one bool test instead of a linear `contains` scan.
    dirty_flag: Vec<bool>,
}

impl FillScratch {
    /// Freezes `newly_frozen`: their pools lose a live contributor and
    /// re-sum their slopes without the frozen entities, left to right, so
    /// each slope is the sum [`solve`] would form over the entities still
    /// active; pools left with no live contributor leave `touched`.
    fn freeze(&mut self, d: &Demands) {
        self.dirty.clear();
        for &e in &self.newly_frozen {
            self.frozen[e] = true;
            for &c in &d.entity_pools[d.entity_start[e]..d.entity_start[e + 1]] {
                self.contrib_live[c] -= 1;
                if !self.dirty_flag[c] {
                    self.dirty_flag[c] = true;
                    self.dirty.push(c);
                }
            }
        }
        for &c in &self.dirty {
            self.dirty_flag[c] = false;
            let live = d.contributors(c).filter(|&(e, _)| !self.frozen[e]);
            self.slope[c] = live.fold(0.0, |sum, (_, v)| sum + v);
        }
        let live = &self.contrib_live;
        self.touched.retain(|&c| live[c] > 0);
    }
}

/// A [`solve`] for callers that compile a demand structure once and solve
/// it under many values, rate caps and capacities: the engine's segment
/// middles, whose structure changes only with the runnable set.
///
/// * [`Self::solve`] runs the filling loop from the slopes of the values
///   just written with [`Demands::set_values`];
/// * [`Self::solve_same_demands`] is for callers that know no value moved
///   since the previous call: it returns the cached rates outright when
///   the rate caps and capacities are bitwise unchanged too (*skip*), and
///   otherwise runs the filling loop again (*prefix*).
///
/// Both return rates only, **bit-identical** to [`solve`]'s on bundles of
/// the same positive entries: a pool's slope is the same left-to-right
/// sum over its contributors in entity order, and IEEE arithmetic is
/// deterministic. An entity whose cap is not positive stays out of the
/// slopes and live counts and starts frozen, as [`solve`] leaves it out.
/// A caller that wants the pool loads asks [`Demands::loads`] for them.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    max_rates: Vec<f64>,
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

    /// Solves the max-min fair rates of `d` under per-entity rate caps
    /// `maxr` and the capacities of [`Demands::pools`]; a `step` from
    /// [`Self::first_step`] on the same values and capacities spares the
    /// first filling round its pool scan. The returned slice is valid until
    /// the next call (the engine's hot loop copies the rates out, so nothing
    /// is cloned per solve).
    pub fn solve(&mut self, d: &Demands, maxr: &[f64], caps: &[f64], step: Option<f64>) -> &[f64] {
        self.stats.solves += 1;
        self.fill(d, maxr, caps, step)
    }

    /// [`Self::solve`] for callers that *know* no value of `demands`
    /// moved since the previous call on this solver — the engine's later
    /// relaxation rounds, which rewrite only the rate caps between solves.
    /// Counts `solves_skipped` when the caps and capacities are also
    /// bit-equal and `prefix_solves` otherwise.
    pub fn solve_same_demands(
        &mut self,
        demands: &Demands,
        max_rates: &[f64],
        capacities: &[f64],
        step: Option<f64>,
    ) -> &[f64] {
        if bits_eq(&self.max_rates, max_rates) && bits_eq(&self.capacities, capacities) {
            self.stats.solves_skipped += 1;
            return &self.rates;
        }
        self.stats.prefix_solves += 1;
        self.fill(demands, max_rates, capacities, step)
    }

    /// The first filling round's pool term over the values last written
    /// to `demands`, as a fill with no entity frozen at the start forms
    /// it, and whether this step is positive and freezes every entity:
    /// each has a positive value on a pool whose residual `capacity -
    /// slope * step` passes the fill's saturation test. If so, and every
    /// rate cap is positive and at least the step, the first round's step
    /// is the step, every rate becomes `0.0 + step`, the same pools
    /// saturate, and every entity freezes: the rates are the step. Counts
    /// nothing.
    pub fn first_step(&mut self, demands: &Demands, caps: &[f64]) -> (f64, bool) {
        let (d, s) = (demands, &mut self.scratch);
        let step = pool_term(&d.every, &d.slopes, caps);
        s.touch_sat.clear();
        s.touch_sat.resize(d.entity_start.len().saturating_sub(1), false);
        for (c, (&slope, &cap)) in d.slopes.iter().zip(caps).enumerate() {
            if slope > 0.0 && cap - slope * step <= 1e-9 * cap.max(1.0) {
                d.contributors(c).filter(|&(_, v)| v > 0.0).for_each(|(e, _)| s.touch_sat[e] = true);
            }
        }
        (step, step > 0.0 && s.touch_sat.iter().all(|&frozen| frozen))
    }

    /// The progressive-filling loop over a compiled structure, recording
    /// this call's rate caps and capacities for the next skip check.
    ///
    /// Mirrors [`solve`]'s rates exactly, except that a pool's slope is only
    /// re-summed when one of its contributors froze in the previous round
    /// (the "dirty" pools); an untouched pool's slope is the same ordered sum
    /// [`solve`] would recompute, so reusing it is bit-exact. The loop ends
    /// as soon as the last entity freezes, before the re-sum that only a
    /// next round would read. The structure is read-only — frozen entities
    /// are skipped via a flag vector rather than removed — and all working
    /// memory lives in the solver's scratch, so the loop performs no
    /// allocation beyond first-use buffer growth. A given `step` is the
    /// first round's pool term: the same slopes and capacities give the same
    /// term, as long as no entity starts frozen.
    fn fill(&mut self, d: &Demands, maxr: &[f64], capacities: &[f64], step: Option<f64>) -> &[f64] {
        self.max_rates.clear();
        self.max_rates.extend_from_slice(maxr);
        self.capacities.clear();
        self.capacities.extend_from_slice(capacities);
        let (s, rates) = (&mut self.scratch, &mut self.rates);
        let n = maxr.len();
        let m = capacities.len();
        rates.clear();
        rates.resize(n, 0.0);
        if n == 0 {
            return &self.rates;
        }
        s.slope.clone_from(&d.slopes);
        s.contrib_live.clone_from(&d.live);
        s.residual.clear();
        s.residual.extend_from_slice(capacities);
        s.saturated.clear();
        s.saturated.resize(m, false);
        s.frozen.clear();
        s.frozen.resize(n, false);
        s.touch_sat.clear();
        s.touch_sat.resize(n, false);
        s.dirty_flag.clear();
        s.dirty_flag.resize(m, false);
        s.touched.clear();
        s.touched.extend(0..m);
        s.active.clear();
        s.newly_frozen.clear();
        for (e, &cap) in maxr.iter().enumerate() {
            if cap > 0.0 {
                s.active.push(e);
            } else {
                s.newly_frozen.push(e);
            }
        }
        let mut step = step.filter(|_| s.newly_frozen.is_empty());
        if !s.newly_frozen.is_empty() {
            s.freeze(d);
        }

        while !s.active.is_empty() {
            let scan = || pool_term(&s.touched, &s.slope, &s.residual);
            let mut delta = step.take().unwrap_or_else(scan);
            for &e in &s.active {
                delta = delta.min(maxr[e] - rates[e]);
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
                        // that places positive demand here, which equals the
                        // `any(d > 0.0 && saturated[r])` scan [`solve`]
                        // performs — computed once instead of every round.
                        if !s.saturated[r] {
                            s.saturated[r] = true;
                            for (e, v) in d.contributors(r) {
                                if v > 0.0 {
                                    s.touch_sat[e] = true;
                                }
                            }
                        }
                    }
                }
            }
            s.newly_frozen.clear();
            let (touch_sat, newly_frozen) = (&s.touch_sat, &mut s.newly_frozen);
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
                s.freeze(d);
            }
        }

        &self.rates
    }
}

/// Bitwise equality of two `f64` vectors.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `residual.max(0.0) / slope`, least over the `pools` of positive slope
/// (infinite when there is none): the pool term of a filling round's
/// step. Four independent min accumulators let the divisions pipeline
/// instead of serialising behind one running minimum; `f64::min` is exact
/// (the result is one of its operands, never a rounded combination), so
/// regrouping the reduction cannot change which value survives.
fn pool_term(pools: &[usize], slope: &[f64], residual: &[f64]) -> f64 {
    let (mut d0, mut d1, mut d2, mut d3) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut quads = pools.chunks_exact(4);
    for quad in &mut quads {
        let (r0, r1, r2, r3) = (quad[0], quad[1], quad[2], quad[3]);
        let (s0, s1, s2, s3) = (slope[r0], slope[r1], slope[r2], slope[r3]);
        if s0 > 0.0 {
            d0 = d0.min(residual[r0].max(0.0) / s0);
        }
        if s1 > 0.0 {
            d1 = d1.min(residual[r1].max(0.0) / s1);
        }
        if s2 > 0.0 {
            d2 = d2.min(residual[r2].max(0.0) / s2);
        }
        if s3 > 0.0 {
            d3 = d3.min(residual[r3].max(0.0) / s3);
        }
    }
    for &r in quads.remainder() {
        if slope[r] > 0.0 {
            d0 = d0.min(residual[r].max(0.0) / slope[r]);
        }
    }
    d0.min(d1).min(d2).min(d3)
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
