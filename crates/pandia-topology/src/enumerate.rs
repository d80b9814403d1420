//! Enumeration of canonical placements.
//!
//! The paper evaluates each workload over the space of distinct thread
//! placements, sorted by total thread count and then by per-core occupancy
//! (Figure 1's x-axis). On a homogeneous machine the distinct placements
//! are exactly the [`CanonicalPlacement`] equivalence classes: a multiset of
//! per-socket core-occupancy multisets.
//!
//! Enumeration is exhaustive for the two-socket machines (about 18k classes
//! on the X5-2, about 1k on the X3-2/X4-2). For the four-socket X2-4 the
//! space is close to a million classes, so — like the paper, which covered
//! ~20% of placements on its largest machine — deterministic stride
//! subsampling per thread count is provided.

use crate::{
    placement::{CanonicalPlacement, Placement},
    spec::{HasShape, MachineShape},
};

/// Which part of the placement space a placement belongs to, for the
/// four-socket study of §6.2 (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementClass {
    /// At most two sockets are active.
    TwoSocket,
    /// At most `n` distinct cores are active (the paper uses 20, matching
    /// the core count of two sockets), over any number of sockets.
    LimitedCores(usize),
    /// Any placement over the whole machine.
    WholeMachine,
}

impl PlacementClass {
    /// Whether a canonical placement falls inside this class.
    pub fn contains(&self, p: &CanonicalPlacement) -> bool {
        match self {
            Self::TwoSocket => p.sockets_used() <= 2,
            Self::LimitedCores(n) => p.cores_used() <= *n,
            Self::WholeMachine => true,
        }
    }
}

/// Enumerates canonical placements for one machine.
#[derive(Debug, Clone)]
pub struct PlacementEnumerator {
    sockets: usize,
    /// All possible single-socket occupancy vectors (descending), sorted
    /// descending, *excluding* the empty socket.
    socket_options: Vec<Vec<u8>>,
    /// Threads in each entry of `socket_options`.
    option_threads: Vec<usize>,
}

impl PlacementEnumerator {
    /// Builds an enumerator for a machine.
    pub fn new(shape: &impl HasShape) -> Self {
        let spec: MachineShape = shape.shape();
        let mut socket_options =
            socket_partitions(spec.cores_per_socket, spec.threads_per_core as u8);
        socket_options.sort_by(|a, b| b.cmp(a));
        let option_threads =
            socket_options.iter().map(|o| o.iter().map(|&v| v as usize).sum()).collect();
        Self { sockets: spec.sockets, socket_options, option_threads }
    }

    /// Total number of canonical placements (any thread count ≥ 1),
    /// computed without materializing them.
    pub fn count(&self) -> u64 {
        // Multisets of size ≤ sockets from the non-empty options: recurse
        // over option indices with monotone non-decreasing index.
        fn rec(options: usize, slots: usize, start: usize, memo: &mut Vec<Vec<Option<u64>>>) -> u64 {
            if slots == 0 {
                return 1;
            }
            if let Some(v) = memo[slots][start] {
                return v;
            }
            // Either stop here (all remaining sockets empty) or pick option
            // `i >= start` for the next socket.
            let mut total = 1; // stop: remaining sockets empty
            for i in start..options {
                total += rec(options, slots - 1, i, memo);
            }
            memo[slots][start] = Some(total);
            total
        }
        let n_opt = self.socket_options.len();
        let mut memo = vec![vec![None; n_opt + 1]; self.sockets + 1];
        // Subtract 1 for the all-empty machine.
        rec(n_opt, self.sockets, 0, &mut memo) - 1
    }

    /// Every canonical placement with at least one thread, sorted by
    /// [`CanonicalPlacement::sort_key`].
    ///
    /// Materializes the full space — use [`Self::sampled`] on machines where
    /// [`Self::count`] is large.
    pub fn all(&self) -> Vec<CanonicalPlacement> {
        let _span = pandia_obs::span("topology", "enumerate_all");
        let widest = self.option_threads.iter().max().copied().unwrap_or(0);
        let out = self.by_threads(self.sockets * widest, |_, _| true);
        pandia_obs::count("topology.placements_enumerated", out.len() as u64);
        out
    }

    /// Every canonical placement with exactly `n` threads, sorted.
    pub fn for_threads(&self, n: usize) -> Vec<CanonicalPlacement> {
        let mut out = Vec::new();
        self.walk(n, &mut |path, threads| {
            if threads == n {
                out.push(self.placement(path));
            }
        });
        out
    }

    /// A deterministic subsample: for each thread count, at most `per_n`
    /// placements taken by even stride through that count's sorted list.
    ///
    /// This mirrors the paper's partial coverage of the X5-2 placement space
    /// (§6.1) while remaining reproducible.
    pub fn sampled(&self, shape: &impl HasShape, per_n: usize) -> Vec<CanonicalPlacement> {
        let max_threads = shape.shape().total_contexts();
        let mut lens = vec![0; max_threads + 1];
        self.walk(max_threads, &mut |_, threads| lens[threads] += 1);
        // The picks from a list of `len` are `i·len/per_n` for `i < per_n`,
        // increasing in `i`, so each count keeps the next `i` to match.
        let mut next = vec![0; max_threads + 1];
        self.by_threads(max_threads, |threads, rank| {
            let (len, i) = (lens[threads], &mut next[threads]);
            let pick = len <= per_n || (*i < per_n && rank == *i * len / per_n);
            *i += usize::from(pick);
            pick
        })
    }

    /// The §6.3 "simple sweep" baseline: for each thread count `1..=max`,
    /// the packed placement and the spread placement.
    pub fn sweep(&self, shape: &impl HasShape) -> Vec<CanonicalPlacement> {
        let spec: MachineShape = shape.shape();
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for n in 1..=spec.total_contexts() {
            if let Ok(p) = Placement::packed(&spec, n) {
                let c = p.canonicalize(&spec);
                if seen.insert(c.clone()) {
                    out.push(c);
                }
            }
            if let Ok(p) = Placement::spread(&spec, n) {
                let c = p.canonicalize(&spec);
                if seen.insert(c.clone()) {
                    out.push(c);
                }
            }
        }
        sort_placements(&mut out);
        out
    }

    /// The walk's placements with at most `max_threads` threads that `keep`
    /// accepts, grouped by thread count. `keep(threads, rank)` sees a
    /// placement's thread count and how many placements with that count the
    /// walk visited before it. A group keeps the walk's order, so the result
    /// is sorted by [`CanonicalPlacement::sort_key`].
    fn by_threads(
        &self,
        max_threads: usize,
        mut keep: impl FnMut(usize, usize) -> bool,
    ) -> Vec<CanonicalPlacement> {
        let mut groups: Vec<Vec<CanonicalPlacement>> = vec![Vec::new(); max_threads + 1];
        let mut ranks = vec![0; max_threads + 1];
        self.walk(max_threads, &mut |path, threads| {
            if keep(threads, ranks[threads]) {
                groups[threads].push(self.placement(path));
            }
            ranks[threads] += 1;
        });
        groups.into_iter().flatten().collect()
    }

    /// Visits every placement with at most `max_threads` threads, in
    /// ascending `sockets` order, as its indices into `socket_options` and
    /// its thread count.
    ///
    /// A placement's indices never decrease, and the options are sorted
    /// descending. Visiting a placement before its extensions, and the next
    /// socket's options from the last index to `start` (options ascending),
    /// is therefore a lexicographic walk: a prefix sorts before its
    /// extensions, and a sibling's subtree before every later sibling's.
    fn walk(&self, max_threads: usize, visit: &mut impl FnMut(&[usize], usize)) {
        fn rec(
            e: &PlacementEnumerator,
            path: &mut Vec<usize>,
            threads: usize,
            max_threads: usize,
            visit: &mut impl FnMut(&[usize], usize),
        ) {
            if path.len() == e.sockets {
                return;
            }
            let start = path.last().copied().unwrap_or(0);
            for i in (start..e.socket_options.len()).rev() {
                let total = threads + e.option_threads[i];
                if total <= max_threads {
                    path.push(i);
                    visit(path, total);
                    rec(e, path, total, max_threads, visit);
                    path.pop();
                }
            }
        }
        rec(self, &mut Vec::with_capacity(self.sockets), 0, max_threads, visit);
    }

    /// The placement a walk path names.
    fn placement(&self, path: &[usize]) -> CanonicalPlacement {
        CanonicalPlacement {
            sockets: path.iter().map(|&i| self.socket_options[i].clone()).collect(),
        }
    }
}

/// Sorts placements by the figure ordering: total threads, then pattern.
pub fn sort_placements(placements: &mut [CanonicalPlacement]) {
    placements.sort_by_key(|p| p.sort_key());
}

/// All non-empty descending occupancy vectors for one socket: parts in
/// `1..=max_part`, at most `cores` parts.
fn socket_partitions(cores: usize, max_part: u8) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    fn rec(cores_left: usize, max_part: u8, current: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if !current.is_empty() {
            out.push(current.clone());
        }
        if cores_left == 0 {
            return;
        }
        let bound = current.last().copied().unwrap_or(max_part);
        for part in (1..=bound).rev() {
            current.push(part);
            rec(cores_left - 1, max_part, current, out);
            current.pop();
        }
    }
    rec(cores, max_part, &mut current, &mut out);
    out
}

/// The enumerator the ordered walk replaced, kept as its reference: one
/// walk per call, pruned by the thread budget, every visited placement
/// cloned, then sorted by [`CanonicalPlacement::sort_key`]; `sampled`
/// re-walks the space once per thread count.
#[cfg(test)]
mod spec {
    use super::*;

    pub fn all(e: &PlacementEnumerator) -> Vec<CanonicalPlacement> {
        let mut out = Vec::new();
        let mut current: Vec<Vec<u8>> = Vec::new();
        gen_rec(e, 0, usize::MAX, &mut current, &mut |p| out.push(p));
        out.sort_by_key(|p| p.sort_key());
        out
    }

    pub fn for_threads(e: &PlacementEnumerator, n: usize) -> Vec<CanonicalPlacement> {
        let mut out = Vec::new();
        let mut current: Vec<Vec<u8>> = Vec::new();
        gen_rec(e, 0, n, &mut current, &mut |p| {
            if p.total_threads() == n {
                out.push(p);
            }
        });
        out.sort_by_key(|p| p.sort_key());
        out
    }

    pub fn sampled(
        e: &PlacementEnumerator,
        shape: &impl HasShape,
        per_n: usize,
    ) -> Vec<CanonicalPlacement> {
        let spec: MachineShape = shape.shape();
        let mut out = Vec::new();
        for n in 1..=spec.total_contexts() {
            let all_n = for_threads(e, n);
            if all_n.len() <= per_n {
                out.extend(all_n);
            } else {
                for i in 0..per_n {
                    let idx = i * all_n.len() / per_n;
                    out.push(all_n[idx].clone());
                }
            }
        }
        out
    }

    fn gen_rec(
        e: &PlacementEnumerator,
        start: usize,
        remaining: usize,
        current: &mut Vec<Vec<u8>>,
        emit: &mut impl FnMut(CanonicalPlacement),
    ) {
        if !current.is_empty() {
            let total: usize =
                current.iter().flat_map(|s| s.iter()).map(|&v| v as usize).sum();
            if remaining == usize::MAX || total <= remaining {
                emit(CanonicalPlacement { sockets: current.clone() });
            }
        }
        if current.len() == e.sockets {
            return;
        }
        let used: usize = current.iter().flat_map(|s| s.iter()).map(|&v| v as usize).sum();
        for i in start..e.socket_options.len() {
            let opt = &e.socket_options[i];
            let opt_total: usize = opt.iter().map(|&v| v as usize).sum();
            if remaining != usize::MAX && used + opt_total > remaining {
                continue;
            }
            // lint: allow(H2): one-shot enumeration emits owned rows
            current.push(opt.clone());
            gen_rec(e, i, remaining, current, emit);
            current.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    #[test]
    fn socket_partitions_small_case() {
        // 2 cores, up to 2 threads each: [1], [2], [1,1], [2,1], [2,2].
        let mut parts = socket_partitions(2, 2);
        parts.sort();
        assert_eq!(parts, vec![vec![1], vec![1, 1], vec![2], vec![2, 1], vec![2, 2]]);
    }

    #[test]
    fn toy_machine_enumeration_is_complete() {
        let spec = MachineSpec::toy();
        let e = PlacementEnumerator::new(&spec);
        let all = e.all();
        // Toy: 2 sockets x 2 cores x 1 thread. Socket options: [1], [1,1].
        // Multisets over 2 sockets (incl. one empty socket):
        // {[1]}, {[1,1]}, {[1],[1]}, {[1,1],[1]}, {[1,1],[1,1]} => 5.
        assert_eq!(all.len(), 5);
        assert_eq!(e.count(), 5);
        // Sorted by total thread count.
        let totals: Vec<usize> = all.iter().map(|p| p.total_threads()).collect();
        let mut sorted = totals.clone();
        sorted.sort_unstable();
        assert_eq!(totals, sorted);
    }

    #[test]
    fn count_matches_materialized_for_x3_2() {
        let spec = MachineSpec::x3_2();
        let e = PlacementEnumerator::new(&spec);
        let all = e.all();
        assert_eq!(all.len() as u64, e.count());
        // Per-socket (a,b) with a+b<=8 minus empty = 44 options; unordered
        // pairs incl. empty = 45*46/2 - 1 = 1034.
        assert_eq!(all.len(), 1034);
    }

    #[test]
    fn x5_2_count_is_tractable() {
        let e = PlacementEnumerator::new(&MachineSpec::x5_2());
        // (a,b) with a+b<=18 => 190 incl. empty; C(190+1,2) - 1 = 18144.
        assert_eq!(e.count(), 18144);
    }

    #[test]
    fn x2_4_count_without_materializing() {
        let e = PlacementEnumerator::new(&MachineSpec::x2_4());
        // 65 non-empty per-socket options; multisets over 4 sockets:
        // C(66+3,4) - 1 = 864500... computed by DP, just sanity-bound it.
        let c = e.count();
        assert!(c > 500_000 && c < 1_000_000, "count = {c}");
    }

    #[test]
    fn for_threads_returns_only_that_count() {
        let spec = MachineSpec::x3_2();
        let e = PlacementEnumerator::new(&spec);
        let p4 = e.for_threads(4);
        assert!(p4.iter().all(|p| p.total_threads() == 4));
        // Check a few expected members.
        assert!(p4.contains(&CanonicalPlacement::new(vec![vec![1, 1, 1, 1]])));
        assert!(p4.contains(&CanonicalPlacement::new(vec![vec![2, 2]])));
        assert!(p4.contains(&CanonicalPlacement::new(vec![vec![2], vec![1, 1]])));
        // No duplicates.
        let mut dedup = p4.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), p4.len());
    }

    #[test]
    fn all_placements_instantiate_on_their_machine() {
        let spec = MachineSpec::x3_2();
        let e = PlacementEnumerator::new(&spec);
        for c in e.all() {
            let p = c.instantiate(&spec).expect("enumerated placement must fit");
            assert_eq!(p.canonicalize(&spec), c);
        }
    }

    #[test]
    fn sampled_respects_per_n_budget() {
        let spec = MachineSpec::x5_2();
        let e = PlacementEnumerator::new(&spec);
        let sample = e.sampled(&spec, 10);
        assert!(sample.len() <= 10 * spec.total_contexts());
        // Every thread count up to 72 is represented.
        let mut counts = vec![0usize; spec.total_contexts() + 1];
        for p in &sample {
            counts[p.total_threads()] += 1;
        }
        for (n, &count) in counts.iter().enumerate().skip(1) {
            assert!(count >= 1, "thread count {n} missing from sample");
            assert!(count <= 10);
        }
    }

    #[test]
    fn sweep_contains_packed_and_spread_extremes() {
        let spec = MachineSpec::x3_2();
        let e = PlacementEnumerator::new(&spec);
        let sweep = e.sweep(&spec);
        // 4 threads packed => [2,2] on one socket; spread => 1x4 on one socket.
        assert!(sweep.contains(&CanonicalPlacement::new(vec![vec![2, 2]])));
        assert!(sweep.contains(&CanonicalPlacement::new(vec![vec![1, 1, 1, 1]])));
        // Sweep is much smaller than the full space.
        assert!(sweep.len() < 2 * spec.total_contexts() + 2);
        // No duplicates.
        let mut set = std::collections::HashSet::new();
        for p in &sweep {
            assert!(set.insert(p.clone()));
        }
    }

    #[test]
    fn placement_classes_partition_sensibly() {
        let p = CanonicalPlacement::new(vec![vec![1, 1], vec![1], vec![1]]);
        assert!(!PlacementClass::TwoSocket.contains(&p));
        assert!(PlacementClass::LimitedCores(4).contains(&p));
        assert!(!PlacementClass::LimitedCores(3).contains(&p));
        assert!(PlacementClass::WholeMachine.contains(&p));
        let q = CanonicalPlacement::new(vec![vec![2, 2, 2], vec![1]]);
        assert!(PlacementClass::TwoSocket.contains(&q));
    }

    /// Per-n sample budgets for the spec comparison: none, tiny strides,
    /// the CLI's 8, the paper densities and more than any count holds.
    const PER_N: [usize; 10] = [0, 1, 2, 3, 4, 8, 10, 12, 42, 1000];

    #[test]
    fn enumeration_matches_the_spec() {
        for machine in [MachineSpec::toy(), MachineSpec::x3_2(), MachineSpec::x4_2()] {
            let e = PlacementEnumerator::new(&machine);
            assert_eq!(e.all(), spec::all(&e));
            for n in 0..=machine.total_contexts() + 1 {
                assert_eq!(e.for_threads(n), spec::for_threads(&e, n), "n = {n}");
            }
            for per_n in PER_N {
                let want = spec::sampled(&e, &machine, per_n);
                assert_eq!(e.sampled(&machine, per_n), want, "per_n = {per_n}");
            }
        }
        // x5-2 in part: the spec's per-count re-walks take seconds there
        // in an unoptimized build.
        let x5_2 = MachineSpec::x5_2();
        let e = PlacementEnumerator::new(&x5_2);
        assert_eq!(e.all(), spec::all(&e));
        for per_n in [3, 42] {
            assert_eq!(e.sampled(&x5_2, per_n), spec::sampled(&e, &x5_2, per_n), "per_n = {per_n}");
        }
    }

    /// FNV-1a over every occupancy byte in order, with a separator byte
    /// after each socket and each placement, so two lists that differ in
    /// any byte or in where a socket or placement ends fold apart.
    fn digest(placements: &[CanonicalPlacement], mut h: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut fold = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        for p in placements {
            for socket in &p.sockets {
                socket.iter().for_each(|&b| fold(b));
                fold(0xfe);
            }
            fold(0xff);
        }
        h
    }

    #[test]
    fn x2_4_samples_fold_to_the_recorded_digest() {
        // The four-socket samples fig12 and `sampled` callers see, pinned
        // bit for bit: the spec is too slow to compare against here.
        let x2_4 = MachineSpec::x2_4();
        let e = PlacementEnumerator::new(&x2_4);
        let (coarse, dense) = (e.sampled(&x2_4, 3), e.sampled(&x2_4, 42));
        assert_eq!((coarse.len(), dense.len()), (234, 2953));
        let h = digest(&dense, digest(&coarse, 0xcbf2_9ce4_8422_2325));
        assert_eq!(h, 0xa0f0_95d3_e21b_3a6a, "digest {h:#018x}");
    }

    #[test]
    fn walk_visits_each_placement_once() {
        for (machine, placements) in [(MachineSpec::x5_2(), 18_144), (MachineSpec::x2_4(), 864_500)]
        {
            let e = PlacementEnumerator::new(&machine);
            let mut visits = 0;
            e.walk(usize::MAX, &mut |_, _| visits += 1);
            assert_eq!(visits, e.count());
            assert_eq!(visits, placements);
        }
    }

    #[test]
    fn enumeration_is_strictly_sorted_and_canonical() {
        for machine in [MachineSpec::x3_2(), MachineSpec::x5_2()] {
            let all = PlacementEnumerator::new(&machine).all();
            assert!(all.windows(2).all(|w| w[0].sort_key() < w[1].sort_key()));
        }
        let x2_4 = MachineSpec::x2_4();
        for c in PlacementEnumerator::new(&x2_4).sampled(&x2_4, 3) {
            let p = c.instantiate(&x2_4).expect("sampled placement must fit");
            assert_eq!(p.canonicalize(&x2_4), c);
        }
    }
}
