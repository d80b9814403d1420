//! Cache-capacity effects: demand spill when working sets outgrow the LLC.
//!
//! The paper relies on modern adaptive caches producing *gradual* fall-offs
//! as working sets outgrow a cache level (§2.2, citing Qureshi et al.), and
//! observes larger prediction errors on the older Westmere machine whose
//! caches lack adaptive insertion (§6.2). The simulator reproduces both
//! regimes: the combined working set of the threads sharing a socket
//! determines what fraction of their L3 traffic spills to DRAM, with a
//! smooth curve for adaptive caches and a sharp cliff for non-adaptive
//! ones.

/// Fraction of L3 traffic that misses and spills to DRAM, given the total
/// working set resident on a socket and the socket's L3 size.
///
/// * Adaptive LLC: under an adaptive insertion policy the cache retains a
///   protected fraction of the hot set, so the miss fraction grows
///   gradually — about half the overflow share `(w - c) / w` once `w`
///   exceeds the capacity `c`.
/// * Non-adaptive LLC: streaming working sets slightly above capacity
///   thrash the whole cache (the classic LRU cliff): the miss fraction
///   jumps towards 1 as soon as `w` exceeds `c`.
pub fn spill_fraction(working_set_mib: f64, l3_mib: f64, adaptive: bool) -> f64 {
    if l3_mib <= 0.0 {
        // The toy machine has no caches; nothing to spill through.
        return 0.0;
    }
    if working_set_mib <= l3_mib {
        return 0.0;
    }
    let overflow = (working_set_mib - l3_mib) / working_set_mib;
    if adaptive {
        // Adaptive insertion protects a hot fraction of the set, so only
        // about half of the overflow share actually misses (§2.2's
        // "gradual fall-offs").
        0.5 * overflow
    } else {
        // Cliff: already at 60% miss just past capacity, saturating fast.
        (0.6 + 0.4 * overflow).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_cache_means_no_spill() {
        assert_eq!(spill_fraction(10.0, 45.0, true), 0.0);
        assert_eq!(spill_fraction(45.0, 45.0, true), 0.0);
        assert_eq!(spill_fraction(10.0, 45.0, false), 0.0);
    }

    #[test]
    fn adaptive_spill_grows_gradually() {
        let just_over = spill_fraction(50.0, 45.0, true);
        let double = spill_fraction(90.0, 45.0, true);
        let huge = spill_fraction(4500.0, 45.0, true);
        assert!(just_over > 0.0 && just_over < 0.1, "just_over = {just_over}");
        assert!((double - 0.25).abs() < 1e-9);
        assert!(huge > 0.49 && huge <= 0.5, "huge = {huge}");
        assert!(just_over < double && double < huge);
    }

    #[test]
    fn non_adaptive_cliff_jumps() {
        let below = spill_fraction(44.9, 45.0, false);
        let above = spill_fraction(45.1, 45.0, false);
        assert_eq!(below, 0.0);
        assert!(above > 0.6, "cliff should jump: {above}");
        // The adaptive cache at the same point barely degrades.
        assert!(spill_fraction(45.1, 45.0, true) < 0.01);
    }

    #[test]
    fn spill_is_bounded() {
        for &w in &[0.1, 10.0, 100.0, 1e6] {
            for adaptive in [true, false] {
                let s = spill_fraction(w, 45.0, adaptive);
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn no_caches_never_spills() {
        assert_eq!(spill_fraction(1000.0, 0.0, true), 0.0);
    }
}
