//! Property tests for the machine model: cache inclusion-free hierarchy
//! behaviour, predictor accounting, scoreboard monotonicity.

use proptest::prelude::*;
use spt_mach::{CacheSim, CoreConfig, GagPredictor, ProducerKind, Scoreboard};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Repeating an access immediately always hits L1; latencies are always
    /// one of the four configured levels; stats add up.
    #[test]
    fn cache_latencies_well_formed(addrs in prop::collection::vec(0..4096u64, 1..200)) {
        let cfg = CoreConfig::default();
        let mut cs = CacheSim::new(&cfg);
        let valid = [cfg.l1d.latency, cfg.l2.latency, cfg.l3.latency, cfg.mem_latency];
        let mut n = 0u64;
        for (i, &a) in addrs.iter().enumerate() {
            let lat = cs.access(a, i as u64);
            prop_assert!(valid.contains(&lat), "latency {lat}");
            let again = cs.access(a, i as u64 + 1);
            prop_assert_eq!(again, cfg.l1d.latency, "immediate re-access must hit L1");
            n += 2;
        }
        let st = cs.stats();
        prop_assert_eq!(st.l1_hits + st.l1_misses, n);
        prop_assert!(st.l2_hits + st.l2_misses <= st.l1_misses);
        prop_assert!(st.l3_hits + st.l3_misses <= st.l2_misses);
    }

    /// A working set smaller than L1 eventually stops missing entirely.
    #[test]
    fn small_working_set_converges(start in 0..1024u64) {
        let cfg = CoreConfig::default();
        let mut cs = CacheSim::new(&cfg);
        let set: Vec<u64> = (start..start + 64).collect(); // 512B << 16KB
        for round in 0..4 {
            for (i, &a) in set.iter().enumerate() {
                let lat = cs.access(a, (round * 64 + i) as u64);
                if round > 0 {
                    prop_assert_eq!(lat, cfg.l1d.latency);
                }
            }
        }
    }

    /// Predictor counters stay consistent for arbitrary outcome streams.
    #[test]
    fn predictor_accounting(outcomes in prop::collection::vec(any::<bool>(), 0..500)) {
        let mut p = GagPredictor::new(1024);
        for &t in &outcomes {
            p.predict_and_update(t);
        }
        prop_assert_eq!(p.predictions(), outcomes.len() as u64);
        prop_assert!(p.mispredictions() <= p.predictions());
        prop_assert!(p.misprediction_rate() >= 0.0 && p.misprediction_rate() <= 1.0);
    }

    /// A constant outcome stream converges to near-zero mispredictions.
    #[test]
    fn predictor_learns_constants(taken in any::<bool>(), n in 50..300usize) {
        let mut p = GagPredictor::new(1024);
        for _ in 0..n {
            p.predict_and_update(taken);
        }
        prop_assert!(
            p.mispredictions() <= 12,
            "{} mispredictions on a constant stream",
            p.mispredictions()
        );
    }

    /// Scoreboard: what you set is what you get (per depth), reset floors
    /// everything, truncation forgets deep frames only.
    #[test]
    fn scoreboard_roundtrip(
        writes in prop::collection::vec((0..4u32, 0..16u32, 0..1000u64, any::<bool>()), 0..50),
        floor in 0..500u64,
    ) {
        let mut sb = Scoreboard::new();
        let mut model = std::collections::HashMap::new();
        for &(d, r, t, is_load) in &writes {
            let k = if is_load { ProducerKind::Load } else { ProducerKind::Other };
            sb.set_ready(d, r, t, k);
            model.insert((d, r), (t, k));
        }
        for (&(d, r), &(t, k)) in &model {
            prop_assert_eq!(sb.ready_at(d, r), (t, k));
        }
        sb.reset_all(floor);
        for &(d, r) in model.keys() {
            prop_assert_eq!(sb.ready_at(d, r), (floor, ProducerKind::Other));
        }
        // Writes after the floor dominate it again.
        sb.set_ready(0, 0, floor + 7, ProducerKind::Load);
        prop_assert_eq!(sb.ready_at(0, 0), (floor + 7, ProducerKind::Load));
        sb.truncate_below(0);
        prop_assert_eq!(sb.ready_at(2, 3).0, floor);
    }
}
