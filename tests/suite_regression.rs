//! Suite-wide regression: every synthetic SPECint2000 benchmark goes
//! through the full pipeline at test scale; the aggregate shape must match
//! the paper (positive average speedup, vortex flat, parser/mcf strong).

use spt::experiments::{average_speedup, fig8_rows, fig9_rows};
use spt::{RunConfig, Sweep};
use spt_workloads::Scale;

fn cfg() -> RunConfig {
    let mut c = RunConfig::default();
    c.fuel = 100_000_000;
    c
}

#[test]
fn whole_suite_end_to_end_shape() {
    let outcomes = Sweep::auto().eval_suite(Scale::Test, &cfg()).outcomes;
    assert_eq!(outcomes.len(), 10);

    // Semantics everywhere (checked inside eval_suite too).
    for o in &outcomes {
        assert!(o.semantics_ok(), "{} diverged", o.name);
        assert!(!o.spt.out_of_fuel, "{} out of fuel", o.name);
    }

    // Headline: positive average program speedup.
    let avg = average_speedup(&outcomes);
    assert!(
        avg > 1.05,
        "average speedup {avg:.3} should be solidly positive"
    );

    let get = |n: &str| outcomes.iter().find(|o| o.name == n).unwrap();

    // vortex ~ flat; parser strong; parser > crafty.
    assert!(get("vortexs").speedup() < 1.06);
    assert!(get("parsers").speedup() > 1.10);
    assert!(get("parsers").speedup() > get("craftys").speedup());

    // Figure 8 shape: decent fast-commit ratios on the speculating
    // benchmarks.
    let f8 = fig8_rows(&outcomes);
    let parsers = f8.iter().find(|r| r.name == "parsers").unwrap();
    assert!(
        parsers.fast_commit_ratio > 0.4,
        "parser fast-commit {}",
        parsers.fast_commit_ratio
    );
    assert!(parsers.misspeculation_ratio < 0.4);

    // Figure 9 shape: contributions roughly decompose each speedup.
    let f9 = fig9_rows(&outcomes);
    for r in &f9 {
        let frac = 1.0 - 1.0 / r.speedup.max(1e-9);
        let sum = r.exec_contrib + r.pipe_contrib + r.dcache_contrib;
        assert!(
            (sum - frac).abs() < 0.12,
            "{}: contributions {sum:.3} vs fraction {frac:.3}",
            r.name
        );
    }
}
