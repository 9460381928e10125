//! The paper's failure regime at a long horizon: E3's n = 64 shape — the
//! benchmark's `sim-faults` world — with 2 000 pre-scheduled single
//! failures. Seed 42 is the benchmark's seed, not a pick: other seeds
//! still find a second token at this horizon (ROADMAP item 1(a) lists
//! them), and this test says so rather than hiding them.

use oc_algo::Hardening;
use oc_bench::e3_world;
use oc_sim::check_liveness;

/// The paper's measured overhead per failure at N = 64: its Estelle
/// implementation on the iPSC/2, over 200 failures.
const PAPER_OVERHEAD_PER_FAILURE: f64 = 9.75;

#[test]
fn two_thousand_failures_stay_clean_at_twice_the_papers_cost() {
    let failures = 2_000;
    let mut world = e3_world(64, failures, 42, Hardening::None);
    let drained = world.run_to_quiescence();
    assert!(drained, "the run hit its event cap");
    let safety = world.oracle_report();
    let liveness = check_liveness(&world, drained);
    assert!(safety.is_clean(), "safety findings: {:?}", safety.violations());
    assert!(liveness.is_clean(), "liveness findings: {:?}", liveness.violations());
    let per_failure = world.metrics().overhead_messages() as f64 / failures as f64;
    assert!(
        per_failure <= 2.0 * PAPER_OVERHEAD_PER_FAILURE,
        "{per_failure:.2} overhead messages per failure, more than twice the paper's \
         {PAPER_OVERHEAD_PER_FAILURE}"
    );
}
