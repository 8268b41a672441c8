//! Property tests of the fault-injection outcome taxonomy: for *any*
//! seeded `FaultPlan` over the memory datapath, the Shield must land
//! on an allowlisted verdict — never `SilentCorruption`, never a
//! containment breach — and a fault-free plan must be byte-identical
//! to the plaintext shadow memory at every lane count.

use proptest::prelude::*;
use shef_testkit::{run_plan, FaultClass, FaultPlan, Scheme, Verdict};

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::MacOnly),
        Just(Scheme::Counters),
        Just(Scheme::Merkle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-fault plan resolves to an allowlisted verdict, and a
    /// detected integrity failure always comes with a successful
    /// containment probe (the probe itself would report
    /// `SilentCorruption` on a breach, failing `is_allowed`).
    #[test]
    fn single_fault_plans_never_corrupt_silently(
        seed in 0u64..1024,
        class_idx in 0usize..FaultClass::ALL.len(),
        scheme in scheme_strategy(),
        lanes in 1usize..=4,
    ) {
        let class = FaultClass::ALL[class_idx];
        prop_assume!(class.valid_schemes().contains(&scheme));
        let plan = FaultPlan::single(seed, class, scheme, lanes);
        let report = run_plan(&plan);
        prop_assert!(report.is_allowed(), "{}: {report:?}", class.as_str());
        prop_assert_ne!(report.verdict, Verdict::SilentCorruption);
        prop_assert_ne!(report.verdict, Verdict::Hang);
    }

    /// Plans with several scheduled memory faults (overlapping chunks,
    /// mixed classes, lane deaths on top of tampering) still resolve
    /// to allowlisted verdicts.
    #[test]
    fn multi_fault_memory_plans_never_corrupt_silently(
        seed in 0u64..1024,
        n_events in 1usize..5,
        scheme in scheme_strategy(),
        lanes in 1usize..=4,
    ) {
        let plan = FaultPlan::randomized(seed, n_events, scheme, lanes);
        let report = run_plan(&plan);
        prop_assert!(report.is_allowed(), "{report:?}");
    }

    /// A fault-free plan is byte-identical to the shadow memory on every
    /// scheme and lane count: the verdict is exactly `Clean`.
    #[test]
    fn fault_free_plans_are_byte_identical(
        seed in 0u64..1024,
        scheme in scheme_strategy(),
        lanes in 1usize..=4,
    ) {
        let report = run_plan(&FaultPlan::clean(seed, scheme, lanes));
        prop_assert!(report.verdict == Verdict::Clean, "{report:?}");
        prop_assert!(report.probe.is_none());
    }
}
