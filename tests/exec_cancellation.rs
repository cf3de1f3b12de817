//! Cancellation-safety of the shared verdict shards: interrupting a
//! parallel battery mid-flight must leave every shard consistent.
//!
//! The contract under test (see `orm_dl::exec` and the recording rules
//! in `orm_dl::cache`): an interrupted proof records **no** cache entry,
//! so after a cancelled or deadlined `classify_par_cx` the very same
//! translation — warm shards and all — must agree verdict for verdict
//! with a fresh sequential pass over a cold translation. In particular
//! no `Unknown` entry may mask a verdict the budget can prove.
//!
//! Cancellation is triggered deterministically through
//! [`ExecCx::cancel_after_steps`] (the meter trips the token at an exact
//! step count) rather than wall-clock racing, so every seed exercises a
//! *different* but reproducible interruption point.

use orm_dl::{translate, ExecCx, SearchOutcome};
use orm_gen::generate;
use orm_tests::mappable_config;
use orm_tests::steps;
use proptest::prelude::*;

const DL_BUDGET: u64 = 120_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cancel mid-`classify_par_cx`, then re-run uncancelled on the same
    /// (warm) shards: the results must agree 100% with a fresh
    /// sequential pass — across classify, the type sweep, and the role
    /// sweep.
    #[test]
    fn cancelled_classify_par_leaves_shards_consistent(
        seed in any::<u64>(),
        cancel_at in 1u64..5_000,
        threads in 1usize..5,
    ) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);

        // The interrupted run: trips deterministically once the shared
        // meter crosses `cancel_at` steps (possibly before any proof).
        let cancelling = ExecCx::with_steps(DL_BUDGET).cancel_after_steps(cancel_at);
        let (partial, stats) = translation.classify_par_cx(&schema, &cancelling, threads);
        let n = schema.object_types().count() as u64;
        prop_assert_eq!(stats.executed + stats.skipped, n * n.saturating_sub(1));

        // Subsequent uncancelled runs on the SAME translation must agree
        // with a fresh sequential pass on a COLD translation.
        let warm_classify = translation.classify_cx(&schema, &steps(DL_BUDGET));
        let cold = translate(&schema);
        let cold_classify = cold.classify_cx(&schema, &steps(DL_BUDGET));
        prop_assert_eq!(&warm_classify, &cold_classify, "warm classify diverged after cancel");

        // Every pair the interrupted run *did* derive is in the full set.
        for pair in &partial {
            prop_assert!(cold_classify.contains(pair), "cancelled run invented pair {pair:?}");
        }

        // Sweeps: verdict-for-verdict equality means no Unknown entry
        // recorded during the interrupted run masks a provable verdict.
        let warm_types = translation.type_sweep_cx(&schema, &steps(DL_BUDGET));
        let cold_types = cold.type_sweep_cx(&schema, &steps(DL_BUDGET));
        prop_assert_eq!(warm_types, cold_types, "type sweep diverged after cancel");
        let warm_roles = translation.role_sweep_cx(&schema, &steps(DL_BUDGET));
        let cold_roles = cold.role_sweep_cx(&schema, &steps(DL_BUDGET));
        prop_assert_eq!(warm_roles, cold_roles, "role sweep diverged after cancel");
    }

    /// Same property for the deadline path, driven through the parallel
    /// role sweep: a context whose deadline already passed proves
    /// nothing, caches nothing, and reports every role as
    /// `DeadlineExceeded` — after which the same shards still converge
    /// to the sequential truth.
    #[test]
    fn deadlined_sweep_caches_nothing(seed in any::<u64>(), threads in 1usize..5) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);

        let expired = ExecCx::with_steps(DL_BUDGET)
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let (sweep, stats) = translation.role_sweep_par_cx(&schema, &expired, threads);
        prop_assert_eq!(stats.executed, 0, "expired deadline still executed items");
        for (_, outcome) in &sweep {
            prop_assert_eq!(*outcome, SearchOutcome::DeadlineExceeded);
        }
        prop_assert_eq!(translation.cache_stats().hits, 0, "deadlined run touched entries");

        let warm = translation.role_sweep_cx(&schema, &steps(DL_BUDGET));
        let cold = translate(&schema).role_sweep_cx(&schema, &steps(DL_BUDGET));
        prop_assert_eq!(warm, cold, "role sweep diverged after deadline");
    }

    /// The cx-surfaced parallel batteries agree with their sequential cx
    /// drivers when nothing interrupts — cold and warm — across thread
    /// counts, through the work-stealing scheduler.
    #[test]
    fn uninterrupted_cx_batteries_match_sequential(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);
        let cx = ExecCx::with_steps(DL_BUDGET);

        let seq_classify = translation.classify_cx(&schema, &cx);
        let seq_roles = translation.role_sweep_cx(&schema, &cx);
        for threads in [1usize, 2, 4, 8] {
            // Cold shards for the parallel run, warm for the repeat.
            let fresh = translate(&schema);
            let (cold_pairs, cold_stats) = fresh.classify_par_cx(&schema, &cx, threads);
            prop_assert_eq!(&cold_pairs, &seq_classify, "cold classify diverged at {} threads", threads);
            prop_assert_eq!(cold_stats.skipped, 0);
            let (warm_pairs, _) = fresh.classify_par_cx(&schema, &cx, threads);
            prop_assert_eq!(&warm_pairs, &seq_classify, "warm classify diverged at {} threads", threads);

            let (roles, role_stats) = fresh.role_sweep_par_cx(&schema, &cx, threads);
            prop_assert_eq!(&roles, &seq_roles, "role sweep diverged at {} threads", threads);
            prop_assert_eq!(role_stats.executed as usize, roles.len());
        }
    }
}
