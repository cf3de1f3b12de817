//! Crash-recovery of the verdict-cache snapshot machinery: a process
//! that dies at an *arbitrary* point and restarts from a snapshot must
//! agree, verdict for verdict, with a process that never crashed — and a
//! snapshot damaged by the crash (torn write, bit rot) must be rejected
//! outright, degrading to a cold start, never to a stale verdict.
//!
//! Crash points are driven deterministically through
//! [`ExecCx::cancel_after_steps`] (the meter trips at an exact step
//! count), so every seed exercises a different but reproducible amount
//! of warm state at snapshot time. Interrupted proofs record nothing, so
//! whatever the snapshot captures is exactly the set of *completed*
//! verdicts — the recovery contract then follows from the cache's own
//! recording rules.

use orm_dl::{translate, ExecCx, SnapshotError};
use orm_gen::generate;
use orm_model::ObjectTypeId;
use orm_tests::mappable_config;
use orm_tests::steps;
use proptest::prelude::*;

const DL_BUDGET: u64 = 120_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interrupt a sweep at an arbitrary metered step count, snapshot
    /// whatever completed, restore into a freshly translated process:
    /// every query must agree with a fresh sequential pass over a cold
    /// translation.
    #[test]
    fn snapshot_at_arbitrary_interrupt_points_round_trips(
        seed in any::<u64>(),
        cancel_at in 1u64..5_000,
    ) {
        let schema = generate(&mappable_config(seed));
        let survivor = translate(&schema);

        // The "process" does some work, gets interrupted mid-sweep (a
        // crash can land between any two proofs), then snapshots on the
        // way down.
        let interrupted = ExecCx::with_steps(DL_BUDGET).cancel_after_steps(cancel_at);
        let _ = survivor.type_sweep_cx(&schema, &interrupted);
        let _ = survivor.role_sweep_cx(&schema, &interrupted);
        let blob = survivor.snapshot();

        // The restarted process: same schema translated from scratch.
        let restarted = translate(&schema);
        let report = restarted.restore(&blob).expect("clean snapshot rejected");
        prop_assert_eq!(report.entries, survivor.shards().len());

        // Every verdict agrees with a never-crashed sequential pass.
        let fresh = translate(&schema);
        prop_assert_eq!(
            restarted.type_sweep_cx(&schema, &steps(DL_BUDGET)),
            fresh.type_sweep_cx(&schema, &steps(DL_BUDGET)),
            "restored type verdicts diverged from the fresh pass"
        );
        prop_assert_eq!(
            restarted.role_sweep_cx(&schema, &steps(DL_BUDGET)),
            fresh.role_sweep_cx(&schema, &steps(DL_BUDGET)),
            "restored role verdicts diverged from the fresh pass"
        );
    }

    /// A snapshot damaged in flight — truncated at any byte, or any
    /// single bit flipped — is rejected with the cache untouched, and
    /// the cold process still reaches every correct verdict.
    #[test]
    fn damaged_snapshots_are_rejected_and_degrade_to_cold(
        seed in any::<u64>(),
        cut_permille in 0usize..1_000,
        flip_permille in 0usize..1_000,
        bit in 0u8..8,
    ) {
        let schema = generate(&mappable_config(seed));
        let survivor = translate(&schema);
        survivor.type_sweep_cx(&schema, &steps(DL_BUDGET));
        survivor.role_sweep_cx(&schema, &steps(DL_BUDGET));
        let blob = survivor.snapshot();

        // Torn write: the tail never hit the disk.
        let cut = (blob.len() * cut_permille / 1_000).min(blob.len() - 1);
        let restarted = translate(&schema);
        prop_assert!(restarted.restore(&blob[..cut]).is_err(), "truncated blob accepted");
        prop_assert!(restarted.shards().is_empty(), "rejected restore left entries");

        // Bit rot: one flipped bit anywhere.
        let pos = (blob.len() * flip_permille / 1_000).min(blob.len() - 1);
        let mut rotten = blob.clone();
        rotten[pos] ^= 1 << bit;
        prop_assert!(restarted.restore(&rotten).is_err(), "bit-flipped blob accepted");
        prop_assert_eq!(restarted.cache_stats().corrupt_rejected, 2);

        // The cold start is still sound.
        let fresh = translate(&schema);
        prop_assert_eq!(
            restarted.type_sweep_cx(&schema, &steps(DL_BUDGET)),
            fresh.type_sweep_cx(&schema, &steps(DL_BUDGET))
        );
    }

    /// Additions made *after* the snapshot revision revalidate the
    /// restored entries against the delta log instead of clearing them:
    /// a restored-then-edited process agrees with a never-crashed
    /// process that applied the same edits, with zero invalidations.
    #[test]
    fn addition_only_delta_logs_revalidate_without_reproving(
        seed in any::<u64>(),
        pick_a in any::<u64>(),
        pick_b in any::<u64>(),
    ) {
        let schema = generate(&mappable_config(seed));
        let types: Vec<ObjectTypeId> = schema.object_types().map(|(id, _)| id).collect();
        let a = types[pick_a as usize % types.len()];
        let b = types[pick_b as usize % types.len()];

        let survivor = translate(&schema);
        survivor.type_sweep_cx(&schema, &steps(DL_BUDGET));
        survivor.role_sweep_cx(&schema, &steps(DL_BUDGET));
        let blob = survivor.snapshot();

        let mut restarted = translate(&schema);
        restarted.restore(&blob).expect("clean snapshot rejected");

        // The same post-restart additions applied to the restored
        // process and to a never-crashed twin.
        let mut twin = translate(&schema);
        for t in [&mut restarted, &mut twin] {
            let mut edit = t.edit();
            edit.add_subtype(a, b);
            if a != b {
                edit.add_type_exclusion(a, b);
            }
        }
        prop_assert_eq!(
            restarted.type_sweep_cx(&schema, &steps(DL_BUDGET)),
            twin.type_sweep_cx(&schema, &steps(DL_BUDGET)),
            "restored + edited verdicts diverged from the never-crashed twin"
        );
        prop_assert_eq!(
            restarted.role_sweep_cx(&schema, &steps(DL_BUDGET)),
            twin.role_sweep_cx(&schema, &steps(DL_BUDGET))
        );
        let stats = restarted.cache_stats();
        prop_assert_eq!(stats.invalidations, 0, "additions cleared the restored shards");
    }
}

/// The same story end to end through [`orm_reasoner::InteractiveSession`]
/// and [`orm_serve::ReasonerService`] — the two hosts a tool would
/// actually embed.
#[test]
fn session_and_service_recovery_end_to_end() {
    let schema = generate(&mappable_config(42));

    // InteractiveSession: snapshot, restart, warm hits only.
    let session = orm_reasoner::InteractiveSession::new(&schema);
    let before_types = session.type_sweep_cx(&schema, &steps(DL_BUDGET));
    let before_roles = session.role_sweep_cx(&schema, &steps(DL_BUDGET));
    let blob = session.snapshot();
    let restarted = orm_reasoner::InteractiveSession::new(&schema);
    restarted.restore(&blob).expect("session snapshot rejected");
    assert_eq!(restarted.type_sweep_cx(&schema, &steps(DL_BUDGET)), before_types);
    assert_eq!(restarted.role_sweep_cx(&schema, &steps(DL_BUDGET)), before_roles);
    assert_eq!(restarted.cache_stats().misses, 0, "warm restart re-proved");

    // ReasonerService: a snapshot of one host restores into the other —
    // the blob is host-agnostic (same schema, same translation).
    let service = orm_serve::ReasonerService::new(&schema, orm_serve::ServiceConfig::default());
    service.restore(&blob).expect("service rejected the session's snapshot");
    let cx = ExecCx::with_steps(DL_BUDGET);
    let served = service.type_sweep(&schema, &cx).expect("idle service shed");
    assert_eq!(served, before_types);

    // A blob from a *different* schema is a stamp mismatch, not a panic.
    let other = generate(&mappable_config(43));
    let stranger = translate(&other);
    assert!(matches!(
        stranger.restore(&blob),
        Err(SnapshotError::StampMismatch | SnapshotError::Malformed(_))
    ));
}
