//! Integration tests for the resilience layer: checkpoint round-trips,
//! kill/resume identity, and recovery from every injected fault class.

use dco_flow::{
    train_predictor_resilient, CheckpointStore, FaultSpec, FlowConfig, FlowError, FlowKind,
    FlowRunner, RecoveryEvent, ResilienceOptions, Stage,
};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::{Design, Placement3, Tier};
use dco_unet::{load_predictor, save_predictor};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

fn design(seed: u64) -> Design {
    GeneratorConfig::for_profile(DesignProfile::Dma)
        .with_scale(0.015)
        .generate(seed)
        .expect("generate design")
}

fn quick_cfg() -> FlowConfig {
    let mut cfg = FlowConfig {
        map_size: 16,
        unet_channels: 4,
        train_layouts: 3,
        train_epochs: 1,
        ..FlowConfig::default()
    };
    cfg.dco.max_iter = 3;
    cfg
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dco_resil_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// --- checkpoint round-trips ------------------------------------------------

#[test]
fn placement_checkpoint_round_trips_exactly() {
    let d = design(3);
    let mut p = Placement3::zeroed(d.netlist.num_cells());
    for (i, id) in d.netlist.cell_ids().enumerate() {
        p.set_xy(id, 0.125 + i as f64 * 1.5, 7.25 - i as f64 * 0.375);
        p.set_tier(id, if i % 3 == 0 { Tier::Top } else { Tier::Bottom });
    }
    let value = serde_json::to_value(&p);
    let text = serde_json::to_string(&value).expect("encode");
    let back_value: serde_json::Value = serde_json::from_str(&text).expect("reparse");
    let back = Placement3::from_value(&back_value).expect("decode");
    assert_eq!(back, p, "JSON round-trip must be bitwise exact");
}

#[test]
fn routing_state_checkpoint_round_trips_through_store() {
    // The route stage persists per-net state; exercise the same envelope
    // through a real CheckpointStore with a representative payload.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct RouteState {
        net_lengths: Vec<f64>,
        net_bonds: Vec<u32>,
        converged: bool,
        rrr_iterations: usize,
    }
    let d = design(4);
    let dir = tmp_dir("route_state");
    let store = CheckpointStore::open(&dir, FlowKind::Pin3d, 9, &d).expect("open");
    let state = RouteState {
        net_lengths: vec![0.0, 1.5, f64::MAX, 1e-300, 123.456789012345],
        net_bonds: vec![0, 3, u32::MAX],
        converged: false,
        rrr_iterations: 6,
    };
    store
        .save(Stage::Route, &serde_json::to_value(&state))
        .expect("save");
    let loaded = store.load(Stage::Route).expect("load").expect("present");
    assert_eq!(RouteState::from_value(&loaded).expect("decode"), state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unet_weight_checkpoint_round_trips() {
    let d = design(5);
    let cfg = quick_cfg();
    let opts = ResilienceOptions::resilient();
    let (predictor, _) = train_predictor_resilient(&d, &cfg, 1, &opts).expect("train");
    let path = tmp_dir("unet_weights").join("predictor.json");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    save_predictor(&path, &predictor.unet, &predictor.normalization).expect("save");
    let (back, norm) = load_predictor(&path).expect("load");
    let a = predictor.unet.store_ref().snapshot();
    let b = back.store_ref().snapshot();
    assert_eq!(a.len(), b.len());
    for (k, t) in &a {
        assert_eq!(t.data(), b[k].data(), "weight tensor {k} must be exact");
    }
    assert_eq!(norm, predictor.normalization);
    let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
}

// --- kill / resume identity ------------------------------------------------

#[test]
fn killed_run_resumes_to_identical_outcome() {
    let d = design(2);
    let runner = FlowRunner::new(&d, quick_cfg());
    let uninterrupted = runner
        .run_resilient(
            FlowKind::Pin3dCong,
            11,
            None,
            &ResilienceOptions::resilient(),
        )
        .expect("uninterrupted");

    // First attempt dies at cts (no retries): place/dco/tier-assign were
    // checkpointed before the "kill".
    let dir = tmp_dir("kill_resume");
    let fatal = ResilienceOptions {
        inject: Some(FaultSpec::StagePanic(Stage::Cts)),
        max_stage_retries: 0,
        ..ResilienceOptions::with_checkpoints(&dir)
    };
    let err = runner
        .run_resilient(FlowKind::Pin3dCong, 11, None, &fatal)
        .expect_err("must die at cts");
    assert!(matches!(err, FlowError::StagePanic { stage: "cts", .. }));

    // Resume without the fault: identical outcome, earlier stages skipped.
    let resume = ResilienceOptions::with_checkpoints(&dir);
    let resumed = runner
        .run_resilient(FlowKind::Pin3dCong, 11, None, &resume)
        .expect("resume");
    assert_eq!(resumed.outcome, uninterrupted.outcome);
    assert!(resumed.report.events.iter().any(|e| matches!(
        e,
        RecoveryEvent::ResumedFromCheckpoint {
            stage: "tier-assign"
        }
    )));
    let _ = std::fs::remove_dir_all(&dir);
}

// --- fault classes ---------------------------------------------------------

#[test]
fn every_stage_panic_recovers_with_identical_outcome() {
    let d = design(2);
    let runner = FlowRunner::new(&d, quick_cfg());
    let baseline = runner
        .run_resilient(FlowKind::Pin3d, 7, None, &ResilienceOptions::resilient())
        .expect("baseline");
    for stage in [
        Stage::Place,
        Stage::TierAssign,
        Stage::Cts,
        Stage::Route,
        Stage::Sta,
    ] {
        let opts = ResilienceOptions {
            inject: Some(FaultSpec::StagePanic(stage)),
            ..ResilienceOptions::resilient()
        };
        let out = runner
            .run_resilient(FlowKind::Pin3d, 7, None, &opts)
            .unwrap_or_else(|e| panic!("stage {stage} did not recover: {e}"));
        assert_eq!(out.outcome, baseline.outcome, "after panic at {stage}");
        assert!(
            matches!(
                out.report.events.as_slice(),
                [RecoveryEvent::PanicRetried { .. }]
            ),
            "expected exactly one retry event for {stage}"
        );
    }
}

#[test]
fn corrupt_checkpoint_is_discarded_on_resume() {
    let d = design(2);
    let runner = FlowRunner::new(&d, quick_cfg());
    let dir = tmp_dir("corrupt_resume");
    let opts = ResilienceOptions {
        inject: Some(FaultSpec::CorruptCheckpoint(Stage::TierAssign)),
        ..ResilienceOptions::with_checkpoints(&dir)
    };
    let first = runner
        .run_resilient(FlowKind::Pin3d, 13, None, &opts)
        .expect("first run");
    // Re-run without the fault: the torn tier-assign file is discarded and
    // the stage re-runs, producing the same outcome.
    let clean = ResilienceOptions::with_checkpoints(&dir);
    let second = runner
        .run_resilient(FlowKind::Pin3d, 13, None, &clean)
        .expect("second run");
    assert_eq!(second.outcome, first.outcome);
    assert!(second.report.events.iter().any(|e| matches!(
        e,
        RecoveryEvent::CorruptCheckpointDiscarded {
            stage: "tier-assign",
            ..
        }
    )));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn route_stall_degrades_to_best_so_far() {
    let d = design(2);
    let runner = FlowRunner::new(&d, quick_cfg());
    let opts = ResilienceOptions {
        inject: Some(FaultSpec::RouteStall),
        ..ResilienceOptions::resilient()
    };
    let out = runner
        .run_resilient(FlowKind::Pin3d, 5, None, &opts)
        .expect("stalled route still completes");
    assert!(out.report.degraded);
    assert!(out.report.events.iter().any(|e| matches!(
        e,
        RecoveryEvent::RouterNonConvergence { overflow, .. } if *overflow > 0.0
    )));
    // PPA metrics are still produced from the best-so-far routing.
    assert!(out.outcome.signoff.total_power_mw > 0.0);
    assert!(out.outcome.signoff.wirelength_um > 0.0);
}

#[test]
fn nan_faults_in_training_and_dco_are_absorbed() {
    let d = design(2);
    let cfg = quick_cfg();
    let nan_train = ResilienceOptions {
        inject: Some(FaultSpec::NanTrain),
        ..ResilienceOptions::resilient()
    };
    let (predictor, report) =
        train_predictor_resilient(&d, &cfg, 1, &nan_train).expect("train with nan fault");
    assert!(
        report.events.iter().any(|e| matches!(
            e,
            RecoveryEvent::DivergenceRollback { stage: "train", events } if *events > 0
        )),
        "trainer must report the rollback"
    );
    assert!(!report.degraded);

    let runner = FlowRunner::new(&d, cfg);
    let nan_dco = ResilienceOptions {
        inject: Some(FaultSpec::NanDco),
        ..ResilienceOptions::resilient()
    };
    let out = runner
        .run_resilient(FlowKind::Dco3d, 1, Some(&predictor), &nan_dco)
        .expect("dco with nan fault");
    assert!(
        out.report.events.iter().any(|e| matches!(
            e,
            RecoveryEvent::DivergenceRollback { stage: "dco", events } if *events > 0
        )),
        "dco must report the rollback"
    );
    assert!(out.outcome.signoff.total_power_mw > 0.0);
}

#[test]
fn train_checkpoint_resumes_and_survives_corruption() {
    let d = design(2);
    let cfg = quick_cfg();
    let dir = tmp_dir("train_resume");
    let opts = ResilienceOptions::with_checkpoints(&dir);
    let (first, r1) = train_predictor_resilient(&d, &cfg, 1, &opts).expect("train");
    assert!(r1.events.is_empty());
    let (second, r2) = train_predictor_resilient(&d, &cfg, 1, &opts).expect("resume");
    assert!(matches!(
        r2.events.as_slice(),
        [RecoveryEvent::ResumedFromCheckpoint { stage: "train" }]
    ));
    let a = first.unet.store_ref().snapshot();
    let b = second.unet.store_ref().snapshot();
    for (k, t) in &a {
        assert_eq!(t.data(), b[k].data(), "resumed weights must match for {k}");
    }

    // Corrupt the bundle: the next call discards it and retrains.
    let path = dir.join("predictor.json");
    let bytes = std::fs::read(&path).expect("read bundle");
    std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
    let (third, r3) = train_predictor_resilient(&d, &cfg, 1, &opts).expect("retrain");
    assert!(r3.events.iter().any(|e| matches!(
        e,
        RecoveryEvent::CorruptCheckpointDiscarded { stage: "train", .. }
    )));
    let c = third.unet.store_ref().snapshot();
    for (k, t) in &a {
        assert_eq!(t.data(), c[k].data(), "retrained weights are deterministic");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --- property: resume(seed) == uninterrupted(seed) -------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any seed, interrupting after an arbitrary prefix of stages and
    /// resuming yields exactly the uninterrupted outcome.
    #[test]
    fn resume_equals_uninterrupted(seed in 1u64..50, keep in 1usize..5) {
        let d = design(2);
        let runner = FlowRunner::new(&d, quick_cfg());
        let uninterrupted = runner
            .run_resilient(FlowKind::Pin3d, seed, None, &ResilienceOptions::resilient())
            .expect("uninterrupted");

        let dir = tmp_dir(&format!("prop_{seed}_{keep}"));
        let opts = ResilienceOptions::with_checkpoints(&dir);
        let full = runner
            .run_resilient(FlowKind::Pin3d, seed, None, &opts)
            .expect("checkpointed");
        prop_assert_eq!(&full.outcome, &uninterrupted.outcome);

        // Drop everything after the first `keep` stages, as if killed there.
        let store = CheckpointStore::open(&dir, FlowKind::Pin3d, seed, &d).expect("open");
        let order = [Stage::Place, Stage::TierAssign, Stage::Cts, Stage::Route, Stage::Sta];
        for stage in order.iter().skip(keep) {
            store.discard(*stage).expect("discard");
        }
        let resumed = runner
            .run_resilient(FlowKind::Pin3d, seed, None, &opts)
            .expect("resumed");
        prop_assert_eq!(&resumed.outcome, &uninterrupted.outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --- cooperative cancellation ----------------------------------------------
//
// RRR waves and training epochs poll a `CancelToken`; the typed
// `deadline-exceeded` reply built on top of these polls is covered by the
// serve suite. Here we pin the structural contract of the polls
// themselves: a cancelled router still returns an index-aligned,
// fully-sized result, and a cancelled trainer leaves the weights bitwise
// identical to the pre-training snapshot (no torn checkpoint).

/// A pre-cancelled token stops the router at the first wave and the
/// trainer at the first epoch, at both 1 and 8 threads, without ever
/// producing a structurally torn artifact.
#[test]
fn cancelled_router_and_trainer_stop_clean_at_threads_1_and_8() {
    use dco_parallel::CancelToken;
    use dco_route::{Router, RouterConfig};
    use dco_unet::{train, SiameseUNet, TrainConfig, UNetConfig};

    let d = design(6);
    for threads in [1usize, 8] {
        dco_parallel::set_adaptive(false);
        dco_parallel::set_threads(threads);
        let token = CancelToken::new();
        token.cancel();

        // Router: every per-net vector stays index-aligned with the
        // netlist even though no segment was actually routed.
        let router = Router::new(
            &d,
            RouterConfig {
                cancel: token.clone(),
                ..RouterConfig::default()
            },
        );
        let result = router.route(&d.placement);
        let n = d.netlist.num_nets();
        assert_eq!(
            result.net_lengths.len(),
            n,
            "net_lengths torn at {threads}t"
        );
        assert_eq!(result.net_bonds.len(), n, "net_bonds torn at {threads}t");
        assert!(
            result.net_lengths.iter().all(|l| l.is_finite()),
            "cancelled route produced non-finite lengths"
        );
        for die in 0..2 {
            assert_eq!(result.h_usage[die].len(), result.congestion[die].len());
            assert_eq!(result.v_usage[die].len(), result.utilization[die].len());
        }

        // Trainer: a cancel before the first epoch leaves the model
        // bitwise at its initial weights and records no epochs.
        let dataset = dco_flow::build_dataset(&d, 2, 16, &RouterConfig::default(), 5);
        let cfg = UNetConfig {
            in_channels: 7,
            base_channels: 4,
            size: 16,
        };
        let mut model = SiameseUNet::new(cfg, 21);
        let before = model.store_ref().snapshot();
        let out = train(
            &mut model,
            &dataset,
            &TrainConfig {
                epochs: 3,
                cancel: token,
                ..TrainConfig::default()
            },
        );
        assert!(
            out.train_loss.is_empty() && out.test_loss.is_empty(),
            "cancelled training must record no completed epochs"
        );
        assert!(!out.degraded);
        let after = model.store_ref().snapshot();
        assert_eq!(before.len(), after.len());
        for (k, t) in &before {
            assert_eq!(
                t.data(),
                after[k].data(),
                "weights for {k} torn by cancellation at {threads} threads"
            );
        }
    }
    dco_parallel::set_threads(1);
    dco_parallel::set_adaptive(true);
}
