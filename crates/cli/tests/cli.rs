//! End-to-end tests for the `dco3d` binary: the predictor bundle carries
//! the map size and UNet width it was trained with, the commands that load
//! it take both from it, and `dco3d dco` runs the flow's DCO stage.

use dco_flow::{FlowConfig, FlowKind, FlowRunner, Predictor};
use dco_netlist::bookshelf;
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_place::legalize;
use std::path::PathBuf;
use std::process::{Command, Output};

fn dco3d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dco3d"))
        .args(args)
        .output()
        .expect("spawn dco3d")
}

fn bundle_path() -> PathBuf {
    std::env::temp_dir().join(format!("dco3d_cli_bundle_{}.json", std::process::id()))
}

#[test]
fn train_saves_the_requested_size_and_predict_takes_it_from_the_bundle() {
    let path = bundle_path();
    let out = path.to_str().expect("utf-8 temp path");
    let design = ["--design", "DMA", "--scale", "0.015", "--seed", "2"];
    let train = dco3d(
        &[
            &["train"][..],
            &design,
            &["--map-size", "16", "--channels", "4"],
            &["--layouts", "2", "--epochs", "1", "--out", out],
        ]
        .concat(),
    );
    assert!(
        train.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&train.stderr)
    );
    let (unet, _) = dco_unet::load_predictor(&path).expect("load the saved bundle");
    assert_eq!(
        (unet.config().size, unet.config().base_channels),
        (16, 4),
        "saved config {:?}",
        unet.config()
    );

    let predict =
        |extra: &[&str]| dco3d(&[&["predict"][..], &design, &["--predictor", out], extra].concat());
    let ok = predict(&[]);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(ok.status.success(), "predict failed: {stdout}");
    assert!(stdout.contains("16x16 per die"), "{stdout}");
    assert!(predict(&["--map-size", "16", "--channels", "4"])
        .status
        .success());
    for extra in [["--map-size", "32"], ["--channels", "8"]] {
        let bad = predict(&extra);
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains("disagrees with the predictor"), "{stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

/// `dco3d dco` writes the legalized placement of the flow's DCO stage
/// ([`FlowRunner::stage_dco`]) at the same seed, map size and iteration
/// count: routed-length node features and the timing-criticality anchors
/// included.
#[test]
fn dco_writes_the_flow_dco_stage_placement() {
    let tmp = std::env::temp_dir();
    let bundle = tmp.join(format!("dco3d_cli_dco_bundle_{}.json", std::process::id()));
    let pl = tmp.join(format!("dco3d_cli_dco_{}.pl", std::process::id()));
    let (bundle_arg, pl_arg) = (
        bundle.to_str().expect("utf-8 temp path"),
        pl.to_str().expect("utf-8 temp path"),
    );
    let design_args = ["--design", "DMA", "--scale", "0.015", "--seed", "2"];
    let train = dco3d(
        &[
            &["train"][..],
            &design_args,
            &["--map-size", "16", "--channels", "4"],
            &["--layouts", "2", "--epochs", "1", "--out", bundle_arg],
        ]
        .concat(),
    );
    assert!(
        train.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&train.stderr)
    );
    let dco = dco3d(
        &[
            &["dco"][..],
            &design_args,
            &["--iters", "3", "--predictor", bundle_arg, "--out", pl_arg],
        ]
        .concat(),
    );
    assert!(
        dco.status.success(),
        "dco failed: {}",
        String::from_utf8_lossy(&dco.stderr)
    );
    let written = std::fs::read_to_string(&pl).expect("read the written placement");

    let design = GeneratorConfig::for_profile(DesignProfile::Dma)
        .with_scale(0.015)
        .generate(2)
        .expect("generate the design");
    let (unet, normalization) = dco_unet::load_predictor(&bundle).expect("load the bundle");
    let mut cfg = FlowConfig {
        map_size: unet.config().size,
        unet_channels: unet.config().base_channels,
        ..FlowConfig::default()
    };
    cfg.dco.max_iter = 3;
    let predictor = Predictor::from_weights(unet, normalization);
    let runner = FlowRunner::new(&design, cfg);
    let place = runner.stage_place(FlowKind::Dco3d, 2);
    let mut want = runner.stage_dco(&predictor, &place, 2, None).placement;
    legalize(&design, &mut want, place.params.displacement_threshold);
    let want = bookshelf::to_pl(&design.netlist, &want);
    let differing = written
        .lines()
        .zip(want.lines())
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        written == want,
        "dco3d dco wrote a placement other than the flow's DCO stage \
         ({differing} of {} lines differ)",
        want.lines().count()
    );
    let _ = std::fs::remove_file(&bundle);
    let _ = std::fs::remove_file(&pl);
}
