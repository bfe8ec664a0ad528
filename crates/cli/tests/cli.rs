//! End-to-end tests for the `dco3d` binary: the predictor bundle carries
//! the map size and UNet width it was trained with, and the commands that
//! load it take both from it.

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
