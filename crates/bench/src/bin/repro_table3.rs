//! Regenerates Table III: the full comparison of Pin-3D, Pin-3D + Cong.,
//! Pin-3D + BO, and DCO-3D on all six design profiles, with placement-stage
//! routability and end-of-flow PPA columns.
//!
//! Runtime scales with `--scale`; the default 0.03 miniatures finish in a
//! few minutes on one core. Run with a larger scale (up to 1.0 = the
//! paper's full design sizes) when you have the budget.
//!
//! Trained predictors are cached under `target/predictors/` and reused on
//! subsequent runs of the same design/scale (delete the files to retrain).
//!
//! ```sh
//! cargo run --release -p dco-bench --bin repro_table3 [-- <scale> [seed=N] [designs...]]
//! # e.g.  cargo run --release -p dco-bench --bin repro_table3 -- 0.05 seed=3 DMA LDPC
//! ```

use dco_flow::{
    format_design_block, to_csv, train_predictor, FlowConfig, FlowKind, FlowRunner, Predictor,
};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_unet::{load_predictor, save_predictor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.03);
    let mut seed = 1u64; // identical seed across all flows (Table III caption)
    let mut wanted: Vec<String> = Vec::new();
    for a in args {
        if let Some(s) = a.strip_prefix("seed=") {
            seed = s.parse()?;
        } else {
            wanted.push(a.to_uppercase());
        }
    }

    println!(
        "Table III at scale {scale} (paper runs the full-size designs on ICC2; see EXPERIMENTS.md)\n"
    );
    let mut csv = String::new();
    for profile in DesignProfile::ALL {
        if !wanted.is_empty()
            && !wanted
                .iter()
                .any(|w| w == profile.name().to_uppercase().as_str())
        {
            continue;
        }
        let design = GeneratorConfig::for_profile(profile)
            .with_scale(scale)
            .generate(seed)?;
        eprintln!(
            "[{}] training predictor ({} cells)...",
            profile.name(),
            design.netlist.num_cells()
        );
        let cfg = FlowConfig::default();
        std::fs::create_dir_all("target/predictors")?;
        let cache = format!("target/predictors/{}_{scale}_{seed}.json", profile.name());
        let predictor = match load_predictor(&cache) {
            Ok((unet, normalization)) => {
                eprintln!("[{}] loaded cached predictor from {cache}", profile.name());
                // training curves are not cached; re-running repro_fig5
                // regenerates them
                Predictor::from_weights(unet, normalization)
            }
            Err(_) => {
                let p = train_predictor(&design, &cfg, seed);
                if let Err(e) = save_predictor(&cache, &p.unet, &p.normalization) {
                    eprintln!(
                        "[{}] warning: could not cache predictor: {e}",
                        profile.name()
                    );
                }
                p
            }
        };
        let runner = FlowRunner::new(&design, cfg);
        let mut outcomes = Vec::new();
        for kind in FlowKind::ALL {
            eprintln!("[{}] running {} ...", profile.name(), kind.label());
            let p = (kind == FlowKind::Dco3d).then_some(&predictor);
            outcomes.push(runner.run(kind, seed, p));
        }
        println!("{}", format_design_block(&design, &outcomes));
        let block_csv = to_csv(&design, &outcomes);
        if csv.is_empty() {
            csv = block_csv;
        } else {
            csv.extend(block_csv.lines().skip(1).map(|l| format!("{l}\n")));
        }
    }
    std::fs::write("target/repro_table3.csv", &csv)?;
    println!("wrote machine-readable results to target/repro_table3.csv");
    Ok(())
}
