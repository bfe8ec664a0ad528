//! Regenerates Fig. 6 and Fig. 7: post-route congestion and cell-density
//! maps for both dies of the LDPC benchmark, Pin-3D vs DCO-3D.
//!
//! ```sh
//! cargo run --release -p dco-bench --bin repro_fig6_7 [-- <scale>]
//! ```

use dco_features::{render_layout_svg, FeatureExtractor, SvgOptions};
use dco_flow::{train_predictor, FlowConfig, FlowKind, FlowRunner};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let seed = 1;
    let design = GeneratorConfig::for_profile(DesignProfile::Ldpc)
        .with_scale(scale)
        .generate(seed)?;
    println!(
        "Fig. 6/7: {} ({} cells), Pin3D vs DCO-3D",
        design.name,
        design.netlist.num_cells()
    );

    let cfg = FlowConfig::default();
    let predictor = train_predictor(&design, &cfg, seed);
    let runner = FlowRunner::new(&design, cfg);
    let base = runner.run(FlowKind::Pin3d, seed, None);
    let ours = runner.run(FlowKind::Dco3d, seed, Some(&predictor));

    println!(
        "\noverflow: Pin3D {:.0} -> DCO-3D {:.0} ({:+.1}%)",
        base.placement_stage.overflow,
        ours.placement_stage.overflow,
        100.0 * (ours.placement_stage.overflow - base.placement_stage.overflow)
            / base.placement_stage.overflow
    );

    let fx = FeatureExtractor::new(design.floorplan.grid);
    let [b_bot, b_top] = fx.extract(&design.netlist, &base.placement);
    let [o_bot, o_top] = fx.extract(&design.netlist, &ours.placement);

    for (die, di) in [("bottom", 0usize), ("top", 1usize)] {
        println!("\n=== Fig. 6 — {die} die congestion (Pin3D left, DCO-3D right) ===");
        side_by_side(
            &base.congestion[di].normalized().to_ascii(),
            &ours.congestion[di].normalized().to_ascii(),
        );
    }
    for (die, b, o) in [("bottom", &b_bot, &o_bot), ("top", &b_top, &o_top)] {
        println!("\n=== Fig. 7 — {die} die cell density (Pin3D left, DCO-3D right) ===");
        side_by_side(
            &b.cell_density.normalized().to_ascii(),
            &o.cell_density.normalized().to_ascii(),
        );
    }

    let dump = serde_json::json!({
        "pin3d": {
            "congestion": [base.congestion[0].data(), base.congestion[1].data()],
            "density": [b_bot.cell_density.data(), b_top.cell_density.data()],
            "overflow": base.placement_stage.overflow,
        },
        "dco3d": {
            "congestion": [ours.congestion[0].data(), ours.congestion[1].data()],
            "density": [o_bot.cell_density.data(), o_top.cell_density.data()],
            "overflow": ours.placement_stage.overflow,
        },
    });
    std::fs::write("target/repro_fig6_7.json", serde_json::to_string(&dump)?)?;
    println!("\nwrote raw maps to target/repro_fig6_7.json");
    std::fs::create_dir_all("target/fig6_7")?;
    for (die, di) in [("bottom", 0usize), ("top", 1usize)] {
        base.congestion[di].write_ppm(format!("target/fig6_7/pin3d_{die}_congestion.ppm"), 8)?;
        ours.congestion[di].write_ppm(format!("target/fig6_7/dco3d_{die}_congestion.ppm"), 8)?;
    }
    b_bot
        .cell_density
        .write_ppm("target/fig6_7/pin3d_bottom_density.ppm", 8)?;
    b_top
        .cell_density
        .write_ppm("target/fig6_7/pin3d_top_density.ppm", 8)?;
    o_bot
        .cell_density
        .write_ppm("target/fig6_7/dco3d_bottom_density.ppm", 8)?;
    o_top
        .cell_density
        .write_ppm("target/fig6_7/dco3d_top_density.ppm", 8)?;
    // Fig. 6's layout panels as SVG (cells colored by class, congestion
    // underlay), one file per flow.
    for (label, outcome) in [("pin3d", &base), ("dco3d", &ours)] {
        let svg = render_layout_svg(
            &design.netlist,
            &outcome.placement,
            &design.floorplan.die,
            &SvgOptions {
                congestion: Some([outcome.congestion[0].clone(), outcome.congestion[1].clone()]),
            },
        );
        std::fs::write(format!("target/fig6_7/{label}_layout.svg"), svg)?;
    }
    println!("wrote PPM heatmaps and layout SVGs to target/fig6_7/");
    Ok(())
}

fn side_by_side(a: &str, b: &str) {
    for (la, lb) in a.lines().zip(b.lines()) {
        println!("{la}   |   {lb}");
    }
}
