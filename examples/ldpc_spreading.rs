//! DCO-3D cell spreading on the LDPC benchmark: the paper's Fig. 6/7
//! scenario (post-route congestion and density maps, Pin-3D vs. ours), plus
//! the TCL spreading-directive export.
//!
//! ```sh
//! cargo run --release -p dco-examples --bin ldpc_spreading
//! ```

use dco3d::{diff_placements, directives_to_tcl, DcoConfig, DcoOptimizer};
use dco_features::FeatureExtractor;
use dco_flow::{train_predictor, FlowConfig};
use dco_gnn::{build_node_features, Gcn};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_place::{legalize, GlobalPlacer, PlacementParams};
use dco_route::{Router, RouterConfig};
use dco_timing::Sta;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = GeneratorConfig::for_profile(DesignProfile::Ldpc)
        .with_scale(0.02)
        .generate(11)?;
    let cfg = FlowConfig {
        train_layouts: 6,
        train_epochs: 3,
        ..FlowConfig::default()
    };

    println!("training congestion predictor for {} ...", design.name);
    let predictor = train_predictor(&design, &cfg, 11);

    // Pin-3D placement (the "before").
    let params = PlacementParams::pin3d_baseline();
    let mut before = GlobalPlacer::new(&design).place(&params, 11);
    legalize(&design, &mut before, params.displacement_threshold);
    let routed_before = Router::new(&design, RouterConfig::default()).route(&before);

    // DCO-3D spreading (the "after").
    let timing = Sta::new(&design).analyze(&before, None, None);
    let features = build_node_features(&design, &before, &timing);
    let mut dco = DcoOptimizer::new(
        &design,
        &predictor.unet,
        &predictor.normalization,
        features,
        Gcn::new(11),
        DcoConfig {
            max_iter: 15,
            ..DcoConfig::default()
        },
    );
    let result = dco.run(&before);
    let mut after = result.placement.clone();
    legalize(&design, &mut after, params.displacement_threshold);
    let routed_after = Router::new(&design, RouterConfig::default()).route(&after);

    println!("\nDCO loss trajectory (total / disp / ovlp / cut / cong):");
    for (i, lb) in result.history.iter().enumerate() {
        println!(
            "  iter {:>2}: {:.4} / {:.4} / {:.4} / {:.4} / {:.4}",
            i + 1,
            lb.total,
            lb.displacement,
            lb.overlap,
            lb.cutsize,
            lb.congestion
        );
    }

    println!(
        "\npost-route overflow: Pin3D {:.0} -> DCO-3D {:.0}",
        routed_before.report.total, routed_after.report.total
    );
    println!(
        "cut size: {} -> {}",
        before.cut_size(&design.netlist),
        after.cut_size(&design.netlist)
    );

    // Fig. 6: congestion maps.
    println!("\nFig.6-style congestion maps (top die), Pin3D (left) vs DCO-3D (right):");
    side_by_side(
        &routed_before.congestion[1].to_ascii(),
        &routed_after.congestion[1].to_ascii(),
    );

    // Fig. 7: density maps.
    let fx = FeatureExtractor::new(design.floorplan.grid);
    let [_, top_before] = fx.extract(&design.netlist, &before);
    let [_, top_after] = fx.extract(&design.netlist, &after);
    println!("\nFig.7-style density maps (top die), Pin3D (left) vs DCO-3D (right):");
    side_by_side(
        &top_before.cell_density.to_ascii(),
        &top_after.cell_density.to_ascii(),
    );

    // The TCL export the paper hands to ICC2.
    let directives = diff_placements(&design.netlist, &before, &after, 0.05);
    let tcl = directives_to_tcl(&directives);
    println!(
        "\nexported {} spreading directives; first lines:",
        directives.len()
    );
    for line in tcl.lines().take(6) {
        println!("  {line}");
    }
    Ok(())
}

fn side_by_side(a: &str, b: &str) {
    for (la, lb) in a.lines().zip(b.lines()) {
        println!("{la}   |   {lb}");
    }
}
