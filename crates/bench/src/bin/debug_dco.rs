//! Diagnostic harness for the DCO loop: prints predictor quality, loss
//! trajectories, movement statistics, and before/after routed overflow.

use dco3d::{DcoConfig, DcoOptimizer};
use dco_flow::{train_predictor, FlowConfig};
use dco_gnn::{build_node_features, Gcn};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_place::{legalize, GlobalPlacer, PlacementParams};
use dco_route::{Router, RouterConfig};
use dco_timing::Sta;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let seed = 1u64;
    let design = GeneratorConfig::for_profile(DesignProfile::Dma)
        .with_scale(scale)
        .generate(seed)?;
    println!(
        "design: {} cells, grid {}x{}",
        design.netlist.num_cells(),
        design.floorplan.grid.nx,
        design.floorplan.grid.ny
    );

    let cfg = FlowConfig {
        map_size: 32,
        unet_channels: 6,
        train_layouts: 12,
        train_epochs: 20,
        ..FlowConfig::default()
    };
    let predictor = train_predictor(&design, &cfg, seed);
    let m = &predictor.train_result;
    println!(
        "predictor: train loss {:?} -> {:?}, test loss {:?}",
        m.train_loss.first(),
        m.train_loss.last(),
        m.test_loss.last()
    );
    let mean_nrmse: f32 =
        m.test_metrics.iter().map(|x| x.nrmse).sum::<f32>() / m.test_metrics.len().max(1) as f32;
    println!("predictor test NRMSE: {mean_nrmse:.3}");

    // --- distribution check: training features vs rasterized features ---
    {
        use dco3d::SoftRasterizer;
        use dco_features::SoftAssignment;
        use dco_flow::build_dataset;
        use std::rc::Rc;
        let data = build_dataset(&design, 2, cfg.map_size, &cfg.stage_router, seed);
        let s0 = &data[0];
        let f0 = predictor.normalization.features_tensor(&s0.features[0]);
        let f1 = predictor.normalization.features_tensor(&s0.features[1]);
        let (p0, _) = predictor.unet.predict(&f0, &f1);
        println!(
            "train sample: label max {:.2} mean {:.3}; pred(norm) max {:.3} mean {:.3}; label_scale {:.3}",
            s0.labels[0].max(), s0.labels[0].mean(), p0.max(), p0.mean(), predictor.normalization.label_scale
        );
        // rasterized features at the same placement as sample 0? use design.placement
        let grid = dco_netlist::GcellGrid {
            nx: cfg.map_size,
            ny: cfg.map_size,
            dx: design.floorplan.die.width / cfg.map_size as f64,
            dy: design.floorplan.die.height / cfg.map_size as f64,
        };
        let ras = SoftRasterizer::new(Rc::new(design.netlist.clone()), grid);
        let soft = SoftAssignment::from_placement(&design.placement);
        let x = dco_tensor::Tensor::from_vec(
            soft.x.iter().map(|&v| v as f32).collect(),
            &[soft.x.len()],
        );
        let y = dco_tensor::Tensor::from_vec(
            soft.y.iter().map(|&v| v as f32).collect(),
            &[soft.y.len()],
        );
        let z = dco_tensor::Tensor::from_vec(
            soft.z.iter().map(|&v| v as f32).collect(),
            &[soft.z.len()],
        );
        use dco_tensor::CustomOp;
        let feats = ras.forward(&[&x, &y, &z]);
        let plane = cfg.map_size * cfg.map_size;
        for c in 0..7 {
            let train_ch = &s0.features[0][c];
            let ras_ch = &feats.data()[c * plane..(c + 1) * plane];
            let ras_max = ras_ch.iter().cloned().fold(f32::MIN, f32::max);
            println!(
                "  ch{} {:>14}: train max {:>8.3} | raster max {:>8.3} | norm scale {:>8.3}",
                c,
                dco_features::CHANNEL_NAMES[c],
                train_ch.max(),
                ras_max,
                predictor.normalization.channel_scale[c]
            );
        }
    }

    let params = PlacementParams::pin3d_baseline();
    let mut base = GlobalPlacer::new(&design).place(&params, seed);
    legalize(&design, &mut base, params.displacement_threshold);
    let router = Router::new(
        &design,
        RouterConfig {
            rrr_iterations: 1,
            ..RouterConfig::default()
        },
    );
    let before = router.route(&base);
    println!(
        "baseline overflow: {:.0} ({:.1}% gcells)",
        before.report.total, before.report.overflow_gcell_pct
    );

    let timing = Sta::new(&design).analyze(&base, None, None);
    let features = build_node_features(&design, &base, &timing);
    let dco_cfg = DcoConfig::default();
    let mut dco = DcoOptimizer::new(
        &design,
        &predictor.unet,
        &predictor.normalization,
        features,
        Gcn::new(seed),
        dco_cfg,
    );
    let result = dco.run(&base);
    for (i, lb) in result.history.iter().enumerate() {
        println!(
            "iter {:>2}: total {:.5} disp {:.5} ovlp {:.5} cut {:.5} cong {:.5}",
            i + 1,
            lb.total,
            lb.displacement,
            lb.overlap,
            lb.cutsize,
            lb.congestion
        );
    }
    // movement stats
    let mut total_move = 0.0;
    let mut max_move = 0.0f64;
    let mut flips = 0;
    for id in design.netlist.cell_ids() {
        let d = (result.placement.x(id) - base.x(id)).abs()
            + (result.placement.y(id) - base.y(id)).abs();
        total_move += d;
        max_move = max_move.max(d);
        if result.placement.tier(id) != base.tier(id) {
            flips += 1;
        }
    }
    println!(
        "movement: mean {:.3} um, max {:.3} um, {} tier flips / {} cells",
        total_move / design.netlist.num_cells() as f64,
        max_move,
        flips,
        design.netlist.num_cells()
    );

    let mut opt = result.placement.clone();
    legalize(&design, &mut opt, params.displacement_threshold);
    let after = router.route(&opt);
    println!(
        "after DCO overflow: {:.0} ({:.1}% gcells)  [was {:.0}]",
        after.report.total, after.report.overflow_gcell_pct, before.report.total
    );
    println!(
        "HPWL: {:.0} -> {:.0}; cut {} -> {}",
        base.total_hpwl(&design.netlist),
        opt.total_hpwl(&design.netlist),
        base.cut_size(&design.netlist),
        opt.cut_size(&design.netlist)
    );
    Ok(())
}
// appended: feature distribution diagnosis (see main below)
