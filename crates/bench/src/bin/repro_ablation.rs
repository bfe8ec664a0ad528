//! Ablation benches for the design choices DCO-3D motivates:
//!
//! 1. **z on/off** — cross-tier spreading vs 2D-only spreading ("the added
//!    flexibility in the z-direction effectively resolves congestion
//!    hotspots that are unsolvable in traditional 2D layouts"),
//! 2. **cutsize weight γ sweep** — inter-die cut vs overflow trade-off,
//! 3. **loss-term ablation** — congestion-only vs the full multi-objective,
//! 4. **GNN vs per-cell spreader** — the parameterization of Sec. IV-A,
//! 5. **communication layer on/off** — inter-die information exchange in
//!    the Siamese UNet.
//!
//! ```sh
//! cargo run --release -p dco-bench --bin repro_ablation [-- <scale>]
//! ```

use dco3d::{DcoConfig, DcoOptimizer};
use dco_flow::{train_predictor, FlowConfig, FlowKind, FlowRunner};
use dco_gnn::{build_node_features, Gcn};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::Placement3;
use dco_route::Router;
use dco_timing::Sta;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let seed = 1;
    let design = GeneratorConfig::for_profile(DesignProfile::Ldpc)
        .with_scale(scale)
        .generate(seed)?;
    let cfg = FlowConfig::default();
    eprintln!(
        "training predictor for {} ({} cells)...",
        design.name,
        design.netlist.num_cells()
    );
    let predictor = train_predictor(&design, &cfg, seed);

    let runner = FlowRunner::new(&design, cfg.clone());
    // DCO consumes the *global* placement (pre-legalization), exactly as in
    // the flow; baselines and results are finished identically by the
    // flow's tier-assign stage (legalize + detailed place) before routing.
    let place = runner.stage_place(FlowKind::Pin3d, seed);
    let finish = |p: &Placement3| runner.stage_tier_assign(p, &place.params).placement;
    let base = finish(&place.placement);
    // Pattern-only estimate, matching the placement-stage metric of Table III.
    let router = Router::new(&design, cfg.stage_router.clone());
    let baseline = router.route(&base);
    println!(
        "baseline (Pin3D): overflow {:.0}, cut {}",
        baseline.report.total,
        base.cut_size(&design.netlist)
    );

    // Ablations 1-3 run the flow's own DCO stage: Table-II features from a
    // post-route timing probe, plus criticality-weighted displacement.
    let run_dco = |dco_cfg: DcoConfig| {
        let spread = runner.stage_dco_with(&predictor, &place, seed, dco_cfg);
        let placed = finish(&spread.placement);
        let routed = router.route(&placed);
        (
            routed.report.total,
            placed.cut_size(&design.netlist),
            routed.wirelength,
        )
    };

    println!("\n--- ablation 1: cross-tier (z) spreading ---");
    for (label, enable_z) in [
        ("3D spreading (full DCO)", true),
        ("2D-only spreading (no z)", false),
    ] {
        let (ovf, cut, wl) = run_dco(DcoConfig {
            enable_z,
            ..DcoConfig::default()
        });
        println!(
            "  {label:<28} overflow {ovf:>8.0} ({:+6.1}%)  cut {cut:>5}  WL {wl:>9.0}",
            100.0 * (ovf - baseline.report.total) / baseline.report.total
        );
    }

    println!("\n--- ablation 2: cutsize weight gamma ---");
    for gamma in [0.0f32, 0.5, 2.0, 8.0] {
        let (ovf, cut, _) = run_dco(DcoConfig {
            gamma,
            ..DcoConfig::default()
        });
        println!("  gamma {gamma:>4.1}: overflow {ovf:>8.0}, cut {cut:>5}");
    }

    println!("\n--- ablation 3: loss-term ablation ---");
    let variants: [(&str, DcoConfig); 3] = [
        ("full multi-objective", DcoConfig::default()),
        (
            "congestion only",
            DcoConfig {
                alpha: 0.0,
                beta: 0.0,
                gamma: 0.0,
                ..DcoConfig::default()
            },
        ),
        (
            "no congestion term",
            DcoConfig {
                delta: 0.0,
                ..DcoConfig::default()
            },
        ),
    ];
    for (label, dcfg) in variants {
        let (ovf, cut, wl) = run_dco(dcfg);
        println!("  {label:<22} overflow {ovf:>8.0}, cut {cut:>5}, WL {wl:>9.0}");
    }

    println!("\n--- ablation 4: GNN spreader vs per-cell direct coordinates ---");
    // The paper's Sec. IV-A design argument: a shared-weight GNN scales to
    // large netlists where independent per-cell parameters do not, and its
    // connectivity-aware updates converge more stably. Both spreaders run
    // the bare optimizer on the same features, without the flow's timing
    // anchor.
    {
        let probe = router.route(&place.placement);
        let timing = Sta::new(&design).analyze(
            &place.placement,
            Some(&probe.net_lengths),
            Some(&probe.net_bonds),
        );
        let features = build_node_features(&design, &place.placement, &timing);
        let (unet, norm) = (&predictor.unet, &predictor.normalization);
        let gcn = Gcn::new(seed);
        let spreaders = [
            (
                "GNN spreader   ",
                DcoOptimizer::new(&design, unet, norm, features, gcn, DcoConfig::default()),
            ),
            (
                "direct per-cell",
                DcoOptimizer::direct(&design, unet, norm, DcoConfig::default(), seed),
            ),
        ];
        for (label, mut dco) in spreaders {
            let params = dco.num_parameters();
            let result = dco.run(&place.placement);
            println!(
                "  {label}: {params:>8} params, final loss {:.4}, overflow {:>8.0}",
                result.history.last().map_or(f32::NAN, |l| l.total),
                router.route(&finish(&result.placement)).report.total
            );
        }
    }

    println!("\n--- ablation 5: Siamese communication layer ---");
    // Lesion study: zero the cross-die quadrants of the trained predictor's
    // communication conv (no inter-die information flow) and measure how
    // much prediction quality degrades on the dataset.
    {
        use dco_flow::build_dataset;
        use dco_unet::{evaluate_metrics, SiameseUNet, UNetConfig};
        let dataset = build_dataset(
            &design,
            cfg.train_layouts,
            cfg.map_size,
            &cfg.stage_router,
            seed,
        );
        let refs: Vec<&dco_unet::Sample> = dataset.iter().collect();
        let mean = |m: &[dco_unet::EvalRecord]| {
            m.iter().map(|r| r.nrmse).sum::<f32>() / m.len().max(1) as f32
        };
        let intact = evaluate_metrics(&predictor.unet, &refs, &predictor.normalization);
        // clone the trained weights into a fresh model, then lesion it
        let mut lesioned = SiameseUNet::new(
            UNetConfig {
                in_channels: 7,
                base_channels: cfg.unet_channels,
                size: cfg.map_size,
            },
            seed,
        );
        copy_params(&predictor.unet, &mut lesioned);
        zero_cross_die_comm(&mut lesioned, cfg.unet_channels);
        let cut = evaluate_metrics(&lesioned, &refs, &predictor.normalization);
        println!("  intact communication layer : NRMSE {:.4}", mean(&intact));
        println!("  cross-die quadrants zeroed : NRMSE {:.4}", mean(&cut));
        println!(
            "  (at this miniature scale congestion is largely intra-die, so the\n   lesion is mild; the layer matters when cross-die coupling is strong)"
        );
    }
    Ok(())
}

/// Copy all parameters from one model to another (same architecture).
fn copy_params(from: &dco_unet::SiameseUNet, to: &mut dco_unet::SiameseUNet) {
    let names: Vec<String> = from.store_ref().names().map(str::to_string).collect();
    for n in names {
        let v = from.store_ref().get(&n).clone();
        to.store_mut().insert(n, v);
    }
}

/// Zero the cross-die quadrants of the communication conv so no information
/// flows between dies (the within-die quadrants are left trained).
fn zero_cross_die_comm(model: &mut dco_unet::SiameseUNet, base_channels: usize) {
    let fb = 4 * base_channels;
    let store = model.store_mut();
    let mut w = store.get("comm.w").clone();
    // weight shape [2fb, 2fb, 1, 1]
    for o in 0..2 * fb {
        for i in 0..2 * fb {
            let cross = (o < fb) != (i < fb);
            if cross {
                w.set(&[o, i, 0, 0], 0.0);
            }
        }
    }
    store.insert("comm.w", w);
}
