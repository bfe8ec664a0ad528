//! The incremental re-evaluation orchestrator: one placement edit in, one
//! refreshed (route, timing, congestion-prediction) triple out.
//!
//! [`IncrementalEval`] composes the three per-engine incremental layers
//! behind a single [`DeltaSet`] diff:
//!
//! - [`dco_route::IncrementalRouter`] rips up and re-routes only the nets
//!   whose bounding boxes intersect the dirtied tiles,
//! - [`dco_timing::IncrementalSta`] re-propagates only the downstream
//!   timing cones of the changed nets,
//! - [`dco_features::FeatureExtractor::patch_soft`] re-rasterizes only the
//!   dirtied feature pixels, and [`dco_unet::patch_predict_maps`] re-runs
//!   the UNet on a cropped window around them.
//!
//! Every layer is bitwise-equivalent to its from-scratch counterpart
//! (pinned by each crate's tests and by `tests/incremental.rs`), so an
//! [`IncrementalEval::eval`] after N placement edits returns exactly what
//! a fresh full evaluation of the final placement returns — just without
//! paying for the unchanged part of the chip.

use crate::flow::Predictor;
use dco_features::{DieFeatures, FeatureExtractor, GridMap, SoftAssignment};
use dco_incremental::{DeltaSet, DeltaStats};
use dco_netlist::{Design, Placement3};
use dco_route::{IncrRouteStats, IncrementalRouter};
use dco_timing::{IncrStaStats, IncrementalSta, TimingReport};
use dco_unet::{patch_predict_maps, predict_maps, resized_stacks, UnetPatchStats};

/// The refreshed evaluation after one [`IncrementalEval::eval`] call.
#[derive(Debug, Clone)]
pub struct IncrEvalReport {
    /// Signoff-grade timing of the evaluated placement.
    pub timing: TimingReport,
    /// Predicted per-die congestion maps at the model resolution.
    pub congestion: [GridMap; 2],
    /// Routed wirelength in microns.
    pub wirelength: f64,
    /// Total routing overflow.
    pub overflow: f64,
    /// False when this call ran the full from-scratch path (first call, or
    /// an explicit [`IncrementalEval::full`]).
    pub incremental: bool,
    /// The diff that drove an incremental apply (`None` on a full pass).
    pub delta: Option<DeltaStats>,
    /// Router work done by this call.
    pub route_stats: IncrRouteStats,
    /// STA cone work done by this call.
    pub sta_stats: IncrStaStats,
    /// UNet patch work done by this call (default on a full pass).
    pub unet_stats: UnetPatchStats,
}

/// Cached evaluation state: the placement the caches describe plus the
/// full-resolution feature maps and the model-resolution prediction.
struct EvalState {
    placement: Placement3,
    features: [DieFeatures; 2],
    congestion: [GridMap; 2],
}

/// A warm incremental evaluation session over one design and predictor.
///
/// The first [`IncrementalEval::eval`] call evaluates from scratch and
/// caches the routing state, timing graph values, feature maps, and
/// congestion prediction. Every later call diffs the new placement
/// against the cached one and re-evaluates only the invalidated slice of
/// each engine. Results are bitwise identical either way.
///
/// # Example
///
/// ```no_run
/// use dco_flow::{train_predictor, FlowConfig, FlowRunner};
/// use dco_netlist::generate::{DesignProfile, GeneratorConfig};
///
/// # fn main() -> Result<(), dco_netlist::NetlistError> {
/// let design = GeneratorConfig::for_profile(DesignProfile::Dma).with_scale(0.02).generate(1)?;
/// let cfg = FlowConfig::default();
/// let predictor = train_predictor(&design, &cfg, 1);
/// let runner = FlowRunner::new(&design, cfg);
/// let mut session = runner.incremental_eval(&predictor);
/// let base = session.eval(&design.placement);       // full pass
/// let mut moved = design.placement.clone();
/// moved.set_xy(dco_netlist::CellId(0), 5.0, 5.0);
/// let after = session.eval(&moved);                  // incremental
/// assert!(after.incremental);
/// println!("wns {} -> {}", base.timing.wns_ps, after.timing.wns_ps);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IncrementalEval<'a> {
    design: &'a Design,
    predictor: &'a Predictor,
    map_size: usize,
    extractor: FeatureExtractor,
    router: IncrementalRouter<'a>,
    sta: IncrementalSta<'a>,
    state: Option<EvalState>,
}

impl std::fmt::Debug for EvalState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalState")
            .field("cells", &self.placement.len())
            .finish_non_exhaustive()
    }
}

impl<'a> IncrementalEval<'a> {
    /// A cold session: the first [`IncrementalEval::eval`] runs full.
    pub fn new(design: &'a Design, predictor: &'a Predictor, map_size: usize) -> Self {
        Self {
            design,
            predictor,
            map_size,
            extractor: FeatureExtractor::new(design.floorplan.grid),
            router: IncrementalRouter::new(design),
            sta: IncrementalSta::new(design),
            state: None,
        }
    }

    /// The placement the cached state describes, if the session is warm.
    pub fn current_placement(&self) -> Option<&Placement3> {
        self.state.as_ref().map(|s| &s.placement)
    }

    /// Drop all cached state; the next [`IncrementalEval::eval`] runs full.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Evaluate `placement`: incrementally when the session is warm, from
    /// scratch otherwise.
    pub fn eval(&mut self, placement: &Placement3) -> IncrEvalReport {
        match self.state.take() {
            Some(state) => self.apply(state, placement),
            None => self.full(placement),
        }
    }

    /// Force a from-scratch evaluation, repopulating every cache.
    pub fn full(&mut self, placement: &Placement3) -> IncrEvalReport {
        let _span = dco_obs::span!("flow.incremental.full");
        let route = self.router.full(placement);
        let timing = self
            .sta
            .full(placement, &route.net_lengths, &route.net_bonds);
        let soft = SoftAssignment::from_placement(placement);
        let features = self.extractor.extract_soft(&self.design.netlist, &soft);
        let [r0, r1] = resized_stacks(
            [&clone_stack(&features[0]), &clone_stack(&features[1])],
            self.map_size,
            self.map_size,
        );
        let congestion = predict_maps(
            &self.predictor.unet,
            &self.predictor.normalization,
            [&r0, &r1],
        );
        self.state = Some(EvalState {
            placement: placement.clone(),
            features,
            congestion: congestion.clone(),
        });
        IncrEvalReport {
            timing,
            congestion,
            wirelength: route.wirelength,
            overflow: route.report.total,
            incremental: false,
            delta: None,
            route_stats: self.router.stats(),
            sta_stats: self.sta.stats(),
            unet_stats: UnetPatchStats::default(),
        }
    }

    /// Diff against the cached placement and re-evaluate only the
    /// invalidated slice of every engine.
    fn apply(&mut self, mut state: EvalState, placement: &Placement3) -> IncrEvalReport {
        let _span = dco_obs::span!("flow.incremental.apply");
        let grid = self.design.floorplan.grid;
        let netlist = &self.design.netlist;
        let delta = DeltaSet::diff(netlist, grid, &state.placement, placement);
        dco_obs::counter_add(
            "flow.incremental.moved_cells",
            delta.stats().moved_cells as u64,
        );
        dco_obs::counter_add(
            "flow.incremental.tiles_dirtied",
            delta.stats().tiles_dirtied as u64,
        );

        let route = self.router.apply(placement, &delta);
        let timing = self
            .sta
            .apply(placement, &route.net_lengths, &route.net_bonds, &delta);
        let soft = SoftAssignment::from_placement(placement);
        self.extractor
            .patch_soft(netlist, &soft, &delta, &mut state.features);
        let unet_stats = patch_predict_maps(
            &self.predictor.unet,
            &self.predictor.normalization,
            [
                &clone_stack(&state.features[0]),
                &clone_stack(&state.features[1]),
            ],
            &delta,
            &mut state.congestion,
        );

        state.placement = placement.clone();
        let congestion = state.congestion.clone();
        let report = IncrEvalReport {
            timing,
            congestion,
            wirelength: route.wirelength,
            overflow: route.report.total,
            incremental: true,
            delta: Some(delta.stats()),
            route_stats: self.router.stats(),
            sta_stats: self.sta.stats(),
            unet_stats,
        };
        self.state = Some(state);
        report
    }
}

/// Clone one die's channels into the owned stack the UNet entry points
/// take ([`DieFeatures`] stores its channels as named fields, not an
/// array, so a contiguous slice cannot be borrowed from it).
fn clone_stack(f: &DieFeatures) -> Vec<GridMap> {
    f.channels().iter().map(|m| (*m).clone()).collect()
}

impl<'a> crate::flow::FlowRunner<'a> {
    /// A warm [`IncrementalEval`] session over this runner's design at the
    /// runner's map size.
    pub fn incremental_eval<'p>(&'p self, predictor: &'p Predictor) -> IncrementalEval<'p> {
        IncrementalEval::new(self.design(), predictor, self.config().map_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{train_predictor, FlowConfig};
    use crate::FlowRunner;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::{CellId, Design, Tier};

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.02)
            .generate(3)
            .expect("gen")
    }

    fn quick_cfg() -> FlowConfig {
        FlowConfig {
            map_size: 16,
            unet_channels: 4,
            train_layouts: 2,
            train_epochs: 1,
            ..FlowConfig::default()
        }
    }

    fn reports_bitwise_equal(a: &IncrEvalReport, b: &IncrEvalReport) -> bool {
        a.timing.wns_ps.to_bits() == b.timing.wns_ps.to_bits()
            && a.timing.tns_ps.to_bits() == b.timing.tns_ps.to_bits()
            && a.wirelength.to_bits() == b.wirelength.to_bits()
            && a.overflow.to_bits() == b.overflow.to_bits()
            && a.congestion.iter().zip(&b.congestion).all(|(x, y)| {
                x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
            })
            && a.timing
                .cell_slack
                .iter()
                .zip(&b.timing.cell_slack)
                .all(|(u, v)| u.to_bits() == v.to_bits())
    }

    #[test]
    fn incremental_eval_matches_fresh_session_bitwise() {
        let d = design();
        let cfg = quick_cfg();
        let predictor = train_predictor(&d, &cfg, 1);
        let runner = FlowRunner::new(&d, cfg);

        let mut session = runner.incremental_eval(&predictor);
        let base = session.eval(&d.placement);
        assert!(!base.incremental);

        let g = d.floorplan.grid;
        let mut moved = d.placement.clone();
        for (i, raw) in [4u32, 11, 23].into_iter().enumerate() {
            let id = CellId(raw % d.netlist.num_cells() as u32);
            moved.set_xy(
                id,
                moved.x(id) + (i as f64 - 1.0) * 1.5 * g.dx,
                moved.y(id) + 0.75 * g.dy,
            );
        }
        let id = CellId(7 % d.netlist.num_cells() as u32);
        moved.set_tier(
            id,
            match moved.tier(id) {
                Tier::Top => Tier::Bottom,
                Tier::Bottom => Tier::Top,
            },
        );

        let incr = session.eval(&moved);
        assert!(incr.incremental);
        assert!(incr.delta.expect("delta").moved_cells >= 3);

        let mut fresh = runner.incremental_eval(&predictor);
        let full = fresh.eval(&moved);
        assert!(
            reports_bitwise_equal(&incr, &full),
            "incremental eval must be bitwise identical to a fresh full eval"
        );
    }

    #[test]
    fn noop_eval_is_an_empty_delta() {
        let d = design();
        let cfg = quick_cfg();
        let predictor = train_predictor(&d, &cfg, 1);
        let runner = FlowRunner::new(&d, cfg);
        let mut session = runner.incremental_eval(&predictor);
        let base = session.eval(&d.placement);
        let again = session.eval(&d.placement);
        assert!(again.incremental);
        assert_eq!(again.delta.expect("delta"), DeltaStats::default());
        assert!(reports_bitwise_equal(&base, &again));
    }

    #[test]
    fn reset_forces_a_full_pass() {
        let d = design();
        let cfg = quick_cfg();
        let predictor = train_predictor(&d, &cfg, 1);
        let runner = FlowRunner::new(&d, cfg);
        let mut session = runner.incremental_eval(&predictor);
        let _ = session.eval(&d.placement);
        assert!(session.current_placement().is_some());
        session.reset();
        assert!(session.current_placement().is_none());
        let again = session.eval(&d.placement);
        assert!(!again.incremental);
    }
}
