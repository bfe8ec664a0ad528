//! The four flows of Table III: Pin-3D, Pin-3D + Cong., Pin-3D + BO, and
//! DCO-3D, all evaluated by the same router / STA / power engines.

use crate::bo::{bayesian_minimize, BoConfig};
use crate::checkpoint::{CheckpointError, CheckpointStore, Stage};
use crate::dataset::build_dataset;
use crate::inject::FaultInjector;
use crate::resilience::{
    execute_stage_body, run_stage, FlowError, RecoveryEvent, ResilienceOptions, ResilienceReport,
};
use dco3d::{DcoConfig, DcoOptimizer};
use dco_gnn::{build_node_features, Gcn, GcnConfig};
use dco_netlist::{Design, Placement3};
use dco_place::{detailed_place, legalize, GlobalPlacer, PlacementParams};
use dco_route::{Router, RouterConfig};
use dco_timing::{run_timing_eco, synthesize_clock_tree, EcoConfig, PowerAnalyzer, Sta};
use dco_unet::{
    load_predictor, save_predictor, train, Normalization, SiameseUNet, TrainConfig, TrainResult,
    UNetConfig,
};
use serde::{Deserialize, Serialize};

/// Which flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// The Pin-3D baseline (paper ref. 11).
    Pin3d,
    /// Pin-3D with ICC2-style congestion-driven placement at highest effort.
    Pin3dCong,
    /// Pin-3D with Bayesian optimization of the Table-I parameters (paper ref. 19).
    Pin3dBo,
    /// The proposed DCO-3D flow.
    Dco3d,
}

impl FlowKind {
    /// All four flows in Table-III row order.
    pub const ALL: [FlowKind; 4] = [
        FlowKind::Pin3d,
        FlowKind::Pin3dCong,
        FlowKind::Pin3dBo,
        FlowKind::Dco3d,
    ];

    /// Row label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Pin3d => "Pin3D",
            Self::Pin3dCong => "Pin3D + Cong.",
            Self::Pin3dBo => "Pin3D + BO",
            Self::Dco3d => "DCO-3D (ours)",
        }
    }

    /// Filesystem-safe identifier (checkpoint subdirectory names).
    pub fn slug(self) -> &'static str {
        match self {
            Self::Pin3d => "pin3d",
            Self::Pin3dCong => "pin3d-cong",
            Self::Pin3dBo => "pin3d-bo",
            Self::Dco3d => "dco3d",
        }
    }
}

/// Flow-level configuration shared by all four flows.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// UNet input size (the paper uses 224; we default to 32 for CPU runs).
    pub map_size: usize,
    /// UNet base channel width.
    pub unet_channels: usize,
    /// Training layouts for the predictor dataset (paper: 300).
    pub train_layouts: usize,
    /// Predictor training epochs.
    pub train_epochs: usize,
    /// DCO optimizer settings.
    pub dco: DcoConfig,
    /// Router settings for the signoff route.
    pub router: RouterConfig,
    /// Router settings for the quick placement-stage congestion estimate.
    pub stage_router: RouterConfig,
    /// Bayesian-optimization settings for the +BO baseline.
    pub bo: BoConfig,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            map_size: 32,
            unet_channels: 6,
            train_layouts: 12,
            train_epochs: 20,
            dco: DcoConfig::default(),
            router: RouterConfig::default(),
            // The placement-stage congestion estimate is pattern-only (no
            // maze detours), like the quick global-route estimates real
            // flows report at this stage.
            stage_router: RouterConfig {
                rrr_iterations: 2,
                maze_margin: 0,
                ..RouterConfig::default()
            },
            bo: BoConfig::default(),
        }
    }
}

impl FlowConfig {
    /// Arm every stage-loop cancellation hook — DCO iterations, signoff and
    /// placement-stage route waves — with clones of `token`. Combined with
    /// [`ResilienceOptions::cancel`] (stage boundaries) and
    /// [`dco_unet::TrainConfig::cancel`] (epochs, armed by
    /// [`train_predictor_resilient`]), this is how the serve layer enforces
    /// per-job deadlines: cancel the token and every long loop bails at its
    /// next boundary.
    #[must_use]
    pub fn with_cancel(mut self, token: &dco_parallel::CancelToken) -> Self {
        self.dco.cancel = token.clone();
        self.router.cancel = token.clone();
        self.stage_router.cancel = token.clone();
        self
    }
}

/// Routability metrics after the 3D placement stage (Table III, left).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Total routing overflow.
    pub overflow: f64,
    /// Percentage of GCells with overflow.
    pub ovf_gcell_pct: f64,
    /// Horizontal overflow.
    pub h_overflow: f64,
    /// Vertical overflow.
    pub v_overflow: f64,
}

/// End-of-flow PPA metrics (Table III, right).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignoffMetrics {
    /// Setup worst negative slack, ps (post-ECO).
    pub wns_ps: f64,
    /// Setup total negative slack, ps (post-ECO).
    pub tns_ps: f64,
    /// Total power, mW (including the ECO sizing penalty).
    pub total_power_mw: f64,
    /// Routed wirelength, um.
    pub wirelength_um: f64,
    /// Cells the timing ECO had to upsize ("end-of-flow ECO resources").
    pub eco_cells: usize,
}

/// The outcome of one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// Which flow produced this.
    pub kind: FlowKind,
    /// Post-placement routability.
    pub placement_stage: StageMetrics,
    /// End-of-flow PPA.
    pub signoff: SignoffMetrics,
    /// Inter-die cut size of the final placement.
    pub cut_size: usize,
    /// The final placement (for map dumps).
    pub placement: Placement3,
    /// Per-die congestion maps from the signoff route.
    pub congestion: [dco_features::GridMap; 2],
}

/// A flow outcome plus the record of recovery actions taken to reach it.
///
/// `outcome` is bitwise-identical to what an uninterrupted, fault-free run
/// at the same seed produces (checkpoints round-trip exactly); only
/// `report` distinguishes a clean run from a recovered one.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The Table-III metrics and final placement.
    pub outcome: FlowOutcome,
    /// Recovery actions and degradation status.
    pub report: ResilienceReport,
}

// The per-stage payload types (checkpoint format + library API) live in
// `crate::stages`; each carries exactly the state later stages consume, so
// a resumed pipeline is indistinguishable from an uninterrupted one.
use crate::stages::{CtsStage, DcoStage, PlaceStage, RouteStage, StaStage, TierAssignStage};

/// A trained congestion predictor plus its dataset normalization.
#[derive(Debug)]
pub struct Predictor {
    /// The trained Siamese UNet.
    pub unet: SiameseUNet,
    /// Normalization fitted on the training split.
    pub normalization: Normalization,
    /// Training curves and test metrics (Fig. 5).
    pub train_result: TrainResult,
}

impl Predictor {
    /// A predictor from weights that carry no training record (a saved
    /// bundle, or weights trained elsewhere): empty training curves, no
    /// divergence events, not degraded.
    pub fn from_weights(unet: SiameseUNet, normalization: Normalization) -> Self {
        let train_result = TrainResult {
            train_loss: Vec::new(),
            test_loss: Vec::new(),
            test_metrics: Vec::new(),
            normalization: normalization.clone(),
            divergence_events: 0,
            degraded: false,
        };
        Self {
            unet,
            normalization,
            train_result,
        }
    }
}

/// Train the DCO-3D congestion predictor for `design` (Sec. III).
pub fn train_predictor(design: &Design, cfg: &FlowConfig, seed: u64) -> Predictor {
    let train_cfg = TrainConfig {
        epochs: cfg.train_epochs,
        seed,
        ..TrainConfig::default()
    };
    let (unet, train_result) = train_unet(design, cfg, seed, &train_cfg);
    Predictor {
        unet,
        normalization: train_result.normalization.clone(),
        train_result,
    }
}

/// Build the training dataset for `design`, construct the Siamese UNet and
/// train it under `train_cfg`.
fn train_unet(
    design: &Design,
    cfg: &FlowConfig,
    seed: u64,
    train_cfg: &TrainConfig,
) -> (SiameseUNet, TrainResult) {
    let dataset = build_dataset(
        design,
        cfg.train_layouts,
        cfg.map_size,
        &cfg.stage_router,
        seed,
    );
    let mut unet = SiameseUNet::new(
        UNetConfig {
            in_channels: 7,
            base_channels: cfg.unet_channels,
            size: cfg.map_size,
        },
        seed,
    );
    let train_result = train(&mut unet, &dataset, train_cfg);
    (unet, train_result)
}

/// Map a predictor-bundle persistence failure into the flow error taxonomy.
fn persist_to_flow_error(e: dco_unet::PersistError) -> FlowError {
    FlowError::Checkpoint(match e {
        dco_unet::PersistError::Io(io) => CheckpointError::Io(io),
        other => CheckpointError::Io(std::io::Error::other(other.to_string())),
    })
}

/// Resilient predictor training: the flow-level `train` pseudo-stage.
///
/// With a checkpoint directory configured, a previously saved predictor
/// bundle ([`CheckpointStore::predictor_path`]) is loaded instead of
/// retraining; a corrupt bundle is discarded (with a [`RecoveryEvent`]) and
/// training re-runs. Panics are isolated and retried per `opts`, and the
/// trainer's divergence guard (plus any armed `nan@train` fault) is surfaced
/// in the returned [`ResilienceReport`].
///
/// The training curves in [`Predictor::train_result`] are empty on resume —
/// only the weights and normalization are persisted.
///
/// # Errors
/// [`FlowError::StagePanic`] when training panicked on every attempt;
/// [`FlowError::Checkpoint`] when the bundle cannot be read or written.
pub fn train_predictor_resilient(
    design: &Design,
    cfg: &FlowConfig,
    seed: u64,
    opts: &ResilienceOptions,
) -> Result<(Predictor, ResilienceReport), FlowError> {
    // Train is a flow-level pseudo-stage (shared predictor bundle), so it
    // does not go through `run_stage`; open its span here instead.
    let _train_span = dco_obs::span!(Stage::Train.span_name());
    let injector = FaultInjector::new(opts.inject);
    let mut report = ResilienceReport::default();
    let predictor_path = opts
        .checkpoint_dir
        .as_deref()
        .map(CheckpointStore::predictor_path);

    if let Some(path) = &predictor_path {
        if path.exists() {
            match load_predictor(path) {
                Ok((unet, normalization)) => {
                    report
                        .events
                        .push(RecoveryEvent::ResumedFromCheckpoint { stage: "train" });
                    return Ok((Predictor::from_weights(unet, normalization), report));
                }
                Err(e) => {
                    report
                        .events
                        .push(RecoveryEvent::CorruptCheckpointDiscarded {
                            stage: "train",
                            detail: e.to_string(),
                        });
                    if let Err(io) = std::fs::remove_file(path) {
                        if io.kind() != std::io::ErrorKind::NotFound {
                            return Err(FlowError::Checkpoint(CheckpointError::Io(io)));
                        }
                    }
                }
            }
        }
    }

    let mut train_cfg = TrainConfig {
        epochs: cfg.train_epochs,
        seed,
        cancel: opts.cancel.clone(),
        ..TrainConfig::default()
    };
    if let Some(epoch) = injector.train_nan_epoch() {
        train_cfg.inject_nan_loss_at = Some(epoch);
    }
    let body = || train_unet(design, cfg, seed, &train_cfg);
    let (unet, train_result) =
        execute_stage_body(Stage::Train, &injector, opts, &mut report, &body)?;
    dco_obs::report::record_stage_rss(Stage::Train.name());
    // A deadline that fired mid-training leaves half-trained weights;
    // persisting them as the shared predictor bundle would poison every
    // later resume. Fail typed instead (mirrors `run_stage`).
    if opts.cancel.is_cancelled() {
        return Err(FlowError::Cancelled);
    }
    if train_result.divergence_events > 0 {
        report.events.push(RecoveryEvent::DivergenceRollback {
            stage: "train",
            events: train_result.divergence_events,
        });
    }
    if train_result.degraded {
        report.degraded = true;
    }

    if let Some(path) = &predictor_path {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(CheckpointError::from)?;
        }
        save_predictor(path, &unet, &train_result.normalization).map_err(persist_to_flow_error)?;
        if injector.take_corrupt(Stage::Train) {
            // Simulate a torn write for the fault-injection harness.
            if let Ok(bytes) = std::fs::read(path) {
                let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
            }
        }
    }
    Ok((
        Predictor {
            unet,
            normalization: train_result.normalization.clone(),
            train_result,
        },
        report,
    ))
}

/// Runs the four flows on one design with a shared seed ("exact same ICC2
/// seed across all experiments", Table III caption).
#[derive(Debug)]
pub struct FlowRunner<'a> {
    design: &'a Design,
    cfg: FlowConfig,
}

impl<'a> FlowRunner<'a> {
    /// A runner for `design`.
    pub fn new(design: &'a Design, cfg: FlowConfig) -> Self {
        Self { design, cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// The design under evaluation.
    pub fn design(&self) -> &'a Design {
        self.design
    }

    /// Run one flow. `predictor` is required for [`FlowKind::Dco3d`] (train
    /// one with [`train_predictor`]); other flows ignore it.
    ///
    /// This is the legacy non-resilient entry point: no checkpointing, no
    /// panic isolation. Use [`FlowRunner::run_resilient`] for the guarded
    /// pipeline; both produce identical outcomes at a given seed.
    ///
    /// # Panics
    /// Panics if `kind` is `Dco3d` and `predictor` is `None`.
    pub fn run(&self, kind: FlowKind, seed: u64, predictor: Option<&Predictor>) -> FlowOutcome {
        if kind == FlowKind::Dco3d && predictor.is_none() {
            panic!("FlowKind::Dco3d requires a trained predictor bundle; train one or pick Pin3d/Pin3dBo");
        }
        // Default options: no checkpoint dir, panics unwind, no injection —
        // exactly the historical behaviour.
        match self.run_resilient(kind, seed, predictor, &ResilienceOptions::default()) {
            Ok(resilient) => resilient.outcome,
            Err(e) => panic!("flow failed: {e}"),
        }
    }

    /// Run one flow through the resilient staged pipeline: each stage
    /// (place, dco, tier-assign, cts, route, sta) checkpoints its result
    /// when `opts.checkpoint_dir` is set and resumes from the last good
    /// checkpoint on re-run; panics are isolated and retried per `opts`;
    /// divergence rollbacks and router non-convergence degrade gracefully
    /// and are recorded in the returned [`ResilienceReport`].
    ///
    /// # Errors
    /// [`FlowError::MissingPredictor`] for [`FlowKind::Dco3d`] without a
    /// predictor; [`FlowError::StagePanic`] when a stage panicked on every
    /// attempt; [`FlowError::Checkpoint`] on checkpoint IO failure or when
    /// the checkpoint directory belongs to a different design/seed.
    pub fn run_resilient(
        &self,
        kind: FlowKind,
        seed: u64,
        predictor: Option<&Predictor>,
        opts: &ResilienceOptions,
    ) -> Result<ResilientOutcome, FlowError> {
        let design = self.design;
        if kind == FlowKind::Dco3d && predictor.is_none() {
            return Err(FlowError::MissingPredictor);
        }
        let injector = FaultInjector::new(opts.inject);
        let ckpt = match &opts.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::open(dir, kind, seed, design)?),
            None => None,
        };
        let ckpt = ckpt.as_ref();
        let mut report = ResilienceReport::default();

        // --- place: per-flow parameters + global 3D placement --------------
        let place = run_stage(Stage::Place, ckpt, &injector, opts, &mut report, || {
            self.stage_place(kind, seed)
        })?;

        // --- dco: differentiable 3D cell spreading (DCO-3D only) -----------
        let dco = if kind == FlowKind::Dco3d {
            let Some(predictor) = predictor else {
                return Err(FlowError::MissingPredictor);
            };
            let ck = run_stage(Stage::Dco, ckpt, &injector, opts, &mut report, || {
                self.stage_dco(predictor, &place, seed, injector.dco_nan_iteration())
            })?;
            if ck.divergence_events > 0 {
                report.events.push(RecoveryEvent::DivergenceRollback {
                    stage: "dco",
                    events: ck.divergence_events,
                });
            }
            if ck.degraded {
                report.degraded = true;
            }
            Some(ck)
        } else {
            None
        };
        let spread = dco.as_ref().map_or(&place.placement, |d| &d.placement);

        // --- tier-assign: legalization + detailed placement -----------------
        let tier = run_stage(
            Stage::TierAssign,
            ckpt,
            &injector,
            opts,
            &mut report,
            || self.stage_tier_assign(spread, &place.params),
        )?;

        // --- cts: clock-tree synthesis --------------------------------------
        let cts = run_stage(Stage::Cts, ckpt, &injector, opts, &mut report, || {
            self.stage_cts(&tier.placement)
        })?;

        // --- route: placement-stage estimate + signoff route ----------------
        let route = run_stage(Stage::Route, ckpt, &injector, opts, &mut report, || {
            self.stage_route(&tier.placement, injector.route_stall())
        })?;
        // Residual overflow is a normal Table-III outcome; the resilience
        // layer only flags the route as degraded when rip-up-and-reroute
        // stalled outright (zero improvement with overflow remaining) —
        // which is what the `route-stall` fault forces.
        let improvement = route.initial_overflow - route.overflow_total;
        if !route.converged && improvement <= 0.0 {
            report.events.push(RecoveryEvent::RouterNonConvergence {
                overflow: route.overflow_total,
                improvement,
            });
            report.degraded = true;
        }

        // --- sta: STA + timing ECO + power ----------------------------------
        let sta_ck = run_stage(Stage::Sta, ckpt, &injector, opts, &mut report, || {
            self.stage_sta(&tier.placement, &cts, &route)
        })?;

        // Flow-level telemetry: publish the headline quality numbers as
        // gauges (passive reads of already-computed results).
        if dco_obs::enabled() {
            dco_obs::gauge_set("flow.route.overflow_total", route.overflow_total);
            dco_obs::gauge_set("flow.route.rrr_iterations", route.rrr_iterations as f64);
            dco_obs::gauge_set("flow.signoff.wns_ps", sta_ck.signoff.wns_ps);
            dco_obs::gauge_set("flow.signoff.total_power_mw", sta_ck.signoff.total_power_mw);
            dco_obs::gauge_set("flow.signoff.wirelength_um", sta_ck.signoff.wirelength_um);
            dco_obs::counter_add("flow.recovery_events", report.events.len() as u64);
        }

        Ok(ResilientOutcome {
            outcome: FlowOutcome {
                kind,
                placement_stage: route.stage,
                signoff: sta_ck.signoff,
                cut_size: tier.placement.cut_size(&design.netlist),
                congestion: route.congestion.clone(),
                placement: tier.placement,
            },
            report,
        })
    }

    // --- the seven stages as a library API --------------------------------
    //
    // Each `stage_*` method is a pure function of its explicit inputs plus
    // the runner's design/config: no checkpointing, no panic isolation, no
    // fault injection — those wrap around these methods in
    // [`FlowRunner::run_resilient`]. A long-lived process (the `dco3d
    // serve` daemon) calls them directly with pre-loaded state instead of
    // re-running the CLI pipeline per request; both paths execute the same
    // code, so their outputs are bitwise identical at a given seed.

    /// The place stage: resolve the flow's Table-I parameter point and run
    /// global 3D placement.
    pub fn stage_place(&self, kind: FlowKind, seed: u64) -> PlaceStage {
        let params = match kind {
            FlowKind::Pin3d | FlowKind::Dco3d => PlacementParams::pin3d_baseline(),
            FlowKind::Pin3dCong => PlacementParams::congestion_focused(),
            FlowKind::Pin3dBo => self.bo_optimize_params(seed),
        };
        let placement = GlobalPlacer::new(self.design).place(&params, seed);
        PlaceStage { params, placement }
    }

    /// The DCO stage: one differentiable congestion-optimization run from
    /// `place` using the runner's configured [`DcoConfig`].
    /// `inject_nan_at` arms the trainer-side divergence fault (tests only;
    /// `None` in production).
    pub fn stage_dco(
        &self,
        predictor: &Predictor,
        place: &PlaceStage,
        seed: u64,
        inject_nan_at: Option<usize>,
    ) -> DcoStage {
        let mut dco_cfg = self.cfg.dco.clone();
        if let Some(iter) = inject_nan_at {
            dco_cfg.inject_nan_loss_at = Some(iter);
        }
        self.stage_dco_with(predictor, place, seed, dco_cfg)
    }

    /// [`FlowRunner::stage_dco`] with an explicit [`DcoConfig`] (the serve
    /// daemon's `spread` job uses this to run a bounded number of spreading
    /// iterations per request).
    pub fn stage_dco_with(
        &self,
        predictor: &Predictor,
        place: &PlaceStage,
        seed: u64,
        dco_cfg: DcoConfig,
    ) -> DcoStage {
        let design = self.design;
        // Timing snapshot from a quick global route: the GNN's Table-II
        // features (and the criticality anchors) reflect routed reality, as
        // they would when DCO reads the tool's timing database.
        let probe = Router::new(design, self.cfg.stage_router.clone()).route(&place.placement);
        let timing = Sta::new(design).analyze(
            &place.placement,
            Some(&probe.net_lengths),
            Some(&probe.net_bonds),
        );
        let features = build_node_features(design, &place.placement, &timing);
        let gcn = Gcn::new(GcnConfig::default(), seed);
        let mut dco = DcoOptimizer::new(
            design,
            &predictor.unet,
            &predictor.normalization,
            features,
            gcn,
            dco_cfg,
        );
        // Anchor timing-critical cells: congestion is optimized "without
        // compromising overall design quality" (Sec. V-C).
        dco.set_timing_criticality(&timing.cell_slack, 10.0);
        let result = dco.run(&place.placement);
        DcoStage {
            placement: result.placement,
            divergence_events: result.divergence_events,
            degraded: result.degraded,
        }
    }

    /// The tier-assign stage: legalize `spread` and refine with detailed
    /// placement, finalizing the hard tier assignment.
    pub fn stage_tier_assign(
        &self,
        spread: &Placement3,
        params: &PlacementParams,
    ) -> TierAssignStage {
        let mut placement = spread.clone();
        legalize(self.design, &mut placement, params.displacement_threshold);
        // Detailed placement: local HPWL-reducing swaps (all flows get the
        // same refinement so comparisons stay fair).
        detailed_place(self.design, &mut placement, 4, 2);
        TierAssignStage { placement }
    }

    /// The CTS stage: synthesize the clock tree over the final placement.
    pub fn stage_cts(&self, placement: &Placement3) -> CtsStage {
        let tree = synthesize_clock_tree(self.design, placement);
        CtsStage {
            wirelength: tree.wirelength,
            skew_ps: tree.skew_ps,
        }
    }

    /// The route stage: quick placement-stage congestion estimate plus the
    /// signoff route. `stall_rrr` forces the router's rip-up-and-reroute to
    /// stall (fault-injection hook; `false` in production).
    pub fn stage_route(&self, placement: &Placement3, stall_rrr: bool) -> RouteStage {
        let design = self.design;
        let stage = Router::new(design, self.cfg.stage_router.clone()).route(placement);
        let mut router_cfg = self.cfg.router.clone();
        if stall_rrr {
            router_cfg.stall_rrr = true;
        }
        let routed = Router::new(design, router_cfg).route(placement);
        RouteStage {
            stage: StageMetrics {
                overflow: stage.report.total,
                ovf_gcell_pct: stage.report.overflow_gcell_pct,
                h_overflow: stage.report.h_overflow,
                v_overflow: stage.report.v_overflow,
            },
            wirelength: routed.wirelength,
            net_lengths: routed.net_lengths,
            net_bonds: routed.net_bonds,
            congestion: routed.congestion,
            rrr_iterations: routed.report.rrr_iterations,
            converged: routed.report.converged,
            overflow_total: routed.report.total,
            initial_overflow: routed.report.initial_total,
        }
    }

    /// The STA stage: signoff timing, the bounded ECO pass, and power.
    pub fn stage_sta(
        &self,
        placement: &Placement3,
        cts: &CtsStage,
        route: &RouteStage,
    ) -> StaStage {
        let design = self.design;
        let net_lengths = self.lengths_with_clock_tree(&route.net_lengths, cts.wirelength);
        let mut sta = Sta::new(design);
        sta.setup_ps += cts.skew_ps;
        // Signoff closure: the ECO pass burns sizing moves (and power) to
        // claw back whatever timing the routed design is missing — the
        // end-of-flow cost the paper's early optimization avoids. Limited
        // ECO budget (2 sizing rounds): enough to recover shallow
        // violations, not enough to mask large congestion-induced deficits
        // — mirroring real signoff where ECO resources are finite.
        let eco = run_timing_eco(
            design,
            placement,
            Some(&net_lengths),
            Some(&route.net_bonds),
            &sta,
            &EcoConfig {
                max_rounds: 2,
                ..EcoConfig::default()
            },
        );
        let power = PowerAnalyzer::new(design).analyze(placement, Some(&net_lengths));
        StaStage {
            signoff: SignoffMetrics {
                wns_ps: eco.after.wns_ps,
                tns_ps: eco.after.tns_ps,
                total_power_mw: power.total_mw() + eco.power_penalty_mw,
                wirelength_um: route.wirelength + cts.wirelength,
                eco_cells: eco.resized_cells,
            },
        }
    }

    /// Clock nets are built by CTS, not the signal router; patch their
    /// length so timing/power see the synthesized tree.
    fn lengths_with_clock_tree(&self, net_lengths: &[f64], clock_wl: f64) -> Vec<f64> {
        let netlist = &self.design.netlist;
        let mut lengths = net_lengths.to_vec();
        for net_id in netlist.net_ids() {
            if netlist.net(net_id).is_clock {
                lengths[net_id.index()] = clock_wl;
            }
        }
        lengths
    }

    /// The +BO baseline: minimize placement-stage overflow over the Table-I
    /// space with a Gaussian process.
    fn bo_optimize_params(&self, seed: u64) -> PlacementParams {
        let design = self.design;
        let placer = GlobalPlacer::new(design);
        let stage_router = Router::new(design, self.cfg.stage_router.clone());
        let (best, _) = bayesian_minimize(
            16,
            |v| {
                // bayesian_minimize samples exactly `dims` = 16 coordinates
                let mut arr = [0.0f64; 16];
                arr.copy_from_slice(v);
                let params = PlacementParams::from_unit_vector(&arr);
                let mut p = placer.place(&params, seed);
                legalize(design, &mut p, params.displacement_threshold);
                stage_router.route(&p).report.total
            },
            &self.cfg.bo,
            seed,
        );
        let mut arr = [0.0f64; 16];
        arr.copy_from_slice(&best);
        PlacementParams::from_unit_vector(&arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};

    fn quick_cfg() -> FlowConfig {
        FlowConfig {
            map_size: 16,
            unet_channels: 4,
            train_layouts: 3,
            train_epochs: 1,
            dco: DcoConfig {
                max_iter: 3,
                ..DcoConfig::default()
            },
            bo: BoConfig {
                initial_samples: 2,
                iterations: 2,
                candidates: 16,
                ..BoConfig::default()
            },
            ..FlowConfig::default()
        }
    }

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.015)
            .generate(2)
            .expect("gen")
    }

    #[test]
    fn pin3d_flow_produces_complete_metrics() {
        let d = design();
        let runner = FlowRunner::new(&d, quick_cfg());
        let out = runner.run(FlowKind::Pin3d, 1, None);
        assert!(out.placement_stage.overflow >= 0.0);
        assert!(out.signoff.total_power_mw > 0.0);
        assert!(out.signoff.wirelength_um > 0.0);
        assert!(out.signoff.tns_ps <= 0.0);
        assert!(out.cut_size > 0);
    }

    #[test]
    fn flows_share_seed_but_differ_in_outcome() {
        let d = design();
        let runner = FlowRunner::new(&d, quick_cfg());
        let a = runner.run(FlowKind::Pin3d, 1, None);
        let b = runner.run(FlowKind::Pin3dCong, 1, None);
        assert_ne!(a.placement, b.placement);
    }

    #[test]
    fn dco_flow_runs_with_predictor() {
        let d = design();
        let cfg = quick_cfg();
        let predictor = train_predictor(&d, &cfg, 1);
        let runner = FlowRunner::new(&d, cfg);
        let out = runner.run(FlowKind::Dco3d, 1, Some(&predictor));
        assert!(out.signoff.total_power_mw > 0.0);
    }

    #[test]
    #[should_panic(expected = "trained predictor")]
    fn dco_without_predictor_panics() {
        let d = design();
        let runner = FlowRunner::new(&d, quick_cfg());
        let _ = runner.run(FlowKind::Dco3d, 1, None);
    }

    #[test]
    fn flow_is_deterministic() {
        let d = design();
        let runner = FlowRunner::new(&d, quick_cfg());
        let a = runner.run(FlowKind::Pin3d, 7, None);
        let b = runner.run(FlowKind::Pin3d, 7, None);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.signoff, b.signoff);
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dco_flow_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn resilient_run_matches_legacy_and_resume_is_identical() {
        let d = design();
        let runner = FlowRunner::new(&d, quick_cfg());
        let legacy = runner.run(FlowKind::Pin3d, 3, None);

        let dir = tmp_dir("resume_identity");
        let opts = crate::ResilienceOptions::with_checkpoints(&dir);
        let first = runner
            .run_resilient(FlowKind::Pin3d, 3, None, &opts)
            .expect("first resilient run");
        assert_eq!(first.outcome, legacy);
        assert!(first.report.events.is_empty());

        // Simulate a kill after CTS: later-stage checkpoints never existed.
        for stage in [Stage::Route, Stage::Sta] {
            let store = CheckpointStore::open(&dir, FlowKind::Pin3d, 3, &d).expect("open");
            store.discard(stage).expect("discard");
        }
        let resumed = runner
            .run_resilient(FlowKind::Pin3d, 3, None, &opts)
            .expect("resumed run");
        assert_eq!(resumed.outcome, legacy, "resume must be bitwise-identical");
        // place/tier-assign/cts resumed from checkpoints; route/sta re-ran.
        let resumed_stages: Vec<_> = resumed
            .report
            .events
            .iter()
            .filter_map(|e| match e {
                RecoveryEvent::ResumedFromCheckpoint { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(resumed_stages, ["place", "tier-assign", "cts"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_stage_panic_recovers_with_identical_outcome() {
        let d = design();
        let runner = FlowRunner::new(&d, quick_cfg());
        let legacy = runner.run(FlowKind::Pin3d, 5, None);
        let opts = crate::ResilienceOptions {
            inject: Some(crate::FaultSpec::StagePanic(Stage::Cts)),
            ..crate::ResilienceOptions::resilient()
        };
        let out = runner
            .run_resilient(FlowKind::Pin3d, 5, None, &opts)
            .expect("recovers from injected panic");
        assert_eq!(out.outcome, legacy);
        assert!(matches!(
            out.report.events.as_slice(),
            [RecoveryEvent::PanicRetried { stage: "cts", .. }]
        ));
        assert!(!out.report.degraded);
    }

    #[test]
    fn missing_predictor_is_a_typed_error() {
        let d = design();
        let runner = FlowRunner::new(&d, quick_cfg());
        let res = runner.run_resilient(
            FlowKind::Dco3d,
            1,
            None,
            &crate::ResilienceOptions::resilient(),
        );
        assert!(matches!(res, Err(FlowError::MissingPredictor)));
    }
}
