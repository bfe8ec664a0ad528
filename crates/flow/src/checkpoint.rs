//! Stage checkpointing for resilient flow execution.
//!
//! Each pipeline stage serializes its result to
//! `<dir>/<flow-slug>/<stage>.json` wrapped in a small envelope
//! (`{"version", "stage", "payload"}`); a `meta.json` at the directory root
//! pins the design/seed the checkpoints belong to so a resume against the
//! wrong run fails loudly instead of silently mixing state. Writes are
//! atomic (temp file + rename) so a mid-write kill leaves either the old
//! checkpoint or none — never a half-written one the loader would trust.

use crate::FlowKind;
use dco_netlist::Design;
use serde_json::{json, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Envelope format version.
const CHECKPOINT_VERSION: u32 = 1;

/// The named stages of the flow pipeline, in execution order.
///
/// `Train` is the flow-level predictor-training pseudo-stage: its checkpoint
/// is the predictor bundle at the directory root (shared by every flow kind)
/// rather than a per-kind stage file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Predictor training (flow-level, DCO-3D only).
    Train,
    /// Global 3D placement (including the +BO parameter search).
    Place,
    /// Differentiable congestion optimization (DCO-3D only).
    Dco,
    /// Legalization + detailed placement, finalizing hard tier assignment.
    TierAssign,
    /// Clock-tree synthesis.
    Cts,
    /// Placement-stage congestion estimate + signoff routing.
    Route,
    /// STA, timing ECO, and power analysis.
    Sta,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Train,
        Stage::Place,
        Stage::Dco,
        Stage::TierAssign,
        Stage::Cts,
        Stage::Route,
        Stage::Sta,
    ];

    /// Stable name used in checkpoint filenames and fault specs.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Train => "train",
            Stage::Place => "place",
            Stage::Dco => "dco",
            Stage::TierAssign => "tier-assign",
            Stage::Cts => "cts",
            Stage::Route => "route",
            Stage::Sta => "sta",
        }
    }

    /// Parse a stage from its [`Stage::name`].
    pub fn from_name(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }

    /// Observability span name for this stage (`flow.<stage>`).
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Train => "flow.train",
            Stage::Place => "flow.place",
            Stage::Dco => "flow.dco",
            Stage::TierAssign => "flow.tier-assign",
            Stage::Cts => "flow.cts",
            Stage::Route => "flow.route",
            Stage::Sta => "flow.sta",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (permissions, disk, ...).
    Io(std::io::Error),
    /// A stage file exists but is truncated, garbled, or carries the wrong
    /// envelope — the stage must be re-run (recoverable).
    Corrupt {
        /// The stage whose checkpoint is unusable.
        stage: &'static str,
        /// What exactly was wrong with it.
        detail: String,
    },
    /// The directory belongs to a different design/seed/run — resuming from
    /// it would silently mix incompatible state (not recoverable).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
            Self::Corrupt { stage, detail } => {
                write!(f, "corrupt checkpoint for stage `{stage}`: {detail}")
            }
            Self::Mismatch(msg) => write!(f, "checkpoint directory mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Write `bytes` to `path` atomically: write a sibling temp file, flush,
/// then rename over the destination.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// A per-run checkpoint directory: one `meta.json` identity record at the
/// root plus one stage file per (flow kind, stage).
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    kind_dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory for one flow run.
    ///
    /// A fresh directory gets a `meta.json` recording the flow identity
    /// (seed, design name, cell/net counts); an existing one is validated
    /// against that identity.
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] when the directory belongs to a
    /// different design or seed; [`CheckpointError::Io`] on filesystem
    /// failure.
    pub fn open(
        dir: impl AsRef<Path>,
        kind: FlowKind,
        seed: u64,
        design: &Design,
    ) -> Result<Self, CheckpointError> {
        let root = dir.as_ref().to_path_buf();
        let kind_dir = root.join(kind.slug());
        std::fs::create_dir_all(&kind_dir)?;
        let meta = json!({
            "version": CHECKPOINT_VERSION,
            "seed": seed,
            "design": design.name.clone(),
            "cells": design.netlist.num_cells(),
            "nets": design.netlist.num_nets(),
        });
        let meta_path = root.join("meta.json");
        match std::fs::read_to_string(&meta_path) {
            Ok(text) => {
                let existing: Value = serde_json::from_str(&text).map_err(|e| {
                    CheckpointError::Mismatch(format!(
                        "unreadable meta.json in {}: {e}",
                        root.display()
                    ))
                })?;
                if existing != meta {
                    return Err(CheckpointError::Mismatch(format!(
                        "{} was written for a different run (found {}, this run is {})",
                        root.display(),
                        serde_json::to_string(&existing).unwrap_or_default(),
                        serde_json::to_string(&meta).unwrap_or_default(),
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                atomic_write(
                    &meta_path,
                    serde_json::to_string(&meta).unwrap_or_default().as_bytes(),
                )?;
            }
            Err(e) => return Err(CheckpointError::Io(e)),
        }
        Ok(Self { root, kind_dir })
    }

    /// Root directory of the store (where `meta.json` lives).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of one stage's checkpoint file for this flow kind.
    pub fn stage_path(&self, stage: Stage) -> PathBuf {
        self.kind_dir.join(format!("{}.json", stage.name()))
    }

    /// Path of the shared predictor bundle (the `train` pseudo-stage) in
    /// checkpoint directory `dir`.
    pub fn predictor_path(dir: &Path) -> PathBuf {
        dir.join("predictor.json")
    }

    /// Atomically persist a stage payload.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, stage: Stage, payload: &Value) -> Result<(), CheckpointError> {
        let envelope = json!({
            "version": CHECKPOINT_VERSION,
            "stage": stage.name(),
            "payload": payload.clone(),
        });
        let text = serde_json::to_string(&envelope).unwrap_or_default();
        atomic_write(&self.stage_path(stage), text.as_bytes())?;
        Ok(())
    }

    /// Load a stage payload, if one was saved.
    ///
    /// Returns `Ok(None)` when no checkpoint exists for this stage.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when the file exists but is truncated,
    /// malformed, or carries the wrong stage/version envelope — the caller
    /// should discard it and re-run the stage. [`CheckpointError::Io`] on
    /// other filesystem failures.
    pub fn load(&self, stage: Stage) -> Result<Option<Value>, CheckpointError> {
        let path = self.stage_path(stage);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io(e)),
        };
        let corrupt = |detail: String| CheckpointError::Corrupt {
            stage: stage.name(),
            detail,
        };
        let envelope: Value =
            serde_json::from_str(&text).map_err(|e| corrupt(format!("parse failure: {e}")))?;
        match envelope.get("version") {
            Some(Value::Number(v)) if *v == f64::from(CHECKPOINT_VERSION) => {}
            other => {
                return Err(corrupt(format!(
                    "unsupported envelope version {other:?}, expected {CHECKPOINT_VERSION}"
                )))
            }
        }
        match envelope.get("stage") {
            Some(Value::String(s)) if s == stage.name() => {}
            other => {
                return Err(corrupt(format!(
                    "envelope names stage {other:?}, expected `{}`",
                    stage.name()
                )))
            }
        }
        let payload = envelope
            .get("payload")
            .ok_or_else(|| corrupt("envelope has no payload".to_string()))?;
        Ok(Some(payload.clone()))
    }

    /// Delete a stage's checkpoint (used after discarding a corrupt one).
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failure other than the file
    /// already being gone.
    pub fn discard(&self, stage: Stage) -> Result<(), CheckpointError> {
        match std::fs::remove_file(self.stage_path(stage)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CheckpointError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dco_flow_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.01)
            .generate(1)
            .expect("gen")
    }

    #[test]
    fn save_load_round_trips_payload() {
        let d = design();
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, FlowKind::Pin3d, 7, &d).expect("open");
        assert_eq!(store.load(Stage::Place).expect("empty"), None);
        let payload = json!({"x": [1.0, 2.5], "ok": true});
        store.save(Stage::Place, &payload).expect("save");
        assert_eq!(store.load(Stage::Place).expect("load"), Some(payload));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_is_reported_corrupt() {
        let d = design();
        let dir = tmp_dir("truncated");
        let store = CheckpointStore::open(&dir, FlowKind::Pin3d, 7, &d).expect("open");
        store
            .save(Stage::Cts, &json!({"wirelength": 12.5}))
            .expect("save");
        let path = store.stage_path(Stage::Cts);
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        match store.load(Stage::Cts) {
            Err(CheckpointError::Corrupt { stage, .. }) => assert_eq!(stage, "cts"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        store.discard(Stage::Cts).expect("discard");
        assert_eq!(store.load(Stage::Cts).expect("gone"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_stage_envelope_is_corrupt() {
        let d = design();
        let dir = tmp_dir("wrongstage");
        let store = CheckpointStore::open(&dir, FlowKind::Dco3d, 3, &d).expect("open");
        store.save(Stage::Route, &json!({"a": 1})).expect("save");
        // copy route.json over sta.json
        std::fs::copy(store.stage_path(Stage::Route), store.stage_path(Stage::Sta)).expect("copy");
        assert!(matches!(
            store.load(Stage::Sta),
            Err(CheckpointError::Corrupt { stage: "sta", .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_meta_is_rejected() {
        let d = design();
        let dir = tmp_dir("mismatch");
        let _ = CheckpointStore::open(&dir, FlowKind::Pin3d, 1, &d).expect("open");
        // same design, different seed -> refuse
        assert!(matches!(
            CheckpointStore::open(&dir, FlowKind::Pin3d, 2, &d),
            Err(CheckpointError::Mismatch(_))
        ));
        // same seed again -> fine (also for a different flow kind)
        let _ = CheckpointStore::open(&dir, FlowKind::Dco3d, 1, &d).expect("reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
            assert_eq!(s.span_name(), format!("flow.{}", s.name()));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }

    #[test]
    fn atomic_write_failure_is_typed_io_not_panic() {
        let d = design();
        let dir = tmp_dir("atomicfail");
        let store = CheckpointStore::open(&dir, FlowKind::Pin3d, 7, &d).expect("open");
        // Plant a directory where atomic_write wants its temp file. Tests
        // run as root in CI, so a read-only directory would not refuse the
        // write — but File::create on a path occupied by a directory fails
        // for every uid, exercising the same error path.
        let tmp = store.stage_path(Stage::Dco).with_extension("json.tmp");
        std::fs::create_dir_all(&tmp).expect("plant dir at tmp path");
        match store.save(Stage::Dco, &json!({"loss": 1.0})) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        // The store stays usable for other stages after the failure.
        store.save(Stage::Cts, &json!({"ok": true})).expect("save");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_envelope_is_corrupt() {
        let d = design();
        let dir = tmp_dir("version");
        let store = CheckpointStore::open(&dir, FlowKind::Pin3d, 7, &d).expect("open");
        let envelope = json!({
            "version": 999,
            "stage": "route",
            "payload": {"a": 1},
        });
        std::fs::write(
            store.stage_path(Stage::Route),
            serde_json::to_string(&envelope).expect("serialize"),
        )
        .expect("write");
        match store.load(Stage::Route) {
            Err(CheckpointError::Corrupt { stage, detail }) => {
                assert_eq!(stage, "route");
                assert!(detail.contains("version"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_json_is_corrupt_not_panic() {
        let d = design();
        let dir = tmp_dir("garbage");
        let store = CheckpointStore::open(&dir, FlowKind::Dco3d, 2, &d).expect("open");
        for garbage in ["", "not json at all", "{\"version\":", "[1,2,", "nul\0l"] {
            std::fs::write(store.stage_path(Stage::Place), garbage).expect("write");
            match store.load(Stage::Place) {
                Err(CheckpointError::Corrupt { stage, .. }) => assert_eq!(stage, "place"),
                other => panic!("garbage {garbage:?}: expected Corrupt, got {other:?}"),
            }
        }
        // Valid JSON but missing the payload key is also corrupt.
        std::fs::write(
            store.stage_path(Stage::Place),
            serde_json::to_string(&json!({"version": 1, "stage": "place"})).expect("serialize"),
        )
        .expect("write");
        assert!(matches!(
            store.load(Stage::Place),
            Err(CheckpointError::Corrupt { stage: "place", .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_meta_is_mismatch() {
        let d = design();
        let dir = tmp_dir("badmeta");
        let _ = CheckpointStore::open(&dir, FlowKind::Pin3d, 1, &d).expect("open");
        std::fs::write(dir.join("meta.json"), "{{{").expect("clobber meta");
        assert!(matches!(
            CheckpointStore::open(&dir, FlowKind::Pin3d, 1, &d),
            Err(CheckpointError::Mismatch(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
