//! End-to-end tests for the `dco3d serve` daemon.
//!
//! The server is spawned in-process through the `dco_flow::serve` library
//! API (the same code path `dco3d serve` wraps) and driven over real
//! unix-domain and TCP sockets with the newline-delimited JSON protocol.
//! Coverage:
//!
//! - round-trips for every job kind (`predict`, `spread`, `flow`,
//!   `status`, `shutdown`) over a unix socket, plus a TCP smoke test;
//! - the served-vs-one-shot bitwise contract: served `predict` and `flow`
//!   responses carry byte-identical results to [`WarmState::predict`] and
//!   the resilient runner at the same seed, at worker counts 1 and 8;
//! - concurrency/batching equivalence: interleaved predicts from several
//!   clients match the sequential one-shot answers bitwise, both with
//!   batch coalescing enabled (`max_batch = 8`) and disabled (`= 1`);
//! - adversarial inputs (invalid JSON, bad fields, unknown jobs,
//!   oversized lines, truncated frames, mid-job disconnects) produce
//!   typed error responses and never take the daemon down.
//!
//! Training is expensive relative to serving, so one predictor is trained
//! once per process and rehydrated per test through the on-disk bundle —
//! exactly how a real deployment feeds `--predictor`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use dco_flow::serve::{
    map_payload, placement_checksum, predict_result, serve, Bind, BoundAddr, QueueCaps,
    ServeOptions, ServerHandle, WarmState,
};
use dco_flow::{train_predictor, FlowConfig, FlowKind, Predictor, ResilienceOptions};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::{CellId, Design};
use dco_unet::{load_predictor, save_predictor, TrainResult};
use serde_json::Value;

/// Worker counts and the obs registry are process-global; serialize tests.
static SERIAL: Mutex<()> = Mutex::new(());

const FIXTURE_SEED: u64 = 11;

fn quick_cfg() -> FlowConfig {
    let mut cfg = FlowConfig {
        map_size: 16,
        unet_channels: 4,
        train_layouts: 2,
        train_epochs: 1,
        ..FlowConfig::default()
    };
    cfg.dco.max_iter = 3;
    cfg
}

/// One trained predictor bundle shared by every test in this binary.
fn predictor_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let design = fixture_design();
        let predictor = train_predictor(&design, &quick_cfg(), FIXTURE_SEED);
        let path = std::env::temp_dir().join(format!("dco_serve_it_{}.json", std::process::id()));
        save_predictor(&path, &predictor.unet, &predictor.normalization).expect("save predictor");
        path
    })
}

fn fixture_design() -> Design {
    GeneratorConfig::for_profile(DesignProfile::Dma)
        .with_scale(0.015)
        .generate(FIXTURE_SEED)
        .expect("generate design")
}

/// A fresh [`WarmState`] rehydrated from the shared bundle, so every test
/// serves bit-identical weights.
fn warm_state() -> WarmState {
    let (unet, normalization) = load_predictor(predictor_path()).expect("load predictor");
    let predictor = Predictor {
        unet,
        normalization: normalization.clone(),
        train_result: TrainResult {
            train_loss: Vec::new(),
            test_loss: Vec::new(),
            test_metrics: Vec::new(),
            normalization,
            divergence_events: 0,
            degraded: false,
        },
    };
    WarmState::new(fixture_design(), quick_cfg(), predictor)
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dco_serve_{tag}_{}.sock", std::process::id()))
}

fn spawn_unix(tag: &str, opts: ServeOptions) -> (ServerHandle, PathBuf) {
    let path = socket_path(tag);
    let _ = std::fs::remove_file(&path);
    let handle = serve(warm_state(), Bind::Unix(path.clone()), opts).expect("bind unix socket");
    (handle, path)
}

/// A lockstep NDJSON client: write one request line, read one response.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(path: &PathBuf) -> Self {
        let stream = UnixStream::connect(path).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Self {
            writer: stream,
            reader,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write newline");
        self.writer.flush().expect("flush");
    }

    fn read_response(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(&line).expect("response parses as JSON")
    }

    fn round_trip(&mut self, request: &str) -> Value {
        self.send_raw(request);
        self.read_response()
    }
}

fn assert_ok(resp: &Value, id: u64, job: &str) {
    assert_eq!(resp.get("id"), Some(&Value::Number(id as f64)), "{resp:?}");
    assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
    assert_eq!(
        resp.get("job"),
        Some(&Value::String(job.to_string())),
        "{resp:?}"
    );
    assert!(resp.get("result").is_some(), "{resp:?}");
}

fn error_kind(resp: &Value) -> String {
    assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "{resp:?}");
    let err = resp.get("error").expect("error object");
    match err.get("kind") {
        Some(Value::String(k)) => k.clone(),
        other => panic!("error.kind missing or not a string: {other:?}"),
    }
}

/// Re-serialize the `result` payload so two responses can be compared
/// byte-for-byte (the serializer emits shortest-roundtrip floats, so byte
/// equality is bit equality).
fn result_bytes(resp: &Value) -> String {
    serde_json::to_string(resp.get("result").expect("result present")).expect("serialize result")
}

// --- round-trips -----------------------------------------------------------

#[test]
fn e2e_round_trips_every_job_kind_over_unix_socket() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, path) = spawn_unix("e2e", ServeOptions::default());
    let mut c = Client::connect(&path);

    let status = c.round_trip(r#"{"id":1,"job":"status"}"#);
    assert_ok(&status, 1, "status");
    let result = status.get("result").expect("status result");
    assert!(result.get("cells").is_some(), "{result:?}");
    assert!(result.get("queue_depth").is_some(), "{result:?}");
    assert!(result.get("jobs").is_some(), "{result:?}");

    let predict = c.round_trip(r#"{"id":2,"job":"predict","seed":5}"#);
    assert_ok(&predict, 2, "predict");
    let result = predict.get("result").expect("predict result");
    assert!(result.get("checksum").is_some(), "{result:?}");
    match result.get("congestion") {
        Some(Value::Array(maps)) => assert_eq!(maps.len(), 2, "one map per die"),
        other => panic!("congestion missing or not an array: {other:?}"),
    }

    let spread = c.round_trip(r#"{"id":3,"job":"spread","seed":5,"iters":2}"#);
    assert_ok(&spread, 3, "spread");
    let result = spread.get("result").expect("spread result");
    assert!(result.get("placement").is_some(), "{result:?}");
    assert!(result.get("checksum").is_some(), "{result:?}");
    assert_eq!(result.get("iters"), Some(&Value::Number(2.0)), "{result:?}");

    let flow = c.round_trip(r#"{"id":4,"job":"flow","kind":"pin3d","seed":1}"#);
    assert_ok(&flow, 4, "flow");
    let result = flow.get("result").expect("flow result");
    assert_eq!(
        result.get("kind"),
        Some(&Value::String("pin3d".to_string())),
        "{result:?}"
    );
    assert!(result.get("signoff").is_some(), "{result:?}");
    assert!(result.get("cut_size").is_some(), "{result:?}");

    let shutdown = c.round_trip(r#"{"id":5,"job":"shutdown"}"#);
    assert_ok(&shutdown, 5, "shutdown");

    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.predict, 1);
    assert_eq!(stats.spread, 1);
    assert_eq!(stats.flow, 1);
    assert_eq!(stats.status, 1);
    assert_eq!(stats.errors, 0);
    assert!(!std::path::Path::new(&path).exists(), "socket file removed");
}

#[test]
fn tcp_listener_round_trips() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = serve(
        warm_state(),
        Bind::Tcp("127.0.0.1:0".to_string()),
        ServeOptions::default(),
    )
    .expect("bind tcp");
    let addr = match handle.addr() {
        BoundAddr::Tcp(a) => *a,
        other => panic!("expected tcp addr, got {other}"),
    };
    let stream = std::net::TcpStream::connect(addr).expect("connect tcp");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"{\"id\":1,\"job\":\"status\"}\n{\"id\":2,\"job\":\"shutdown\"}\n")
        .expect("write");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status response");
    let status: Value = serde_json::from_str(&line).expect("json");
    assert_ok(&status, 1, "status");
    line.clear();
    reader.read_line(&mut line).expect("shutdown response");
    let shutdown: Value = serde_json::from_str(&line).expect("json");
    assert_ok(&shutdown, 2, "shutdown");
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.status, 1);
}

// --- bitwise equivalence ---------------------------------------------------

#[test]
fn served_predict_and_flow_are_bitwise_identical_to_one_shot_at_worker_counts_1_and_8() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Disable the adaptive single-core fallback so the 8-worker leg
    // genuinely exercises a multi-worker pool on single-core machines.
    dco_parallel::set_adaptive(false);
    for threads in [1usize, 8] {
        dco_parallel::set_threads(threads);
        let state = warm_state();
        let one_shot = state.predict(&state.baseline_placement(7));
        let expected = serde_json::to_string(&predict_result(&one_shot)).expect("serialize");
        // The one-shot flow path: same warm predictor, same resilient
        // runner the daemon dispatches to.
        let flow = state
            .runner()
            .run_resilient(
                FlowKind::Pin3d,
                1,
                Some(state.predictor()),
                &ResilienceOptions::default(),
            )
            .expect("one-shot flow");
        let expected_flow_checksum =
            format!("{:016x}", placement_checksum(&flow.outcome.placement));
        let expected_flow_congestion = serde_json::to_string(&Value::Array(vec![
            map_payload(&flow.outcome.congestion[0]),
            map_payload(&flow.outcome.congestion[1]),
        ]))
        .expect("serialize congestion");

        let tag = format!("bitwise{threads}");
        let (handle, path) = spawn_unix(&tag, ServeOptions::default());
        let mut c = Client::connect(&path);
        let resp = c.round_trip(r#"{"id":1,"job":"predict","seed":7}"#);
        assert_ok(&resp, 1, "predict");
        assert_eq!(
            result_bytes(&resp),
            expected,
            "served predict diverged from one-shot at {threads} workers"
        );

        let resp = c.round_trip(r#"{"id":2,"job":"flow","kind":"pin3d","seed":1}"#);
        assert_ok(&resp, 2, "flow");
        let result = resp.get("result").expect("flow result");
        assert_eq!(
            result.get("checksum"),
            Some(&Value::String(expected_flow_checksum.clone())),
            "served flow placement diverged from one-shot at {threads} workers"
        );
        let served_congestion =
            serde_json::to_string(result.get("congestion").expect("congestion maps"))
                .expect("serialize");
        assert_eq!(
            served_congestion, expected_flow_congestion,
            "served flow congestion diverged from one-shot at {threads} workers"
        );

        assert_ok(&c.round_trip(r#"{"id":3,"job":"shutdown"}"#), 3, "shutdown");
        handle.join().expect("clean shutdown");
    }
    dco_parallel::set_threads(1);
    dco_parallel::set_adaptive(true);
}

#[test]
fn interleaved_concurrent_predicts_match_sequential_bitwise() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 4;
    const SEEDS: [u64; 4] = [1, 2, 3, 4];

    // Sequential ground truth through the one-shot path.
    let state = warm_state();
    let expected: Vec<String> = SEEDS
        .iter()
        .map(|&seed| {
            let maps = state.predict(&state.baseline_placement(seed));
            serde_json::to_string(&predict_result(&maps)).expect("serialize")
        })
        .collect();

    // Once with batch coalescing wide open, once with it disabled: the
    // responses must be indistinguishable.
    for max_batch in [8usize, 1] {
        let opts = ServeOptions {
            max_batch,
            ..ServeOptions::default()
        };
        let tag = format!("concurrent{max_batch}");
        let (handle, path) = spawn_unix(&tag, opts);

        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let path = path.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(&path);
                    for round in 0..SEEDS.len() {
                        // Rotate the seed order per client so requests with
                        // different seeds interleave inside one batch.
                        let pick = (round + client) % SEEDS.len();
                        let id = (client * SEEDS.len() + round + 1) as u64;
                        let req = format!(
                            "{{\"id\":{id},\"job\":\"predict\",\"seed\":{}}}",
                            SEEDS[pick]
                        );
                        let resp = c.round_trip(&req);
                        assert_ok(&resp, id, "predict");
                        assert_eq!(
                            result_bytes(&resp),
                            expected[pick],
                            "client {client} seed {} diverged (max_batch={max_batch})",
                            SEEDS[pick]
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }

        let mut c = Client::connect(&path);
        assert_ok(
            &c.round_trip(r#"{"id":99,"job":"shutdown"}"#),
            99,
            "shutdown",
        );
        let stats = handle.join().expect("clean shutdown");
        assert_eq!(stats.predict, (CLIENTS * SEEDS.len()) as u64);
        assert_eq!(stats.errors, 0);
        if max_batch == 1 {
            assert_eq!(
                stats.max_batch_observed, 1,
                "coalescing must be off at max_batch=1"
            );
        }
    }
}

/// The served `delta` job: a cold session runs the full path, a warm one
/// patches, and both answer bitwise identically to one-shot `predict` of
/// the same placement — including after moves sent over the wire, a
/// `reset:true`, and a rejected bad placement in between.
#[test]
fn served_delta_jobs_match_one_shot_predict_bitwise() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, path) = spawn_unix("delta", ServeOptions::default());
    let mut c = Client::connect(&path);

    let congestion_bytes = |resp: &Value| {
        let maps = resp
            .get("result")
            .and_then(|r| r.get("congestion"))
            .expect("congestion maps");
        serde_json::to_string(maps).expect("serialize congestion")
    };
    let checksum = |resp: &Value| match resp.get("result").and_then(|r| r.get("checksum")) {
        Some(Value::String(s)) => s.clone(),
        other => panic!("checksum missing: {other:?}"),
    };
    let incremental = |resp: &Value| match resp.get("result").and_then(|r| r.get("incremental")) {
        Some(Value::Bool(b)) => *b,
        other => panic!("incremental flag missing: {other:?}"),
    };

    // One-shot ground truth for the baseline placement at seed 7.
    let predict = c.round_trip(r#"{"id":1,"job":"predict","seed":7}"#);
    assert_ok(&predict, 1, "predict");

    // Cold session: the full path, same bits as predict.
    let d1 = c.round_trip(r#"{"id":2,"job":"delta","seed":7}"#);
    assert_ok(&d1, 2, "delta");
    assert!(!incremental(&d1), "first delta runs from scratch");
    assert_eq!(
        d1.get("result").and_then(|r| r.get("delta")),
        Some(&Value::Null),
        "no diff on a full pass"
    );
    assert_eq!(checksum(&d1), checksum(&predict));
    assert_eq!(congestion_bytes(&d1), congestion_bytes(&predict));

    // Warm session, unchanged placement: an empty diff, same bits.
    let d2 = c.round_trip(r#"{"id":3,"job":"delta","seed":7}"#);
    assert_ok(&d2, 3, "delta");
    assert!(incremental(&d2), "second delta patches");
    match d2
        .get("result")
        .and_then(|r| r.get("delta"))
        .and_then(|d| d.get("moved_cells"))
    {
        Some(Value::Number(n)) => assert_eq!(*n, 0.0, "no-op delta moved nothing"),
        other => panic!("delta.moved_cells missing: {other:?}"),
    }
    assert_eq!(checksum(&d2), checksum(&predict));

    // Move cells over the wire: the patched answer must be bitwise equal
    // to one-shot prediction of the moved placement.
    let state = warm_state();
    let mut moved = state.baseline_placement(7);
    moved.set_xy(
        CellId(3),
        moved.x(CellId(3)) + 2.0,
        moved.y(CellId(3)) + 0.5,
    );
    moved.set_tier(CellId(5), moved.tier(CellId(5)).flipped());
    let expected = predict_result(&state.predict(&moved));
    let req = format!(
        "{{\"id\":4,\"job\":\"delta\",\"placement\":{}}}",
        serde_json::to_string(&moved).expect("serialize placement")
    );
    let d3 = c.round_trip(&req);
    assert_ok(&d3, 4, "delta");
    assert!(incremental(&d3), "warm session patches the move");
    match d3
        .get("result")
        .and_then(|r| r.get("delta"))
        .and_then(|d| d.get("moved_cells"))
    {
        Some(Value::Number(n)) => assert!(*n >= 2.0, "both touched cells counted: {n}"),
        other => panic!("delta.moved_cells missing: {other:?}"),
    }
    assert_eq!(
        Some(&Value::String(checksum(&d3))),
        expected.get("checksum"),
        "patched prediction diverged from one-shot"
    );
    assert_eq!(
        congestion_bytes(&d3),
        serde_json::to_string(expected.get("congestion").expect("maps")).expect("serialize"),
        "patched congestion maps diverged from one-shot"
    );

    // reset:true drops the caches and runs full again — same bits still.
    let d4 = c.round_trip(r#"{"id":5,"job":"delta","seed":7,"reset":true}"#);
    assert_ok(&d4, 5, "delta");
    assert!(!incremental(&d4), "reset forces the full path");
    assert_eq!(checksum(&d4), checksum(&predict));

    // A bad placement is rejected typed; the warm session survives it.
    let bad =
        c.round_trip(r#"{"id":6,"job":"delta","placement":{"x":[1.0],"y":[2.0],"tier":["Top"]}}"#);
    assert_eq!(error_kind(&bad), "bad-request");
    let d5 = c.round_trip(r#"{"id":7,"job":"delta","seed":7}"#);
    assert_ok(&d5, 7, "delta");
    assert!(incremental(&d5), "session survived the rejected job");
    assert_eq!(checksum(&d5), checksum(&predict));

    // Status reports the delta counter.
    let status = c.round_trip(r#"{"id":8,"job":"status"}"#);
    match status
        .get("result")
        .and_then(|r| r.get("jobs"))
        .and_then(|j| j.get("delta"))
    {
        Some(Value::Number(n)) => assert_eq!(*n, 5.0, "status counts delta jobs"),
        other => panic!("jobs.delta missing: {other:?}"),
    }

    assert_ok(&c.round_trip(r#"{"id":9,"job":"shutdown"}"#), 9, "shutdown");
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.delta, 5);
    assert_eq!(stats.predict, 1);
    assert_eq!(stats.errors, 1, "only the bad placement errored");
}

// --- adversarial inputs ----------------------------------------------------

#[test]
fn adversarial_inputs_yield_typed_errors_and_daemon_survives() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = ServeOptions {
        max_line_bytes: 4096,
        ..ServeOptions::default()
    };
    let (handle, path) = spawn_unix("adversarial", opts);

    let mut c = Client::connect(&path);
    // Invalid JSON.
    assert_eq!(error_kind(&c.round_trip("this is not json")), "parse");
    // Valid JSON, wrong shape: not a protocol object, so bad-request.
    assert_eq!(error_kind(&c.round_trip(r#"[1,2,3]"#)), "bad-request");
    // Bad field type.
    assert_eq!(
        error_kind(&c.round_trip(r#"{"id":1,"job":"predict","seed":"many"}"#)),
        "bad-request"
    );
    // Unknown job kind.
    assert_eq!(
        error_kind(&c.round_trip(r#"{"id":2,"job":"frobnicate"}"#)),
        "bad-request"
    );
    // Unknown flow kind.
    assert_eq!(
        error_kind(&c.round_trip(r#"{"id":3,"job":"flow","kind":"warp9"}"#)),
        "bad-request"
    );
    // Oversized line: the daemon must drain it and answer with a typed
    // error rather than buffer it or die.
    let huge = format!("{{\"id\":4,\"pad\":\"{}\"}}", "x".repeat(8192));
    assert_eq!(error_kind(&c.round_trip(&huge)), "oversized");
    // The same connection still works after every rejection.
    assert_ok(&c.round_trip(r#"{"id":5,"job":"status"}"#), 5, "status");

    // Truncated frame: bytes with no trailing newline, then disconnect.
    {
        let mut t = UnixStream::connect(&path).expect("connect");
        t.write_all(b"{\"id\":9,\"job\":\"sta").expect("write");
        t.flush().expect("flush");
    }

    // Mid-job disconnect: enqueue a real job, then vanish before the reply.
    {
        let mut t = UnixStream::connect(&path).expect("connect");
        t.write_all(b"{\"id\":10,\"job\":\"predict\",\"seed\":3}\n")
            .expect("write");
        t.flush().expect("flush");
    }

    // The daemon is still alive and serving.
    let mut c2 = Client::connect(&path);
    assert_ok(&c2.round_trip(r#"{"id":11,"job":"status"}"#), 11, "status");
    assert_ok(
        &c2.round_trip(r#"{"id":12,"job":"shutdown"}"#),
        12,
        "shutdown",
    );
    handle.join().expect("daemon survived adversarial session");
}

// --- overload & deadlines --------------------------------------------------

/// The `error.retry_after_ms` field of an `overloaded` response.
fn retry_after_ms(resp: &Value) -> u64 {
    assert_eq!(error_kind(resp), "overloaded");
    match resp.get("error").and_then(|e| e.get("retry_after_ms")) {
        Some(Value::Number(ms)) => *ms as u64,
        other => panic!("retry_after_ms missing or not a number: {other:?}"),
    }
}

#[test]
fn expensive_jobs_are_shed_with_retry_hint_while_cheap_traffic_flows() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = ServeOptions {
        queue_caps: QueueCaps {
            cheap: 64,
            expensive: 0,
        },
        ..ServeOptions::default()
    };
    let (handle, path) = spawn_unix("overload", opts);
    let mut c = Client::connect(&path);

    // With a zero expensive cap, every spread/flow is shed at admission...
    let resp = c.round_trip(r#"{"id":1,"job":"spread","seed":5}"#);
    assert!(retry_after_ms(&resp) >= 250, "hint reflects expensive cost");
    let resp = c.round_trip(r#"{"id":2,"job":"flow","kind":"pin3d","seed":1}"#);
    assert!(retry_after_ms(&resp) >= 250);

    // ...but cheap traffic is untouched by the expensive-cap pressure.
    assert_ok(&c.round_trip(r#"{"id":3,"job":"status"}"#), 3, "status");
    let status = c.round_trip(r#"{"id":4,"job":"status"}"#);
    let overload = status
        .get("result")
        .and_then(|r| r.get("overload"))
        .expect("status exposes the overload section");
    match overload.get("shed") {
        Some(Value::Number(n)) => assert!(*n >= 2.0, "shed jobs are counted: {overload:?}"),
        other => panic!("overload.shed missing: {other:?}"),
    }
    assert_ok(
        &c.round_trip(r#"{"id":5,"job":"predict","seed":5}"#),
        5,
        "predict",
    );

    // Shutdown bypasses the caps: an overloaded daemon stays stoppable.
    assert_ok(&c.round_trip(r#"{"id":6,"job":"shutdown"}"#), 6, "shutdown");
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.shed, 2, "both expensive jobs were shed");
    assert_eq!(stats.spread + stats.flow, 0, "shed jobs never executed");
}

#[test]
fn deadline_exceeded_flow_gets_typed_reply_and_daemon_recovers() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // max_deadline_ms clamps the client's ask, so even an absurd client
    // deadline cannot reserve the executor: with a 1 ms server clamp, a
    // "one hour" flow request still expires almost immediately.
    let opts = ServeOptions {
        max_deadline_ms: 1,
        ..ServeOptions::default()
    };
    let (handle, path) = spawn_unix("deadline", opts);
    let mut c = Client::connect(&path);

    let resp =
        c.round_trip(r#"{"id":1,"job":"flow","kind":"pin3d","seed":1,"deadline_ms":3600000}"#);
    assert_eq!(error_kind(&resp), "deadline-exceeded");

    // The cancelled flow left no state behind: the very same request
    // without a deadline completes, bitwise equal to the one-shot path.
    let state = warm_state();
    let one_shot = state
        .runner()
        .run_resilient(
            FlowKind::Pin3d,
            1,
            Some(state.predictor()),
            &ResilienceOptions::default(),
        )
        .expect("one-shot flow");
    let expected = format!("{:016x}", placement_checksum(&one_shot.outcome.placement));
    let resp = c.round_trip(r#"{"id":2,"job":"flow","kind":"pin3d","seed":1}"#);
    assert_ok(&resp, 2, "flow");
    assert_eq!(
        resp.get("result").and_then(|r| r.get("checksum")),
        Some(&Value::String(expected)),
        "post-deadline flow still bitwise matches one-shot"
    );

    // A generous deadline does not perturb results either (the token
    // simply never fires).
    let resp = c.round_trip(r#"{"id":3,"job":"predict","seed":7,"deadline_ms":30000}"#);
    assert_ok(&resp, 3, "predict");

    assert_ok(&c.round_trip(r#"{"id":4,"job":"shutdown"}"#), 4, "shutdown");
    let stats = handle.join().expect("clean shutdown");
    assert!(stats.deadline_exceeded >= 1, "{stats:?}");
    assert_eq!(stats.flow, 1, "only the un-deadlined flow completed");
}

// --- socket hardening ------------------------------------------------------

#[test]
fn stale_socket_file_is_rebound_live_daemon_is_not() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = socket_path("stale");
    let _ = std::fs::remove_file(&path);

    // A crashed daemon leaves a socket file nobody is accepting on.
    drop(std::os::unix::net::UnixListener::bind(&path).expect("bind throwaway"));
    assert!(path.exists(), "stale socket file left behind");
    let handle = serve(
        warm_state(),
        Bind::Unix(path.clone()),
        ServeOptions::default(),
    )
    .expect("stale socket probed and rebound");

    // A *live* daemon on the same path must not be clobbered.
    let err = serve(
        warm_state(),
        Bind::Unix(path.clone()),
        ServeOptions::default(),
    )
    .expect_err("double bind refused");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // ...and the live daemon is still serving after the failed bind.
    let mut c = Client::connect(&path);
    assert_ok(&c.round_trip(r#"{"id":1,"job":"status"}"#), 1, "status");
    assert_ok(&c.round_trip(r#"{"id":2,"job":"shutdown"}"#), 2, "shutdown");
    handle.join().expect("clean shutdown");

    // A non-socket file at the path is never deleted.
    std::fs::write(&path, b"precious").expect("write file");
    let err = serve(
        warm_state(),
        Bind::Unix(path.clone()),
        ServeOptions::default(),
    )
    .expect_err("regular file refused");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert_eq!(
        std::fs::read(&path).expect("file intact"),
        b"precious",
        "bind probe must not delete non-socket files"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn idle_connections_are_reaped_and_connection_cap_rejects_with_typed_line() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = ServeOptions {
        read_timeout_ms: 20,
        idle_strikes: 2,
        max_conns: 1,
        ..ServeOptions::default()
    };
    let (handle, path) = spawn_unix("reap", opts);

    // First connection occupies the single slot and then sits idle.
    let idle = Client::connect(&path);
    std::thread::sleep(std::time::Duration::from_millis(10));

    // Second connection is over the cap: one typed overloaded line, then
    // a close — never a silent drop.
    {
        let over = UnixStream::connect(&path).expect("connect over cap");
        let mut reader = BufReader::new(over);
        let mut line = String::new();
        reader.read_line(&mut line).expect("rejection line");
        let resp: Value = serde_json::from_str(&line).expect("typed rejection");
        assert_eq!(error_kind(&resp), "overloaded");
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).expect("after rejection"),
            0,
            "connection closed after the rejection line"
        );
    }

    // The idle connection gets reaped after 2 strikes of the 20 ms read
    // timeout; its socket closes from the server side.
    let mut reader = BufReader::new(idle.reader.into_inner());
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reaped socket read");
    assert_eq!(n, 0, "server closed the idle connection");

    // The freed slot admits a new connection (poll briefly: the slot is
    // released when the reaper thread exits).
    let mut admitted = None;
    for _ in 0..100 {
        let mut c = Client::connect(&path);
        c.send_raw(r#"{"id":1,"job":"status"}"#);
        let mut line = String::new();
        if c.reader.read_line(&mut line).expect("read") > 0 {
            let resp: Value = serde_json::from_str(&line).expect("json");
            if resp.get("ok") == Some(&Value::Bool(true)) {
                admitted = Some(c);
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut c = admitted.expect("slot freed by the reaper");
    assert_ok(&c.round_trip(r#"{"id":2,"job":"shutdown"}"#), 2, "shutdown");
    let stats = handle.join().expect("clean shutdown");
    assert!(stats.conns_reaped >= 1, "{stats:?}");
    assert!(stats.conns_rejected >= 1, "{stats:?}");
}

// --- write-path failures ---------------------------------------------------

#[test]
fn replies_larger_than_the_inbound_cap_are_delivered_intact() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The inbound frame cap must not truncate outbound frames: a predict
    // reply is far bigger than 512 bytes and must arrive whole.
    let opts = ServeOptions {
        max_line_bytes: 512,
        ..ServeOptions::default()
    };
    let (handle, path) = spawn_unix("outbound", opts);
    let mut c = Client::connect(&path);
    let resp = c.round_trip(r#"{"id":1,"job":"predict","seed":5}"#);
    assert_ok(&resp, 1, "predict");
    assert!(
        result_bytes(&resp).len() > 512,
        "fixture reply exercises the over-cap outbound path"
    );
    assert_ok(&c.round_trip(r#"{"id":2,"job":"shutdown"}"#), 2, "shutdown");
    handle.join().expect("clean shutdown");
}

#[test]
fn client_vanishing_before_its_reply_never_wedges_the_daemon() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, path) = spawn_unix("vanish", ServeOptions::default());

    // Severing both directions (not just dropping the handle) forces the
    // writer's next send onto a dead socket.
    for i in 0..3u64 {
        let mut t = UnixStream::connect(&path).expect("connect");
        t.write_all(format!("{{\"id\":{i},\"job\":\"predict\",\"seed\":3}}\n").as_bytes())
            .expect("write");
        t.flush().expect("flush");
        t.shutdown(std::net::Shutdown::Both).expect("sever");
    }

    // The executor worked through all three dead-reply jobs and lives on.
    let mut c = Client::connect(&path);
    assert_ok(&c.round_trip(r#"{"id":10,"job":"status"}"#), 10, "status");
    assert_ok(
        &c.round_trip(r#"{"id":11,"job":"shutdown"}"#),
        11,
        "shutdown",
    );
    handle.join().expect("daemon survived vanished clients");
}

#[test]
fn partial_write_injection_tears_the_frame_then_closes() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Rate 100: the very first reply is torn mid-frame and the socket
    // severed — the client must observe a close, never a torn frame
    // followed by more data.
    let opts = ServeOptions {
        inject: Some("partial-write:7:100".parse().expect("spec")),
        ..ServeOptions::default()
    };
    let (handle, path) = spawn_unix("torn", opts);
    let mut c = Client::connect(&path);
    c.send_raw(r#"{"id":1,"job":"status"}"#);
    let mut buf = String::new();
    let n = c.reader.read_line(&mut buf).expect("torn read");
    assert!(
        n == 0 || serde_json::from_str::<Value>(&buf).is_err(),
        "frame must be torn or the socket closed, got a whole reply: {buf}"
    );
    let mut tail = String::new();
    assert_eq!(
        c.reader.read_line(&mut tail).expect("after tear"),
        0,
        "no data may follow a torn frame"
    );

    // The daemon itself is unharmed; shut down through a fresh connection
    // (whose own reply may also be torn — the stop still lands).
    let mut s = Client::connect(&path);
    s.send_raw(r#"{"id":2,"job":"shutdown"}"#);
    let mut line = String::new();
    let _ = s.reader.read_line(&mut line);
    handle.join().expect("daemon drained under write faults");
}

#[test]
fn requests_queued_behind_shutdown_get_typed_rejections() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, path) = spawn_unix("drain", ServeOptions::default());
    let mut c = Client::connect(&path);
    assert_ok(&c.round_trip(r#"{"id":1,"job":"shutdown"}"#), 1, "shutdown");
    // A request raced after shutdown has three clean outcomes: it slips
    // into the queue before close and is served during the drain, it gets
    // a typed shutting-down rejection, or the connection closes under it.
    // A hang or a panic is not acceptable.
    c.send_raw(r#"{"id":2,"job":"status"}"#);
    let mut line = String::new();
    match c.reader.read_line(&mut line) {
        Ok(0) => {}
        Ok(_) => {
            let resp: Value = serde_json::from_str(&line).expect("json");
            if resp.get("ok") == Some(&Value::Bool(true)) {
                assert_ok(&resp, 2, "status");
            } else {
                assert_eq!(error_kind(&resp), "shutting-down");
            }
        }
        Err(e) => panic!("read after shutdown failed hard: {e}"),
    }
    handle.join().expect("clean shutdown");
}
