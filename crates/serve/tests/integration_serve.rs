//! Loopback integration tests for the dynamic-batching server.
//!
//! The load-bearing property is the serving determinism contract: every
//! served exact-mode response is bit-identical to a direct
//! `InferenceEngine::scores` call with the same seed, *regardless* of
//! arrival order, batch composition, or which dispatch tick a request
//! lands in. Deadline-mode responses are likewise bit-identical to the
//! scalar `StreamingEngine` under the server's chunk schedule and margin
//! policy — early exit changes how many cycles are spent, never which
//! bits an image's own lane sees.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use aqfp_sc_data::synthetic_digits;
use aqfp_sc_network::{
    build_model, ActivationStyle, CompiledNetwork, ExitPolicy, ModelRegistry, NetworkSpec,
    Platform, StreamingEngine,
};
use aqfp_sc_nn::Tensor;
use aqfp_sc_serve::{
    stats_field, ClassifyRequest, ClassifyResponse, Client, Response, ServeConfig, Server,
    ServerHandle, Status,
};

const STREAM_LEN: usize = 256;
const SEED: u64 = 0x15CA_2019;

/// A briefly trained tiny network (shared across tests — training is the
/// expensive part), so class margins exist and the deadline path's margin
/// policy has something to exit on.
fn trained_tiny() -> &'static CompiledNetwork {
    static MODEL: OnceLock<CompiledNetwork> = OnceLock::new();
    MODEL.get_or_init(|| {
        let spec = NetworkSpec::tiny(8);
        let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 5);
        let train: Vec<(Tensor, usize)> = synthetic_digits(240, 9)
            .iter()
            .map(|(img, l)| (downsample(img), *l))
            .collect();
        for _ in 0..12 {
            model.train_epoch(&train, 0.05, 0.9, 16);
        }
        CompiledNetwork::from_model(&spec, &mut model, 8)
    })
}

fn downsample(img: &Tensor) -> Tensor {
    let mut small = Tensor::zeros(vec![1, 8, 8]);
    for y in 0..8 {
        for x in 0..8 {
            small.data_mut()[y * 8 + x] = img.at3(0, 2 + y * 3, 2 + x * 3);
        }
    }
    small
}

fn images(n: usize) -> Vec<Tensor> {
    synthetic_digits(n, 77).iter().map(|(img, _)| downsample(img)).collect()
}

fn start_server(config: ServeConfig) -> (ServerHandle, Arc<ModelRegistry>) {
    let registry = Arc::new(ModelRegistry::new());
    registry.install("tiny", trained_tiny(), STREAM_LEN, Platform::Aqfp);
    let server = Server::start(Arc::clone(&registry), "127.0.0.1:0", config)
        .expect("bind loopback");
    (server, registry)
}

fn request(id: u64, deadline_us: u32, image: &Tensor) -> ClassifyRequest {
    ClassifyRequest {
        request_id: id,
        model: "tiny".to_string(),
        seed: SEED.wrapping_add(id),
        deadline_us,
        image: image.clone(),
    }
}

fn recv_classify(client: &mut Client) -> ClassifyResponse {
    match client.recv().expect("response") {
        Response::Classify(resp) => resp,
        Response::Stats(_) => panic!("unexpected stats response"),
    }
}

/// Fires `ids` as exact-mode requests over `client` (pipelined), then
/// collects every response keyed by request id.
fn burst(client: &mut Client, ids: &[u64], imgs: &[Tensor]) -> HashMap<u64, ClassifyResponse> {
    for &id in ids {
        client
            .classify_send(request(id, 0, &imgs[id as usize]))
            .expect("send");
    }
    let mut out = HashMap::new();
    for _ in ids {
        let resp = recv_classify(client);
        assert!(out.insert(resp.request_id, resp).is_none(), "duplicate id");
    }
    out
}

#[test]
fn served_scores_bit_identical_across_arrival_orders() {
    let (server, registry) = start_server(ServeConfig::default());
    let engine = registry.engine("tiny").expect("registered");
    let imgs = images(32);
    let forward: Vec<u64> = (0..32).collect();
    let reverse: Vec<u64> = (0..32).rev().collect();

    // Round 1: one connection, submission order 0..32 — likely a single
    // coalesced group.
    let mut conn = Client::connect(server.local_addr()).expect("connect");
    let round1 = burst(&mut conn, &forward, &imgs);

    // Round 2: the same requests in reverse, split across two extra
    // connections (odd ids on one, even on the other, interleaved by the
    // readers) — different arrival order, different batch composition,
    // different dispatch ticks.
    let mut conn_a = Client::connect(server.local_addr()).expect("connect");
    let mut conn_b = Client::connect(server.local_addr()).expect("connect");
    for &id in &reverse {
        let target = if id % 2 == 0 { &mut conn_a } else { &mut conn_b };
        target
            .classify_send(request(id, 0, &imgs[id as usize]))
            .expect("send");
    }
    let mut round2 = HashMap::new();
    for _ in 0..16 {
        let resp = recv_classify(&mut conn_a);
        round2.insert(resp.request_id, resp);
        let resp = recv_classify(&mut conn_b);
        round2.insert(resp.request_id, resp);
    }

    for id in 0..32u64 {
        let direct = engine.scores(&imgs[id as usize], SEED.wrapping_add(id));
        let r1 = &round1[&id];
        let r2 = &round2[&id];
        assert_eq!(r1.status, Status::Ok);
        assert_eq!(r2.status, Status::Ok);
        assert_eq!(r1.scores, direct, "round 1, image {id}");
        assert_eq!(r2.scores, direct, "round 2, image {id}");
        assert_eq!(r1.cycles as usize, STREAM_LEN);
        assert!(!r1.early_exit && !r1.deadline_mode);
    }
    server.shutdown();
}

#[test]
fn deadline_mode_matches_scalar_streaming_and_saves_cycles() {
    let config = ServeConfig::default();
    let (server, registry) = start_server(config.clone());
    let engine = registry.engine("tiny").expect("registered");
    // The scalar reference: same chunk schedule and margin policy the
    // server applies to deadline-mode groups.
    let reference = StreamingEngine::new(&engine, config.deadline_chunk)
        .with_policy(ExitPolicy::Margin { z: config.deadline_z })
        .with_min_cycles(config.deadline_min_cycles);

    let imgs = images(24);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for id in 0..24u64 {
        client
            .classify_send(request(id, 5_000_000, &imgs[id as usize]))
            .expect("send");
    }
    let mut total_cycles = 0u64;
    let mut exits = 0u32;
    for _ in 0..24 {
        let resp = recv_classify(&mut client);
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.deadline_mode);
        let id = resp.request_id;
        let scalar = reference.classify(&imgs[id as usize], SEED.wrapping_add(id));
        assert_eq!(resp.scores, scalar.scores, "image {id}");
        assert_eq!(resp.cycles as usize, scalar.cycles, "image {id}");
        assert_eq!(resp.early_exit, scalar.early_exit, "image {id}");
        assert_eq!(resp.class as usize, scalar.class, "image {id}");
        // Early exit trades cycles, never the prediction: same argmax as
        // the exact full-N path on every image in this deterministic set.
        assert_eq!(
            resp.class as usize,
            engine.classify(&imgs[id as usize], SEED.wrapping_add(id)),
            "image {id} prediction changed"
        );
        total_cycles += u64::from(resp.cycles);
        exits += u32::from(resp.early_exit);
    }
    // The margin policy on a trained model must actually save work.
    assert!(exits > 0, "no deadline-mode request exited early");
    assert!(
        total_cycles < 24 * STREAM_LEN as u64,
        "deadline mode spent full N everywhere"
    );
    let snap = server.stats();
    assert_eq!(snap.deadline_requests, 24);
    assert_eq!(snap.deadline_early_exits, u64::from(exits));
    assert!(snap.deadline_avg_cycles < STREAM_LEN as f64);
    server.shutdown();
}

#[test]
fn expired_deadline_and_unknown_model_reject_typed() {
    let (server, _registry) = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let img = &images(1)[0];
    // A 1 µs budget is gone long before the coalescing window closes.
    let expired = client.classify(request(1, 1, img)).expect("round trip");
    assert_eq!(expired.status, Status::DeadlineExpired);
    let mut unknown = request(2, 0, img);
    unknown.model = "missing".to_string();
    let resp = client.classify(unknown).expect("round trip");
    assert_eq!(resp.status, Status::UnknownModel);
    assert!(resp.error.contains("missing") && resp.error.contains("tiny"));
    // Shape mismatch is a bad request, not a panic.
    let bad = ClassifyRequest {
        request_id: 3,
        model: "tiny".to_string(),
        seed: 0,
        deadline_us: 0,
        image: Tensor::zeros(vec![1, 5, 5]),
    };
    let resp = client.classify(bad).expect("round trip");
    assert_eq!(resp.status, Status::BadRequest);
    assert!(resp.error.contains('5'));
    let snap = server.stats();
    assert_eq!(snap.deadline_expired, 1);
    assert_eq!(snap.rejected_unknown_model, 1);
    assert_eq!(snap.rejected_bad_request, 1);
    server.shutdown();
}

#[test]
fn hot_swap_between_admission_and_dispatch_rejects_typed() {
    // A long coalescing window holds an admitted 8×8 request in the queue
    // while the model is swapped for a 6×6 one. The dispatcher answers it
    // once with a typed rejection against the plan it runs, and keeps
    // serving the new shape.
    let config = ServeConfig {
        max_delay_us: 400_000,
        dispatch_workers: 1,
        ..ServeConfig::default()
    };
    let (server, registry) = start_server(config);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.classify_send(request(1, 0, &images(1)[0])).expect("send");
    let sent = Instant::now();
    while server.stats().queue_depth == 0 {
        assert!(sent.elapsed() < Duration::from_secs(5), "request never queued");
        thread::sleep(Duration::from_millis(1));
    }
    let spec = NetworkSpec::tiny(6);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 3);
    let small = CompiledNetwork::from_model(&spec, &mut model, 8);
    registry.install("tiny", &small, STREAM_LEN, Platform::Aqfp);
    let resp = recv_classify(&mut client);
    assert_eq!((resp.request_id, resp.status), (1, Status::BadRequest));
    assert!(resp.error.contains('8') && resp.error.contains('6'), "{}", resp.error);
    let ok = client.classify(request(2, 0, &Tensor::zeros(vec![1, 6, 6]))).expect("round trip");
    assert_eq!((ok.request_id, ok.status), (2, Status::Ok));
    let snap = server.stats();
    assert_eq!((snap.rejected_bad_request, snap.completed), (1, 1));
    server.shutdown();
}

#[test]
fn admission_control_bounds_the_queue() {
    let config = ServeConfig {
        queue_capacity: 2,
        max_delay_us: 500_000,
        dispatch_workers: 1,
        ..ServeConfig::default()
    };
    let (server, _registry) = start_server(config);
    let imgs = images(6);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for id in 0..6u64 {
        client
            .classify_send(request(id, 0, &imgs[id as usize]))
            .expect("send");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..6 {
        match recv_classify(&mut client).status {
            Status::Ok => ok += 1,
            Status::Overloaded => overloaded += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!((ok, overloaded), (2, 4));
    assert_eq!(server.stats().rejected_overload, 4);
    server.shutdown();
}

#[test]
fn stats_snapshot_is_consistent_over_the_wire() {
    let (server, _registry) = start_server(ServeConfig::default());
    let imgs = images(8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ids: Vec<u64> = (0..8).collect();
    let responses = burst(&mut client, &ids, &imgs);
    assert!(responses.values().all(|r| r.status == Status::Ok));
    let json = client.stats().expect("stats");
    assert_eq!(stats_field(&json, "received"), Some(8.0));
    assert_eq!(stats_field(&json, "completed"), Some(8.0));
    assert_eq!(stats_field(&json, "queue_depth"), Some(0.0));
    assert_eq!(stats_field(&json, "exact_requests"), Some(8.0));
    assert!(stats_field(&json, "dispatches").expect("field") >= 1.0);
    assert!(stats_field(&json, "avg_lanes").expect("field") > 0.0);
    assert!(stats_field(&json, "avg_batch").expect("field") >= 1.0);
    assert!(stats_field(&json, "latency_p50_us").expect("field") > 0.0);
    // The wire snapshot and the handle snapshot agree on the counters.
    let snap = server.stats();
    assert_eq!(snap.received, 8);
    assert_eq!(snap.completed, 8);
    assert_eq!(snap.to_json().len(), json.len());
    server.shutdown();
}
