//! `serve-snn-light`: the AQFP SNN installed in a `ModelRegistry` behind
//! an in-process loopback `Server` on `ServeConfig::default()`, offered
//! exact-mode requests at `RATE` per second from an open-loop generator.
//!
//! The schedule is built from the seed before the first send: gaps are a
//! `MIN_GAP` floor plus an exponential share, the exponential shares scaled
//! so that every run offers its requests over the same `count / RATE`
//! seconds. One connection carries it: the calling thread sends on
//! schedule and one receiver thread reads the responses. A request's
//! latency runs from its due time to its response, so a stalled generator
//! still charges the stall to the requests it delayed.
//!
//! The floor keeps the workload light. With unbounded Poisson gaps, a
//! request that lands on a busy dispatcher waits out a whole scalar image
//! (or several: a scalar group answers all its lanes at its end), so with
//! about a hundred requests a run's tail latency is set by a few chance
//! collisions and moved 40–65 % between seeds. Above the floor every
//! request finds the dispatcher idle while an image takes less than
//! `MIN_GAP`, and its latency is the scalar `ExecPlan::advance` path plus
//! the serve queue, protocol and dispatch.

use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use aqfp_sc_network::{InferenceEngine, Platform};
use aqfp_sc_nn::Tensor;
use aqfp_sc_serve::{
    decode_response, encode_request, read_frame, write_frame, ClassifyRequest, ClassifyResponse,
    Request, Response, ServerHandle, Status,
};

use crate::offline::same_bits;
use crate::trace::Tracer;
use crate::util::{median, mix, ms};
use crate::{batch, probe, setup, Args, EndToEnd, Layers, Outcome, Traced, MODEL, N};

/// Offered load in requests per second. One SNN image takes 130–300 ms on
/// the scalar path, so one dispatcher is a third to three quarters busy.
pub const RATE: f64 = 2.5;
/// Shortest gap between two sends, in seconds: longer than a scalar image
/// even on a host running at half speed.
const MIN_GAP: f64 = 0.35;
/// Requests per pass never number fewer than this, so that ten responses
/// lie beyond the reported p90.
const MIN_REQUESTS: usize = 100;
/// Responses per pass compared with `InferenceEngine::scores`.
const SAMPLES: usize = 6;
/// How often the traced pass polls `ServerHandle::stats` while it waits to
/// send.
const POLL: Duration = Duration::from_millis(10);
/// A response slower than this means the server has stalled.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

struct Schedule {
    due_s: Vec<f64>,
    images: Vec<Tensor>,
    seeds: Vec<u64>,
}

fn schedule(seed: u64, seconds: f64) -> Schedule {
    let count = MIN_REQUESTS.max((RATE * seconds).ceil() as usize);
    let unit = |i: u64| ((mix(seed, 1 << 32 | i) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let exp: Vec<f64> = (0..count as u64).map(|i| -unit(i).ln()).collect();
    let scale = count as f64 * (1.0 / RATE - MIN_GAP) / exp.iter().sum::<f64>();
    let due_s: Vec<f64> = exp
        .iter()
        .scan(0.0, |t, e| {
            *t += MIN_GAP + e * scale;
            Some(*t)
        })
        .collect();
    let inputs = batch(seed, 1, count);
    let seeds = (0..count)
        .map(|i| InferenceEngine::image_seed(inputs.base, i))
        .collect();
    Schedule {
        due_s,
        images: inputs.images,
        seeds,
    }
}

fn request(id: u64, image: &Tensor, seed: u64) -> Vec<u8> {
    encode_request(&Request::Classify(ClassifyRequest {
        request_id: id,
        model: MODEL.to_string(),
        seed,
        deadline_us: 0,
        image: image.clone(),
    }))
}

fn recv(reader: &mut TcpStream) -> ClassifyResponse {
    let payload = read_frame(reader)
        .expect("read a response")
        .expect("server closed the connection");
    match decode_response(&payload).expect("decode a response") {
        Response::Classify(r) => r,
        Response::Stats(_) => panic!("stats response to a classify request"),
    }
}

/// One pass of the schedule; times are seconds from the pass's start.
struct Pass {
    responses: Vec<ClassifyResponse>,
    latency_ms: Vec<f64>,
    late_s: Vec<f64>,
    wall_s: f64,
    depth_max: usize,
    /// Stats polls made while waiting to send, and their total time.
    polls: (usize, Duration),
    tracer: Option<Tracer>,
}

fn pass(conn: &TcpStream, server: &ServerHandle, sched: &Schedule, trace: bool) -> Pass {
    let count = sched.due_s.len();
    let mut writer = conn.try_clone().expect("clone the connection");
    let mut reader = conn.try_clone().expect("clone the connection");
    reader
        .set_read_timeout(Some(RECV_TIMEOUT))
        .expect("set a read timeout");
    let epoch = Instant::now();
    let (received, sent, depth_max, polls) = thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut got: Vec<Option<(ClassifyResponse, f64)>> = vec![None; count];
            for _ in 0..count {
                let r = recv(&mut reader);
                let at = epoch.elapsed().as_secs_f64();
                let slot = got
                    .get_mut(r.request_id as usize)
                    .expect("a scheduled request id");
                *slot = Some((r, at));
            }
            got
        });
        let mut sent = Vec::with_capacity(count);
        let mut depth_max = 0;
        let mut polls = (0, Duration::ZERO);
        for (i, &due_s) in sched.due_s.iter().enumerate() {
            let due = Duration::from_secs_f64(due_s);
            loop {
                let now = epoch.elapsed();
                if now >= due {
                    break;
                }
                if trace {
                    let t = Instant::now();
                    depth_max = depth_max.max(server.stats().queue_depth);
                    polls = (polls.0 + 1, polls.1 + t.elapsed());
                    thread::sleep((due - now).min(POLL));
                } else {
                    thread::sleep(due - now);
                }
            }
            let start = epoch.elapsed().as_secs_f64();
            write_frame(
                &mut writer,
                &request(i as u64, &sched.images[i], sched.seeds[i]),
            )
            .expect("send a request");
            sent.push((start, epoch.elapsed().as_secs_f64()));
        }
        (
            receiver.join().expect("receiver thread"),
            sent,
            depth_max,
            polls,
        )
    });
    let mut responses = Vec::with_capacity(count);
    let (mut latency_ms, mut late_s) = (Vec::new(), Vec::new());
    let mut wall_s: f64 = 0.0;
    let mut tracer = trace.then(|| Tracer::new(epoch, 1));
    for (i, got) in received.into_iter().enumerate() {
        let (r, at) = got.expect("one response per request");
        let due = sched.due_s[i];
        let (send_start, send_end) = sent[i];
        latency_ms.push((at - due) * 1e3);
        late_s.push(send_start - due);
        wall_s = wall_s.max(at);
        if let Some(tr) = tracer.as_mut() {
            let ns = |s: f64| (s * 1e9) as u64;
            let root = tr.record("loadgen.request", 0, i as u64, ns(due), ns(at));
            tr.record("loadgen.send", root, i as u64, ns(send_start), ns(send_end));
        }
        responses.push(r);
    }
    Pass {
        responses,
        latency_ms,
        late_s,
        wall_s,
        depth_max,
        polls,
        tracer,
    }
}

/// Ok responses per second and the latency of every request.
fn end_to_end(p: &Pass) -> EndToEnd {
    let ok: Vec<&ClassifyResponse> = p
        .responses
        .iter()
        .filter(|r| r.status == Status::Ok)
        .collect();
    let cycles = ok.iter().map(|r| r.cycles as f64).sum::<f64>() / ok.len().max(1) as f64;
    EndToEnd::new(ok.len() as f64 / p.wall_s, &p.latency_ms, cycles)
}

pub fn run(args: &Args) -> Outcome {
    let mut setup = setup(Platform::Aqfp, true);
    let (server, conn) = setup.server.take().expect("serving set-up");
    let engine = setup.registry.engine(MODEL).expect("model registered");
    let probed = args.trace.then(|| probe::run(engine.plan(), args.seed));
    let sched = schedule(args.seed, args.seconds);

    // Warm-up: one round trip before the schedule starts.
    let warm = batch(args.seed, 0, 1);
    let mut c = conn.try_clone().expect("clone the connection");
    write_frame(&mut c, &request(u64::MAX, &warm.images[0], warm.base))
        .expect("send the warm-up request");
    assert_eq!(recv(&mut c).status, Status::Ok, "warm-up request answered");

    // A traced run makes the same pass, polling `ServerHandle::stats`
    // while the generator waits: the polls are all the tracing adds, so
    // their time is the tracing overhead.
    let before = server.stats();
    let mut p = pass(&conn, &server, &sched, args.trace);
    let after = server.stats();
    let count = sched.due_s.len();
    let late_s = p.late_s.iter().cloned().fold(0.0, f64::max);
    // The generator must keep its schedule: a send a whole mean interval
    // late means the offered load was not the one intended.
    if late_s > 1.0 / RATE {
        eprintln!(
            "snnbench: the generator fell {:.1} ms behind its schedule",
            late_s * 1e3
        );
        std::process::exit(1);
    }
    let mut failed = 0u64;
    // The reference runs also time the scalar path right after the pass.
    let mut reference_ms = Vec::new();
    for (i, r) in p.responses.iter().enumerate() {
        if r.status != Status::Ok {
            failed += 1;
        } else if i % (count / SAMPLES) == 0 {
            let t = Instant::now();
            let reference = engine.scores(&sched.images[i], sched.seeds[i]);
            reference_ms.push(ms(t.elapsed()));
            if !same_bits(&reference, &r.scores) || r.cycles as usize != N {
                failed += 1;
            }
        }
    }
    let e2e = end_to_end(&p);

    let traced = probed.map(|probed| {
        let (polls, poll_time) = p.polls;
        println!(
            "# tracing overhead: {polls} stats polls took {:.3} ms of the {:.1} s pass ({:.4} %)",
            ms(poll_time),
            p.wall_s,
            100.0 * poll_time.as_secs_f64() / p.wall_s
        );
        let dispatches = (after.dispatches - before.dispatches).max(1);
        let scalar_ms = median(&reference_ms);
        let mut layers: Layers = probed
            .layers()
            .into_iter()
            .filter(|(n, _)| *n != "plan.scalar_ms_per_img")
            .collect();
        layers.extend(setup.layers());
        layers.extend([
            ("plan.scalar_ms_per_img", scalar_ms),
            ("scheduler.avg_lanes", after.avg_lanes),
            (
                "serve.group_size_mean",
                (after.dispatched_requests - before.dispatched_requests) as f64 / dispatches as f64,
            ),
            ("serve.queue_depth_max", p.depth_max as f64),
            ("serve.server_latency_p99_us", after.latency_p99_us as f64),
            ("serve.overhead_ms_p50", e2e.latency_p50_ms - scalar_ms),
            ("loadgen.late_ms_max", late_s * 1e3),
        ]);
        Traced {
            second_pass: None,
            layers,
            tracers: p.tracer.take().into_iter().collect(),
        }
    });
    drop(conn);
    server.shutdown();
    Outcome {
        setup_s: setup.setup_s,
        attempted: count as u64,
        failed,
        e2e,
        traced,
    }
}
