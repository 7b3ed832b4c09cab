//! End-to-end and per-layer benchmark of the paper's shallow network
//! (`NetworkSpec::snn()`, N = 256, 8-bit weights, untrained weights from a
//! fixed build seed — timing does not depend on weight values).
//!
//! ```text
//! cargo run --release --offline --manifest-path snnbench/Cargo.toml -- \
//!     --workload offline-snn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every workload runs in its own process. `--trace 0` times the public
//! front-end and prints the end-to-end metrics; `--trace 1` re-runs the
//! same inputs through the benchmark's own direct calls into each module,
//! writes the spans to `snnbench/trace/`, checks that both runs produced
//! the same bits, and prints the per-layer metrics. The last line of
//! standard output is one JSON object with the results; the process exits
//! non-zero when any output differs from its scalar reference.

mod offline;
mod probe;
mod serve;
mod stream;
mod trace;
mod util;

use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use aqfp_sc_network::{
    build_model, ActivationStyle, CompiledNetwork, ModelRegistry, NetworkSpec, Platform,
};
use aqfp_sc_nn::Tensor;
use aqfp_sc_serve::{ServeConfig, Server, ServerHandle};

use util::{median, metric, ms, Metric};

/// Registry name of the benchmarked model.
pub const MODEL: &str = "snn";
/// Stream length N in cycles.
pub const N: usize = 256;
const BITS: u32 = 8;
/// Seed of the untrained weights; fixed so every run plans the same model.
const BUILD_SEED: u64 = 2019;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: snnbench --workload <offline-snn|stream-snn-cmos|serve-snn-light> \
                     --seed <u64> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s)
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A model made servable, `SETUP_REPS` times; the last set-up is kept.
pub struct Setup {
    pub registry: Arc<ModelRegistry>,
    /// Serving workload only: the server and the generator's connection,
    /// whose first connect is part of set-up.
    pub server: Option<(ServerHandle, TcpStream)>,
    /// Median seconds from artifact bytes to a servable model.
    pub setup_s: f64,
    pub decode_ms: f64,
    pub build_ms: f64,
    pub start_ms: f64,
}

impl Setup {
    /// The set-up layers' per-layer metrics.
    pub fn layers(&self) -> Layers {
        let mut layers = vec![
            ("artifact.decode_ms", self.decode_ms),
            ("plan.build_ms", self.build_ms),
        ];
        if self.start_ms > 0.0 {
            layers.push(("serve.start_ms", self.start_ms));
        }
        layers
    }
}

/// Decodes the model artifact, builds its plan through a
/// [`ModelRegistry`] and, for serving, starts a loopback [`Server`] and
/// connects to it. The artifact itself is made once, before timing.
pub fn setup(platform: Platform, serve: bool) -> Setup {
    let spec = NetworkSpec::snn();
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, BUILD_SEED);
    let artifact = CompiledNetwork::from_model(&spec, &mut model, BITS).to_artifact_bytes();
    let (mut total, mut decode, mut build, mut start) = (vec![], vec![], vec![], vec![]);
    let mut registry: Option<Arc<ModelRegistry>> = None;
    let mut server: Option<(ServerHandle, TcpStream)> = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down outside the timed region: dropping
        // a plan frees its cached streams.
        if let Some((handle, conn)) = server.take() {
            drop(conn);
            handle.shutdown();
        }
        drop(registry.take());
        let t0 = Instant::now();
        let net = CompiledNetwork::from_artifact_bytes(&artifact).expect("artifact decodes");
        let t1 = Instant::now();
        let installed = Arc::new(ModelRegistry::new());
        installed.install(MODEL, &net, N, platform);
        let t2 = Instant::now();
        server = serve.then(|| {
            let handle = Server::start(
                Arc::clone(&installed),
                "127.0.0.1:0",
                ServeConfig::default(),
            )
            .expect("bind a loopback port");
            let conn = TcpStream::connect(handle.local_addr()).expect("connect to the server");
            (handle, conn)
        });
        let t3 = Instant::now();
        total.push((t3 - t0).as_secs_f64());
        decode.push(ms(t1 - t0));
        build.push(ms(t2 - t1));
        start.push(ms(t3 - t2));
        registry = Some(installed);
    }
    Setup {
        registry: registry.expect("at least one set-up"),
        server,
        setup_s: median(&total),
        decode_ms: median(&decode),
        build_ms: median(&build),
        start_ms: median(&start),
    }
}

/// One batch of inputs: synthetic digits and the base seed their image
/// streams derive from, both functions of the workload seed and `index`.
pub struct Batch {
    pub images: Vec<Tensor>,
    pub base: u64,
}

pub fn batch(seed: u64, index: u64, size: usize) -> Batch {
    let images = aqfp_sc_data::synthetic_digits(size, util::mix(seed, 2 * index + 1))
        .into_iter()
        .map(|(image, _label)| image)
        .collect();
    Batch {
        images,
        base: util::mix(seed, 2 * index + 2),
    }
}

/// Images in the untimed warm-up batch of the batch workloads: two per
/// worker, which runs the worker threads, `begin`, the scalar core and
/// `scores` once. Every batch allocates its lane states and arenas afresh,
/// so a full-size warm-up would prime nothing the timed batches reuse.
pub const WARM_BATCH: usize = 4;
/// Timed batches never number fewer than this, so throughput is a median.
pub const MIN_BATCHES: usize = 2;

/// Whether to time another batch: one in a traced run; otherwise as many
/// as fit in `--seconds`, judged by the mean of those already run, and
/// never fewer than `MIN_BATCHES`.
pub fn another_batch(args: &Args, done: &[f64]) -> bool {
    if args.trace {
        return done.is_empty();
    }
    let spent: f64 = done.iter().sum();
    done.len() < MIN_BATCHES || spent + spent / done.len() as f64 <= args.seconds
}

/// Indices whose outputs are compared against the scalar reference: the
/// first and last image and one drawn from the seed.
pub fn sample_indices(len: usize, seed: u64) -> [usize; 3] {
    [0, len - 1, (util::mix(seed, 99) % len as u64) as usize]
}

/// End-to-end figures of one pass.
pub struct EndToEnd {
    pub img_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub cycles_per_img: f64,
}

impl EndToEnd {
    /// Throughput is given; latency percentiles come from per-image
    /// (per-request) samples in ms.
    pub fn new(img_per_s: f64, latencies_ms: &[f64], cycles_per_img: f64) -> Self {
        EndToEnd {
            img_per_s,
            latency_p50_ms: median(latencies_ms),
            latency_p90_ms: util::percentile(latencies_ms, 0.9),
            cycles_per_img,
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The untraced front-end's figures.
    pub e2e: EndToEnd,
    /// Traced run only.
    pub traced: Option<Traced>,
}

/// Named per-layer figures.
pub type Layers = Vec<(&'static str, f64)>;

/// What a traced run adds: the per-layer metrics, the spans to write out
/// and, when tracing takes a second pass over the untraced pass's inputs,
/// that pass's figures.
pub struct Traced {
    pub second_pass: Option<EndToEnd>,
    pub layers: Layers,
    pub tracers: Vec<trace::Tracer>,
}

/// Every per-layer metric with its unit. A workload reports the layers it
/// runs; a layer off its path reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("artifact.decode_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("plan.begin_us_per_img", "us"),
    ("plan.batch_ns_per_lane_cycle", "ns"),
    ("plan.batch_lanes_mean", "lanes"),
    ("plan.scores_us_per_img", "us"),
    ("plan.mixed_offset_ratio", "ratio"),
    ("plan.mixed_offset_rss_mb", "MB"),
    ("plan.scalar_ms_per_img", "ms"),
    ("engine.worker_busy_share", "fraction"),
    ("scheduler.avg_lanes", "lanes"),
    ("scheduler.steps", "count"),
    ("scheduler.refills", "count"),
    ("scheduler.lane_ms_p50", "ms"),
    ("scheduler.lane_ms_p90", "ms"),
    ("streaming.early_exit_share", "fraction"),
    ("serve.group_size_mean", "requests"),
    ("serve.queue_depth_max", "requests"),
    ("serve.server_latency_p99_us", "us"),
    ("serve.overhead_ms_p50", "ms"),
    ("loadgen.late_ms_max", "ms"),
];

fn e2e_metrics(setup_s: f64, e: &EndToEnd, ok_share: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("img_per_s", e.img_per_s, "img/s"),
        metric("latency_p50_ms", e.latency_p50_ms, "ms"),
        metric("latency_p90_ms", e.latency_p90_ms, "ms"),
        metric("cycles_per_img", e.cycles_per_img, "cycles/img"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("ok_share", ok_share, "fraction"),
    ]
}

/// Prints the untraced and the traced pass side by side: the difference is
/// the tracing overhead.
fn print_overhead(args: &Args, plain: &EndToEnd, traced: &EndToEnd) {
    println!(
        "# {} seed {}: untraced vs traced pass over the same inputs",
        args.workload, args.seed
    );
    println!(
        "#   {:<16} {:>12} {:>12} {:>9}",
        "metric", "untraced", "traced", "overhead"
    );
    let pairs = [
        ("img_per_s", plain.img_per_s, traced.img_per_s, true),
        (
            "latency_p50_ms",
            plain.latency_p50_ms,
            traced.latency_p50_ms,
            false,
        ),
        (
            "latency_p90_ms",
            plain.latency_p90_ms,
            traced.latency_p90_ms,
            false,
        ),
        (
            "cycles_per_img",
            plain.cycles_per_img,
            traced.cycles_per_img,
            false,
        ),
    ];
    for (name, plain, traced, higher_better) in pairs {
        let cost = if higher_better {
            plain / traced - 1.0
        } else {
            traced / plain - 1.0
        };
        println!(
            "#   {name:<16} {plain:>12.3} {traced:>12.3} {:>8.2}%",
            100.0 * cost
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("snnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "offline-snn" => offline::run(&args),
        "stream-snn-cmos" => stream::run(&args),
        "serve-snn-light" => serve::run(&args),
        other => {
            eprintln!("snnbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let peak_rss_mb = util::status_mb("VmHWM");
    let ok_share =
        outcome.attempted.saturating_sub(outcome.failed) as f64 / outcome.attempted as f64;
    let correct = outcome.failed == 0;
    let metrics = match &outcome.traced {
        None => e2e_metrics(outcome.setup_s, &outcome.e2e, ok_share, peak_rss_mb),
        Some(Traced {
            second_pass,
            layers,
            tracers,
        }) => {
            if let Some(traced) = second_pass {
                print_overhead(&args, &outcome.e2e, traced);
            }
            let path = PathBuf::from(format!(
                "snnbench/trace/{}-seed{}.jsonl",
                args.workload, args.seed
            ));
            match trace::write_spans(&path, tracers) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => {
                    eprintln!("snnbench: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            for (name, _) in layers {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "unlisted per-layer metric {name}"
                );
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v);
                    metric(name, value, unit)
                })
                .collect()
        }
    };
    println!(
        "{}",
        util::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "snnbench: {} of {} outputs differ from their reference",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
