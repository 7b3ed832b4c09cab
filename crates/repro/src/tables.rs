//! One function per paper table/figure.

use aqfp_sc_bitstream::{BitSource, ThermalRng};
use aqfp_sc_circuit::{AqfpTech, BlockCost, CmosTech, CostComparison};
use aqfp_sc_core::accuracy::{
    categorize_inaccuracy, feature_inaccuracy, feature_response, feature_response_curve,
    pooling_inaccuracy,
};
use aqfp_sc_core::baseline;
use aqfp_sc_core::{MajorityChain, SngBlock};
use aqfp_sc_network::{
    build_model, network_cost, run_table9, ActivationStyle, ChunkSchedule, CompiledNetwork,
    ExecPlan, ExitPolicy, InferenceEngine, ModelRegistry, NetworkSpec, Platform, StreamingEngine,
    Table9Config, ARTIFACT_VERSION,
};
use aqfp_sc_nn::Tensor;
use aqfp_sc_sorting::{Direction, SortingNetwork};

use crate::Mode;

const STREAM_LENGTHS: [usize; 5] = [128, 256, 512, 1024, 2048];
const SEED: u64 = 0x15CA_2019;

fn trials(mode: Mode, default: usize) -> usize {
    match mode {
        Mode::Quick => (default / 4).max(2),
        Mode::Default => default,
        Mode::Full => default * 4,
    }
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Table 1: absolute inaccuracy of the sorter-based feature extraction.
pub fn table1(mode: Mode) {
    header("Table 1: absolute inaccuracy of the feature-extraction block");
    let paper: [(usize, [f64; 5]); 5] = [
        (9, [0.1131, 0.0847, 0.0676, 0.0573, 0.0511]),
        (25, [0.1278, 0.0896, 0.0674, 0.0536, 0.0434]),
        (49, [0.1267, 0.0954, 0.0705, 0.0528, 0.0468]),
        (81, [0.1290, 0.0937, 0.0685, 0.0531, 0.0396]),
        (121, [0.1359, 0.0942, 0.0654, 0.0513, 0.0374]),
    ];
    println!("input |  N    | paper   | measured");
    for (m, paper_row) in paper {
        for (i, &n) in STREAM_LENGTHS.iter().enumerate() {
            let measured = feature_inaccuracy(m, n, trials(mode, 20), SEED + m as u64);
            println!("{m:5} | {n:5} | {:6.4}  | {measured:6.4}", paper_row[i]);
        }
    }
}

/// Table 2: absolute inaccuracy of the sorter-based average pooling.
pub fn table2(mode: Mode) {
    header("Table 2: absolute inaccuracy of the average-pooling block");
    let paper: [(usize, [f64; 5]); 5] = [
        (4, [0.0249, 0.0163, 0.0115, 0.0085, 0.0058]),
        (9, [0.0173, 0.0112, 0.0079, 0.0055, 0.0039]),
        (16, [0.0141, 0.0089, 0.0061, 0.0042, 0.0030]),
        (25, [0.0122, 0.0078, 0.0049, 0.0033, 0.0024]),
        (36, [0.0105, 0.0065, 0.0043, 0.0029, 0.0019]),
    ];
    println!("input |  N    | paper   | measured");
    for (m, paper_row) in paper {
        for (i, &n) in STREAM_LENGTHS.iter().enumerate() {
            let measured = pooling_inaccuracy(m, n, trials(mode, 24), SEED + m as u64);
            println!("{m:5} | {n:5} | {:6.4}  | {measured:6.4}", paper_row[i]);
        }
    }
}

/// Table 3: relative inaccuracy of the majority-chain categorization.
pub fn table3(mode: Mode) {
    header("Table 3: relative inaccuracy of the categorization block (%)");
    let paper: [(usize, [f64; 5]); 4] = [
        (100, [0.3718, 0.2198, 0.1235, 0.0620, 0.0376]),
        (200, [0.2708, 0.2106, 0.1671, 0.0743, 0.0301]),
        (500, [0.2769, 0.2374, 0.1201, 0.0687, 0.0393]),
        (800, [0.2780, 0.1641, 0.1269, 0.0585, 0.0339]),
    ];
    println!("input |  N    | paper %  | measured %");
    for (k, paper_row) in paper {
        for (i, &n) in STREAM_LENGTHS.iter().enumerate() {
            let measured = categorize_inaccuracy(k, n, trials(mode, 40), SEED + k as u64);
            println!("{k:5} | {n:5} | {:7.4}  | {measured:7.4}", paper_row[i]);
        }
    }
}

fn print_hw_row(label: usize, paper_aqfp: f64, paper_cmos: f64, cmp: &CostComparison) {
    println!(
        "{label:5} | {:9.3e} (paper {paper_aqfp:9.3e}) | {:9.3} (paper {paper_cmos:9.3}) | {:8.2e}x | {:6.2} ns vs {:8.1} ns",
        cmp.aqfp.energy_pj(),
        cmp.cmos.energy_pj(),
        cmp.energy_ratio(),
        cmp.aqfp.latency_ns(),
        cmp.cmos.stream_time_s * 1e9,
    );
}

/// Table 4: SNG hardware utilisation.
pub fn table4() {
    header("Table 4: SNG block, AQFP vs CMOS (energy pJ per 1024-bit stream)");
    let aqfp = AqfpTech::default();
    let cmos = CmosTech::default();
    let n = 1024u64;
    println!("size  | AQFP pJ               | CMOS pJ             | ratio    | latency");
    for (outputs, paper_aqfp, paper_cmos) in
        [(100usize, 9.7e-5, 14.42), (500, 4.85e-4, 72.11), (800, 7.76e-4, 115.4)]
    {
        let block = SngBlock::new(outputs, 10, SEED);
        let comparator = SngBlock::comparator_netlist(10, 512);
        let jj_per = comparator.report.jj_after
            + (block.rng_cell_count() as u64 * 2 * 3) / outputs as u64; // cells + sharing splitters, amortised
        let aqfp_cost = aqfp.block_cost_from_counts(jj_per * outputs as u64, comparator.netlist.depth(), n);
        let counts = baseline::cmos_sng_counts(10);
        let mut scaled = counts;
        scaled.dff *= outputs as u64;
        scaled.xnor *= outputs as u64;
        scaled.comparator_bits *= outputs as u64;
        let cmos_cost = cmos.block_cost(&scaled, 4, n);
        print_hw_row(outputs, paper_aqfp, paper_cmos, &CostComparison { aqfp: aqfp_cost, cmos: cmos_cost });
    }
}

fn fe_comparison(m: usize, n: u64) -> CostComparison {
    let aqfp = AqfpTech::default();
    let cmos = CmosTech::default();
    // Analytic JJ model (same as network cost aggregation).
    let rows = m + 1; // bias row
    let sorter = SortingNetwork::bitonic_sorter(if rows.is_multiple_of(2) { rows + 1 } else { rows }, Direction::Ascending);
    let merger = SortingNetwork::bitonic_merger(2 * sorter.wires(), Direction::Descending);
    let jj = 20 * (sorter.op_count() + merger.op_count()) as u64 + 28 * rows as u64;
    let depth = 2 * (sorter.depth() + merger.depth()) as u32 + 3;
    let aqfp_cost = aqfp.block_cost_from_counts(jj, depth, n);
    let counts = baseline::cmos_feature_counts(rows, 10);
    let cmos_cost = cmos.block_cost(&counts, baseline::cmos_feature_levels(rows), n);
    CostComparison { aqfp: aqfp_cost, cmos: cmos_cost }
}

/// Table 5: feature-extraction block hardware utilisation.
pub fn table5() {
    header("Table 5: feature-extraction block, AQFP vs CMOS (1024-bit stream)");
    println!("size  | AQFP pJ               | CMOS pJ             | ratio    | latency");
    for (m, paper_aqfp, paper_cmos) in [
        (9usize, 2.972e-4, 320.819),
        (25, 1.35e-3, 520.704),
        (49, 3.978e-3, 843.469),
        (81, 9.168e-3, 1099.776),
        (121, 1.333e-2, 2948.496),
        (500, 9.147e-2, 6807.552),
        (800, 0.186, 9804.8),
    ] {
        let cmp = fe_comparison(m, 1024);
        print_hw_row(m, paper_aqfp, paper_cmos, &cmp);
    }
}

/// Table 6: sub-sampling (pooling) block hardware utilisation.
pub fn table6() {
    header("Table 6: average-pooling block, AQFP vs CMOS (1024-bit stream)");
    let aqfp = AqfpTech::default();
    let cmos = CmosTech::default();
    println!("size  | AQFP pJ               | CMOS pJ             | ratio    | latency");
    for (m, paper_aqfp, paper_cmos) in [
        (4usize, 5.898e-5, 18.432),
        (9, 3.007e-4, 21.504),
        (16, 9.063e-4, 23.552),
        (25, 1.359e-3, 24.576),
        (36, 2.946e-3, 32.768),
    ] {
        let sorter = SortingNetwork::bitonic_sorter(m, Direction::Ascending);
        let merger = SortingNetwork::bitonic_merger(2 * m, Direction::Descending);
        let jj = 20 * (sorter.op_count() + merger.op_count()) as u64 + 12;
        let depth = 2 * (sorter.depth() + merger.depth()) as u32 + 1;
        let aqfp_cost = aqfp.block_cost_from_counts(jj, depth, 1024);
        let counts = baseline::cmos_pooling_counts(m);
        let cmos_cost = cmos.block_cost(&counts, baseline::cmos_pooling_levels(m), 1024);
        print_hw_row(m, paper_aqfp, paper_cmos, &CostComparison { aqfp: aqfp_cost, cmos: cmos_cost });
    }
}

/// Table 7: categorization block hardware utilisation.
pub fn table7() {
    header("Table 7: categorization block, AQFP vs CMOS (1024-bit stream)");
    let aqfp = AqfpTech::default();
    let cmos = CmosTech::default();
    println!("size  | AQFP pJ               | CMOS pJ             | ratio    | latency");
    for (k, paper_aqfp, paper_cmos) in [
        (100usize, 1.008e-2, 7825.408),
        (200, 3.957e-2, 17131.22),
        (500, 0.244, 37396.48),
        (800, 0.624, 58880.409),
    ] {
        let m = if k % 2 == 0 { k + 1 } else { k };
        let links = ((m - 1) / 2) as u64;
        let jj = links * 6 + links * (links + 1) * 2 + 28 * k as u64;
        let depth = links as u32 + 3;
        let aqfp_cost = aqfp.block_cost_from_counts(jj, depth, 1024);
        let counts = baseline::cmos_categorize_counts(k);
        let cmos_cost = cmos.block_cost(&counts, baseline::cmos_categorize_levels(k), 1024);
        print_hw_row(k, paper_aqfp, paper_cmos, &CostComparison { aqfp: aqfp_cost, cmos: cmos_cost });
    }
}

/// Table 8: the layer configuration (printed for reference).
pub fn table8() {
    header("Table 8: DNN layer configuration");
    for spec in [NetworkSpec::snn(), NetworkSpec::dnn()] {
        println!("{}:", spec.name);
        let shapes = spec.shapes();
        for (i, layer) in spec.layers.iter().enumerate() {
            println!("  {layer:?} -> {:?}", shapes[i + 1]);
        }
    }
}

/// Table 9: network performance comparison.
pub fn table9(mode: Mode) {
    header("Table 9: network performance comparison");
    let config = match mode {
        Mode::Quick => Table9Config {
            train: 600,
            test: 200,
            sc_test: 10,
            epochs: 2,
            include_dnn: false,
            model_dir: Some(std::path::PathBuf::from("target/models")),
            ..Table9Config::default()
        },
        Mode::Default => Table9Config {
            model_dir: Some(std::path::PathBuf::from("target/models")),
            ..Table9Config::default()
        },
        Mode::Full => Table9Config {
            train: 8000,
            test: 2000,
            sc_test: 200,
            epochs: 8,
            model_dir: Some(std::path::PathBuf::from("target/models")),
            ..Table9Config::default()
        },
    };
    println!("(paper: SNN sw 99.04% / cmos 97.35% 39.46uJ 231img/ms / aqfp 97.91% 5.606e-4uJ 8305img/ms)");
    println!("(paper: DNN sw 99.17% / cmos 96.62% 219.37uJ 229img/ms / aqfp 96.95% 2.482e-3uJ 6667img/ms)");
    let rows = run_table9(&config);
    println!("network | platform | accuracy | energy (uJ) | throughput (img/ms)");
    for row in rows {
        println!(
            "{:7} | {:8} | {:7.2}% | {:11} | {}",
            row.network,
            row.platform,
            row.accuracy * 100.0,
            row.energy_uj
                .map(|e| format!("{e:9.3e}"))
                .unwrap_or_else(|| "-".into()),
            row.throughput_img_per_ms
                .map(|t| format!("{t:8.1}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
}

/// Streaming chunked-N early-exit inference: the paper's accuracy-vs-N
/// tradeoff (§V) with progressive precision — every image consumes only as
/// many cycles as its decision needs. The batches run through the
/// lane-group scheduler, which also reports the stripe occupancy it
/// sustained; `threads` sizes the worker pool.
pub fn streaming(mode: Mode, threads: Option<usize>) {
    header("Streaming early-exit inference: accuracy vs average cycles consumed");
    let samples_n = trials(mode, 60);
    let train_n = trials(mode, 240);
    // Train + quantise the tiny spec on 8x8 crops of the synthetic digits
    // (the bit-level pipeline at repro-friendly sizes).
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 5);
    let crop = |img: &aqfp_sc_nn::Tensor| {
        let mut small = Tensor::zeros(vec![1, 8, 8]);
        for y in 0..8 {
            for x in 0..8 {
                small.data_mut()[y * 8 + x] = img.at3(0, 2 + y * 3, 2 + x * 3);
            }
        }
        small
    };
    let train: Vec<(Tensor, usize)> = aqfp_sc_data::synthetic_digits(train_n, 9)
        .iter()
        .map(|(img, l)| (crop(img), *l))
        .collect();
    for _ in 0..12 {
        model.train_epoch(&train, 0.05, 0.9, 16);
    }
    let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
    let samples: Vec<(Tensor, usize)> = aqfp_sc_data::synthetic_digits(samples_n, 77)
        .iter()
        .map(|(img, l)| (crop(img), *l))
        .collect();
    let z = 2.5;
    let mk_engine = |n: usize| {
        let engine = InferenceEngine::new(&compiled, n, Platform::Aqfp);
        match threads {
            Some(t) => engine.with_threads(t),
            None => engine,
        }
    };
    println!("policy: margin z={z} (exit when top-2 margin ≥ z·σ(t)), chunk = N/8, floor N/8");
    // Lane-occupancy capacity: the scheduler targets `64·W` lanes per
    // group at the platform's stripe width.
    let cap = 64 * aqfp_sc_network::stripe_width(Platform::Aqfp);
    println!("   N   | fixed-N acc | stream acc | avg cycles | savings | early-exit | avg lanes/{cap}");
    let mut headline: Option<(f64, f64)> = None;
    for n in [256usize, 512, 1024] {
        let engine = mk_engine(n);
        let fixed = engine.evaluate(&samples, SEED).expect("non-empty sample set");
        let chunk = n / 8;
        let streaming = StreamingEngine::new(&engine, chunk)
            .with_policy(ExitPolicy::Margin { z })
            .with_min_cycles(chunk);
        let (eval, stats) = streaming.evaluate_with_stats(&samples, SEED);
        let eval = eval.expect("non-empty sample set");
        let savings = eval.cycle_savings(n);
        // Mean live lanes per kernel advance step against the `64·W`
        // stripe capacity: how dense retire-and-refill kept the stripe. A
        // batch smaller than the capacity (or split across workers) caps
        // the reachable occupancy at each worker's share. With several
        // workers it also depends on which images each one drew from the
        // shared cursor, so it can differ between runs; no other column
        // can.
        let lanes = stats.avg_lanes();
        println!(
            "{n:6} | {:10.2}% | {:9.2}% | {:10.1} | {:6.1}% | {:9.1}% | {lanes:5.1} ({:3.0}%)",
            fixed * 100.0,
            eval.accuracy * 100.0,
            eval.avg_cycles,
            savings * 100.0,
            eval.early_exit_fraction * 100.0,
            lanes * 100.0 / cap as f64,
        );
        if n == 1024 {
            headline = Some((fixed - eval.accuracy, savings));
        }
    }
    if let Some((loss, savings)) = headline {
        // −0.0 from an exact accuracy match reads as a loss; normalise it.
        let delta_pt = -loss * 100.0 + 0.0;
        println!(
            "headline (N=1024): {:.1}% average cycle savings at {delta_pt:+.2} pt accuracy delta{}",
            savings * 100.0,
            if savings >= 0.25 && loss <= 0.005 { "  [meets ≥25% @ ≤0.5 pt]" } else { "" },
        );
    }
    // Chunk-schedule comparison: the schedule moves the policy
    // checkpoints (never the bits) — geometric growth starts with small
    // chunks so confident images get early exit opportunities sooner,
    // then grows so long-running ambiguous images pay fewer per-chunk
    // overheads.
    {
        let n = 1024usize;
        let engine = mk_engine(n);
        println!("chunk-schedule comparison (N={n}, margin z={z}, floor {}):", n / 16);
        println!("  schedule               | stream acc | avg cycles | savings | chunks/img");
        let schedules = [
            ("fixed n/8 (128)", ChunkSchedule::fixed(n / 8)),
            ("fixed n/16 (64)", ChunkSchedule::fixed(n / 16)),
            ("geometric 64*2^i..256", ChunkSchedule::geometric(n / 16, 2.0, n / 4)),
        ];
        let images: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
        for (name, schedule) in schedules {
            let streaming = StreamingEngine::new(&engine, n / 16)
                .with_schedule(schedule)
                .with_policy(ExitPolicy::Margin { z })
                .with_min_cycles(n / 16);
            // One batch sweep per schedule; every stat derives from it.
            let outcomes = streaming.classify_batch(&images, SEED);
            let correct = outcomes
                .iter()
                .zip(&samples)
                .filter(|(o, (_, want))| o.class == *want)
                .count();
            let total_cycles: usize = outcomes.iter().map(|o| o.cycles).sum();
            let chunks: usize = outcomes.iter().map(|o| o.chunks).sum();
            let count = samples.len() as f64;
            let avg_cycles = total_cycles as f64 / count;
            println!(
                "  {name:22} | {:9.2}% | {avg_cycles:10.1} | {:6.1}% | {:10.2}",
                correct as f64 / count * 100.0,
                (1.0 - avg_cycles / n as f64) * 100.0,
                chunks as f64 / count,
            );
        }
    }
    // Bit-identity spot check: the full-N streaming run with the policy
    // disabled must reproduce the one-shot engine exactly.
    let n = 512;
    let engine = mk_engine(n);
    let streaming = StreamingEngine::new(&engine, 67); // deliberately odd chunks
    let img = &samples[0].0;
    let seed = InferenceEngine::image_seed(SEED, 0);
    assert_eq!(
        streaming.classify(img, seed).scores,
        engine.scores(img, seed),
        "streaming at full N must be bit-identical to the one-shot engine"
    );
    println!("(verified: full-N streaming with exit disabled is bit-identical to one-shot)");
}

/// The value following `flag` (e.g. `--save PATH`), if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The deterministic demo model of the artifact segment: the same spec,
/// init seed, quantisation width, and stream seed reproduce the identical
/// [`CompiledNetwork`] — and therefore the identical content fingerprint —
/// in any invocation of this binary. That is what lets `--verify` check a
/// file written by a *different process* against an in-process rebuild.
fn artifact_network(bits: u32) -> CompiledNetwork {
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 5);
    CompiledNetwork::from_model(&spec, &mut model, bits).with_stream_seed(SEED)
}

fn artifact_image(variant: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 8, 8],
        (0..64).map(|p| ((p * (variant + 3)) % 11) as f32 / 11.0).collect(),
    )
}

/// Best-of-`reps` wall time of `f` — robust against scheduler noise on
/// small machines, unlike a mean.
fn best_of(reps: usize, mut f: impl FnMut()) -> std::time::Duration {
    (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("at least one rep")
}

/// Model artifacts: versioned on-disk round trip, content fingerprints,
/// and the multi-model registry.
///
/// `--save PATH` writes the deterministic demo model and exits;
/// `--verify PATH` loads a previously saved artifact, rebuilds the same
/// model in-process, and asserts fingerprint equality, bit-identical
/// classification on both platforms, and that loading beats plan
/// construction by ≥5× — the cross-process half of the round-trip CI check.
pub fn artifact(mode: Mode, args: &[String]) {
    if let Some(path) = flag_value(args, "--save") {
        let net = artifact_network(8);
        if let Err(e) = net.save(path) {
            eprintln!("save failed: {e}");
            std::process::exit(1);
        }
        println!(
            "saved {path}: format v{ARTIFACT_VERSION}, {} bytes, fingerprint {}",
            net.to_artifact_bytes().len(),
            net.fingerprint()
        );
        return;
    }
    if let Some(path) = flag_value(args, "--verify") {
        verify_artifact(mode, path);
        return;
    }

    header("Model artifacts: versioned round trip, fingerprints, registry hot-swap");
    let net = artifact_network(8);
    let bytes = net.to_artifact_bytes();
    let loaded = CompiledNetwork::from_artifact_bytes(&bytes).expect("fresh bytes decode");
    assert_eq!(loaded.to_artifact_bytes(), bytes, "encode∘decode must be byte-identical");
    println!(
        "format v{ARTIFACT_VERSION}: {} bytes, fingerprint {}",
        bytes.len(),
        net.fingerprint()
    );
    println!("(encode -> decode -> encode verified byte-identical)");

    // The identity hole the content fingerprint closes: twins that agree on
    // every structural count but cache different weight streams.
    let seed_twin = net.clone().with_stream_seed(SEED ^ 0xDEAD);
    let bits_twin = artifact_network(7);
    println!("stream-seed twin:   {}", seed_twin.fingerprint());
    println!("7-bit quantisation: {}", bits_twin.fingerprint());
    assert_ne!(net.fingerprint(), seed_twin.fingerprint());
    assert_ne!(net.fingerprint(), bits_twin.fingerprint());

    // Bit-identity of the loaded model across both platforms.
    let n = 512;
    let images: Vec<Tensor> = (0..trials(mode, 4)).map(artifact_image).collect();
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let want = InferenceEngine::new(&net, n, platform).scores_batch(&images, SEED);
        let got = InferenceEngine::new(&loaded, n, platform).scores_batch(&images, SEED);
        assert_eq!(got, want, "{platform:?}: loaded artifact diverged");
    }
    println!("loaded model classifies bit-identically on Aqfp and Cmos (N={n})");

    // Registry: load from disk, serve engines, hot-swap under a live handle.
    let dir = std::env::temp_dir().join("aqfp_repro_artifact");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiny.ascm");
    net.save(&path).expect("save");
    let registry = ModelRegistry::new();
    registry.load("tiny", &path, n, Platform::Aqfp).expect("registry load");
    let engine_v1 = registry.engine("tiny").expect("registered");
    let image = artifact_image(0);
    println!(
        "registry[\"tiny\"] -> class {} (model {})",
        engine_v1.classify(&image, SEED),
        registry.fingerprint("tiny").expect("registered").model
    );
    registry.install("tiny", &seed_twin, n, Platform::Aqfp);
    println!(
        "hot-swapped to seed twin -> class {} (model {}); pre-swap engine still serves class {}",
        registry.engine("tiny").expect("registered").classify(&image, SEED),
        registry.fingerprint("tiny").expect("registered").model,
        engine_v1.classify(&image, SEED),
    );

    // Why artifacts: loading skips training and quantisation entirely, and
    // decode is cheap next to the weight-stream generation a plan pays.
    let reps = trials(mode, 10);
    let load = best_of(reps, || {
        std::hint::black_box(CompiledNetwork::load(&path).expect("load"));
    });
    let construct = best_of(reps, || {
        std::hint::black_box(ExecPlan::new(&net, n, Platform::Aqfp));
    });
    println!(
        "artifact load {:.3} ms vs plan construction {:.3} ms ({:.0}x)",
        load.as_secs_f64() * 1e3,
        construct.as_secs_f64() * 1e3,
        construct.as_secs_f64() / load.as_secs_f64().max(1e-12),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `--verify` arm of [`artifact`]: every check is an assert, so a CI
/// step fails loudly on any divergence.
fn verify_artifact(mode: Mode, path: &str) {
    header("Artifact verification: cross-process load vs in-process compilation");
    let loaded = match CompiledNetwork::load(path) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("load failed: {e}");
            std::process::exit(1);
        }
    };
    let net = artifact_network(8);
    assert_eq!(
        loaded.fingerprint(),
        net.fingerprint(),
        "artifact was not produced by this binary's deterministic demo model"
    );
    println!("fingerprint {} matches the in-process rebuild", net.fingerprint());

    let n = 512;
    let images: Vec<Tensor> = (0..trials(mode, 8)).map(artifact_image).collect();
    for platform in [Platform::Aqfp, Platform::Cmos] {
        let want = InferenceEngine::new(&net, n, platform).scores_batch(&images, SEED);
        let got = InferenceEngine::new(&loaded, n, platform).scores_batch(&images, SEED);
        assert_eq!(got, want, "{platform:?}: loaded artifact diverged from in-process model");
        println!("{platform:?}: {} images bit-identical at N={n}", images.len());
    }

    let reps = trials(mode, 10);
    let load = best_of(reps, || {
        std::hint::black_box(CompiledNetwork::load(path).expect("load"));
    });
    let construct = best_of(reps, || {
        std::hint::black_box(ExecPlan::new(&net, n, Platform::Aqfp));
    });
    let ratio = construct.as_secs_f64() / load.as_secs_f64().max(1e-12);
    println!(
        "artifact_load {:.3} ms vs engine_construction {:.3} ms -> {ratio:.0}x",
        load.as_secs_f64() * 1e3,
        construct.as_secs_f64() * 1e3,
    );
    assert!(
        ratio >= 5.0,
        "artifact load must beat plan construction by >=5x, got {ratio:.1}x"
    );
    println!("[ok] load is {ratio:.0}x faster than plan construction (>=5x required)");
}

/// Fig. 7b: output distribution of the 1-bit true RNG.
pub fn fig7b() {
    header("Fig. 7b: 1-bit true-RNG output distribution (zero input current)");
    let mut rng = ThermalRng::with_seed(SEED);
    let draws = 100_000usize;
    let ones = (0..draws).filter(|_| rng.next_bit()).count();
    println!("draws {draws}: ones {:.3}%  zeros {:.3}%  (expect ~50/50)",
        100.0 * ones as f64 / draws as f64,
        100.0 * (draws - ones) as f64 / draws as f64);
    // A biased cell for contrast (asymmetric excitation flux).
    let mut biased = ThermalRng::with_bias(SEED, 0.7);
    let ones = (0..draws).filter(|_| biased.next_bit()).count();
    println!("biased cell (0.7): ones {:.3}%", 100.0 * ones as f64 / draws as f64);
}

/// Fig. 10/11: bitonic sorter structures (schedule statistics).
pub fn fig11() {
    header("Fig. 10/11: bitonic sorter schedules (even and odd sizes)");
    println!("  n   | compare-exchanges | depth (stages)");
    for n in [8usize, 9, 16, 25, 49, 81, 121] {
        let net = SortingNetwork::bitonic_sorter(n, Direction::Descending);
        println!("{n:5} | {:17} | {}", net.op_count(), net.depth());
    }
    println!("(odd sizes use the arbitrary-size construction; see DESIGN.md)");
}

/// Fig. 13: activated output of the feature-extraction block.
pub fn fig13(mode: Mode) {
    header("Fig. 13: activated output of the feature-extraction block (M=25)");
    let n = match mode {
        Mode::Quick => 1024,
        Mode::Default => 4096,
        Mode::Full => 16384,
    };
    println!("target sum | measured (N={n}) | stationary analysis");
    let mut s = -3.0f64;
    while s <= 3.01 {
        let measured = feature_response(25, n, s, SEED + (s * 10.0) as u64);
        let analytic = feature_response_curve(25, s);
        let bar_pos = ((measured + 1.0) * 20.0) as usize;
        let bar: String =
            (0..=40).map(|i| if i == bar_pos { '*' } else { ' ' }).collect();
        println!("{s:10.2} | {measured:8.3}        | {analytic:8.3}  |{bar}|");
        s += 0.5;
    }
    println!("(shifted-ReLU shape: noise-rectified floor left, linear middle, clip at +1)");
}

/// Ablations: majority chain vs exact majority; bitonic vs Batcher cost;
/// synthesis on/off. `threads` overrides the inference-engine worker-pool
/// size in the batched-vs-serial segment (`None`: available parallelism);
/// the worker count never changes results, only wall-clock.
pub fn ablation(mode: Mode, threads: Option<usize>) {
    header("Ablation: majority chain vs exact wide majority (ranking fidelity)");
    let n = 1024;
    let t = trials(mode, 10);
    for k in [25usize, 101] {
        let chain = MajorityChain::new(k);
        let mut chain_err = 0.0;
        let mut rng = ThermalRng::with_seed(SEED);
        for _ in 0..t {
            let values: Vec<f64> = (0..k)
                .map(|_| if rng.next_bit() { 0.4 } else { -0.3 })
                .collect();
            let mut sng = aqfp_sc_bitstream::Sng::new(10, ThermalRng::with_seed(rng.next_word()));
            let streams: Vec<_> = values
                .iter()
                .map(|&v| sng.generate(aqfp_sc_bitstream::Bipolar::clamped(v), n))
                .collect();
            let approx = chain.run(&streams).unwrap().bipolar_value().get();
            let exact = chain.run_exact_majority(&streams).unwrap().bipolar_value().get();
            chain_err += (approx - exact).abs();
        }
        println!("k={k:4}: mean |chain - exact majority| = {:.4}", chain_err / t as f64);
    }

    header("Ablation: bitonic vs Batcher odd-even sorter cost");
    for m in [9usize, 25, 49, 121] {
        let bitonic = SortingNetwork::bitonic_sorter(m, Direction::Descending);
        let batcher = SortingNetwork::batcher_sorter(m, Direction::Descending);
        println!(
            "m={m:4}: bitonic {} CEs depth {} | batcher {} CEs depth {}",
            bitonic.op_count(),
            bitonic.depth(),
            batcher.op_count(),
            batcher.depth()
        );
    }

    header("Ablation: raw vs synthesised/legalised netlist (9-input feature block)");
    let fe = aqfp_sc_core::FeatureExtraction::new(9);
    let result = fe.netlist();
    println!(
        "nodes {} -> {}, JJ {} -> {}, depth {} -> {} phases",
        result.report.nodes_before,
        result.report.nodes_after,
        result.report.jj_before,
        result.report.jj_after,
        result.report.depth_before,
        result.report.depth_after
    );

    header("Ablation: batched engine vs per-image serial SC inference");
    {
        let batch = trials(mode, 8);
        let n = 512;
        let spec = NetworkSpec::tiny(8);
        let mut model = build_model(&spec, ActivationStyle::AqfpFeature, SEED);
        let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
        let images: Vec<Tensor> = (0..batch)
            .map(|i| {
                Tensor::from_vec(
                    vec![1, 8, 8],
                    (0..64).map(|p| ((p * (i + 3)) % 11) as f32 / 11.0).collect(),
                )
            })
            .collect();
        let t0 = std::time::Instant::now();
        let serial: Vec<usize> = images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                compiled.classify_aqfp(img, n, InferenceEngine::image_seed(SEED, i))
            })
            .collect();
        let serial_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let engine = InferenceEngine::new(&compiled, n, Platform::Aqfp);
        let engine = match threads {
            Some(t) => engine.with_threads(t),
            None => engine,
        };
        let batched = engine.classify_batch(&images, SEED);
        let batched_time = t1.elapsed();
        assert_eq!(serial, batched, "batched inference must be bit-identical");
        println!(
            "{batch} images, N={n}: serial {:.1} ms | engine ({} cached streams, {} threads) {:.1} ms | {:.2}x",
            serial_time.as_secs_f64() * 1e3,
            engine.cached_streams(),
            engine.threads(),
            batched_time.as_secs_f64() * 1e3,
            serial_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-12),
        );
    }

    header("Ablation: network-level cost sensitivity to stream length");
    for n in [256u64, 512, 1024, 2048] {
        let cost = network_cost(
            &NetworkSpec::snn(),
            n,
            10,
            &AqfpTech::default(),
            &CmosTech::default(),
            4.0,
        );
        println!(
            "N={n:5}: AQFP {:.3e} uJ {:.0} img/ms | CMOS {:.3} uJ {:.0} img/ms | ratio {:.2e}",
            cost.aqfp.energy_uj(),
            cost.aqfp.throughput_img_per_ms,
            cost.cmos.energy_uj(),
            cost.cmos.throughput_img_per_ms,
            cost.energy_ratio()
        );
    }
    let _ = BlockCost { energy_j: 0.0, latency_s: 0.0, stream_time_s: 0.0 };
}

/// Live-serving demo: a loopback dynamic-batching server over the stripe
/// kernel, exercised with an exact burst (bit-identity verified against
/// the direct engine) and a deadline burst (early-exit cycle savings),
/// with the server's own stats printed at the end.
pub fn serve_demo(mode: Mode) {
    header("Dynamic-batching inference service: live requests on the stripe kernel");
    use aqfp_sc_serve::{ClassifyRequest, Client, Response, ServeConfig, Server, Status};
    use std::sync::Arc;
    use std::time::Instant;
    let stream_len = 512;
    let burst = trials(mode, 96);
    let train_n = trials(mode, 240);
    let spec = NetworkSpec::tiny(8);
    let mut model = build_model(&spec, ActivationStyle::AqfpFeature, 5);
    let crop = |img: &Tensor| {
        let mut small = Tensor::zeros(vec![1, 8, 8]);
        for y in 0..8 {
            for x in 0..8 {
                small.data_mut()[y * 8 + x] = img.at3(0, 2 + y * 3, 2 + x * 3);
            }
        }
        small
    };
    let train: Vec<(Tensor, usize)> = aqfp_sc_data::synthetic_digits(train_n, 9)
        .iter()
        .map(|(img, l)| (crop(img), *l))
        .collect();
    for _ in 0..12 {
        model.train_epoch(&train, 0.05, 0.9, 16);
    }
    let compiled = CompiledNetwork::from_model(&spec, &mut model, 8);
    let images: Vec<Tensor> = aqfp_sc_data::synthetic_digits(burst, 77)
        .iter()
        .map(|(img, _)| crop(img))
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.install("tiny", &compiled, stream_len, Platform::Aqfp);
    let engine = registry.engine("tiny").expect("registered");
    let server = Server::start(Arc::clone(&registry), "127.0.0.1:0", ServeConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    println!("server on {} | model tiny, N={stream_len}, burst {burst}", server.local_addr());

    let mut run_burst = |deadline_us: u32| -> (f64, u64, u64, u64) {
        let t0 = Instant::now();
        for (i, img) in images.iter().enumerate() {
            client
                .classify_send(ClassifyRequest {
                    request_id: i as u64,
                    model: "tiny".to_string(),
                    seed: SEED.wrapping_add(i as u64),
                    deadline_us,
                    image: img.clone(),
                })
                .expect("send");
        }
        let (mut identical, mut cycles, mut exits) = (0u64, 0u64, 0u64);
        for _ in 0..burst {
            let resp = match client.recv().expect("response") {
                Response::Classify(resp) => resp,
                Response::Stats(_) => unreachable!("no stats request in flight"),
            };
            assert_eq!(resp.status, Status::Ok);
            let id = resp.request_id as usize;
            if resp.scores == engine.scores(&images[id], SEED.wrapping_add(resp.request_id)) {
                identical += 1;
            }
            cycles += u64::from(resp.cycles);
            exits += u64::from(resp.early_exit);
        }
        (t0.elapsed().as_secs_f64(), identical, cycles, exits)
    };

    let (wall, identical, cycles, _) = run_burst(0);
    println!(
        "exact burst   : {burst} served in {:.1} ms ({:.0} img/s) | bit-identical to direct engine: {identical}/{burst} | avg cycles {:.0}",
        wall * 1e3,
        burst as f64 / wall,
        cycles as f64 / burst as f64,
    );
    assert_eq!(identical as usize, burst, "serving broke the determinism contract");
    let (wall, _, cycles, exits) = run_burst(5_000_000);
    println!(
        "deadline burst: {burst} served in {:.1} ms ({:.0} img/s) | early exits {exits}/{burst} | avg cycles {:.0}/{stream_len}",
        wall * 1e3,
        burst as f64 / wall,
        cycles as f64 / burst as f64,
    );
    let snap = server.stats();
    println!(
        "server stats  : dispatches {} | avg batch {:.1} | avg lanes {:.1} | p50 {} us | p99 {} us",
        snap.dispatches,
        snap.avg_batch(),
        snap.avg_lanes,
        snap.latency_p50_us,
        snap.latency_p99_us,
    );
    server.shutdown();
}
