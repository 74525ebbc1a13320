//! `compress`: Algorithm 1 at paper defaults on a fixed slice of both
//! synthetic models, one matrix at a time, with no inference.
//!
//! The slice mixes a few large matrices (heavy-tailed attention and
//! 896-wide Mixtral experts) with many small ones (64 fine-grained
//! DeepSeek experts and a shared expert), so a speed-up that helps one
//! shape but costs the other shows in the per-matrix latency spread.

use crate::models;
use crate::report::{median_setup, ms_since, quantile, Report};
use milo_core::{milo_compress, CompressedLayer, LayerTensor, MiloOptions};
use milo_moe::{layer_tensors, MoeModel};
use milo_pack::{unpack_group, PackedMatrix};
use milo_quant::hqq_quantize;
use milo_tensor::rng::{Rng, SeedableRng, StdRng};
use milo_tensor::{stats, Matrix};
use std::time::Instant;

/// The matrices of one round with the ranks the policy assigns them.
pub struct Slice {
    /// Weight matrices, in compression order.
    pub tensors: Vec<LayerTensor>,
    /// Rank [`models::policy`] assigns to each matrix.
    pub ranks: Vec<usize>,
}

/// The slice's matrices of the Mixtral-like model: two heavy-tailed
/// attention projections and one expert's `w1`.
const MIXTRAL_NAMES: [&str; 3] = ["layer0.attn.wq", "layer0.attn.wk", "layer0.expert0.w1"];

/// Routed experts of the DeepSeek-like model whose `w1` is in the slice.
const DEEPSEEK_EXPERTS: usize = 32;

/// Whether a DeepSeek-like matrix is in the slice: two attention
/// projections of the MoE layer, a shared expert's and the dense layer's
/// `w1`, and the `w1` of the first [`DEEPSEEK_EXPERTS`] routed experts.
fn deepseek_in_slice(name: &str) -> bool {
    let routed = name
        .strip_prefix("layer1.expert")
        .and_then(|rest| rest.strip_suffix(".w1"))
        .and_then(|e| e.parse::<usize>().ok())
        .is_some_and(|e| e < DEEPSEEK_EXPERTS);
    routed
        || [
            "layer1.attn.wq",
            "layer1.attn.wk",
            "layer1.shared0.w1",
            "layer0.dense.w1",
        ]
        .contains(&name)
}

/// Builds the slice from the two models, in an order shuffled by `seed`:
/// 32 small (64×256), 6 medium (256×256) and 1 large (896×256) matrices,
/// so the per-matrix p50 falls inside the small class and the p90 inside
/// the medium one, not on a boundary between them.
pub fn slice(seed: u64) -> Slice {
    let mixtral = MoeModel::synthesize(&models::mixtral(), models::MODEL_SEED);
    let deepseek = MoeModel::synthesize(&models::deepseek(), models::MODEL_SEED);
    let mut tensors: Vec<LayerTensor> = layer_tensors(&mixtral, None)
        .into_iter()
        .filter(|t| MIXTRAL_NAMES.contains(&t.name.as_str()))
        .collect();
    tensors.extend(
        layer_tensors(&deepseek, None)
            .into_iter()
            .filter(|t| deepseek_in_slice(&t.name)),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..tensors.len()).rev() {
        tensors.swap(i, rng.gen_range(0..=i));
    }
    let metas: Vec<_> = tensors.iter().map(|t| t.meta).collect();
    let ranks = models::policy().assign(&metas).expect("slice is non-empty");
    Slice { tensors, ranks }
}

/// Runs the workload for `seconds` of measured compression time, in
/// whole rounds over the slice. Round `r` seeds the randomized SVD
/// sketches with `seed + r`, so a run samples several sketch seeds and
/// the iteration counts they lead to.
pub fn run(seed: u64, seconds: f64, setups: usize) -> Report {
    let mut report = Report::default();
    let (slice, setup_s) = median_setup(setups, || slice(seed));
    let base = MiloOptions::default();
    // Plain HQQ does not depend on the sketch seed: one reference per matrix.
    let hqq_err: Vec<Result<f32, String>> = slice
        .tensors
        .iter()
        .map(|lt| {
            hqq_quantize(&lt.weight, &base.quant, &base.hqq)
                .map(|q| stats::relative_frobenius_error(&lt.weight, &q.dequantize()))
                .map_err(|e| e.to_string())
        })
        .collect();

    let mut lat_ms = Vec::new();
    let mut busy_s = 0.0;
    let mut weights = 0usize;
    let mut iterations = 0usize;
    let mut rounds = 0u64;
    let mut model_bytes = 0usize;
    while rounds == 0 || busy_s < seconds {
        let opts = MiloOptions {
            seed: seed.wrapping_add(rounds),
            ..base
        };
        rounds += 1;
        model_bytes = 0;
        for ((lt, &rank), hqq_err) in slice.tensors.iter().zip(&slice.ranks).zip(&hqq_err) {
            report.attempted += 1;
            let t0 = Instant::now();
            let out = {
                let _span = milo_obs::span(|| "bench.compress.matrix".into());
                milo_compress(&lt.weight, rank, &opts)
            };
            let ms = ms_since(t0);
            match out {
                Ok(layer) => {
                    lat_ms.push(ms);
                    busy_s += ms / 1e3;
                    weights += lt.weight.len();
                    iterations += layer.iterations();
                    model_bytes += layer.memory_bytes();
                    if let Err(msg) = check_matrix(&lt.weight, rank, &layer, hqq_err) {
                        report.check_failed(format!(
                            "{} (rank {rank}, round {rounds}): {msg}",
                            lt.name
                        ));
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("compress {} (rank {rank}) failed: {e}", lt.name);
                }
            }
        }
    }

    println!(
        "compress: {} matrices per round, {rounds} rounds, {} attempted, {} failed, \
         {iterations} Algorithm 1 iterations, {:.2} Mw compressed, ms per matrix p50 {:.3} \
         p90 {:.3}",
        slice.tensors.len(),
        report.attempted,
        report.failed,
        weights as f64 / 1e6,
        quantile(&lat_ms, 0.5),
        quantile(&lat_ms, 0.9)
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("model_mb", model_bytes as f64 / 1e6, "MB");
    report.metric("latency_p50_ms", quantile(&lat_ms, 0.5), "ms");
    report.metric("throughput", weights as f64 / 1e6 / busy_s, "op/s");
    report
}

/// Output checks on one compressed matrix, made apart from the
/// optimizer: the compensator has the rank the policy assigned, the
/// effective weight is no worse than a plain HQQ quantization of the same
/// matrix, and the packed deployment layout unpacks to the quantized codes.
fn check_matrix(
    w: &Matrix,
    rank: usize,
    layer: &CompressedLayer,
    hqq_err: &Result<f32, String>,
) -> Result<(), String> {
    let got_rank = layer.compensator.as_ref().map_or(0, |c| c.rank());
    if got_rank != rank {
        return Err(format!(
            "compensator rank {got_rank}, policy assigned {rank}"
        ));
    }
    let hqq_err = hqq_err
        .as_ref()
        .map_err(|e| format!("plain HQQ failed: {e}"))?;
    let milo_err = stats::relative_frobenius_error(w, &layer.effective_weight());
    if milo_err > *hqq_err {
        return Err(format!("MiLo error {milo_err} exceeds plain HQQ {hqq_err}"));
    }
    check_packing(layer)
}

/// Every 32-weight packing group unpacks to the codes it was packed from.
fn check_packing(layer: &CompressedLayer) -> Result<(), String> {
    let q = &layer.qweight;
    let packed = PackedMatrix::pack(q).map_err(|e| format!("packing failed: {e}"))?;
    let cols = q.cols();
    for r in 0..q.rows() {
        for g in 0..cols / 32 {
            let codes = unpack_group(&packed.group_words(r, g));
            let start = r * cols + g * 32;
            if codes[..] != q.codes()[start..start + 32] {
                return Err(format!(
                    "packed group (row {r}, group {g}) does not unpack to its codes"
                ));
            }
        }
    }
    Ok(())
}
