//! The two synthetic models the inference workloads deploy, and the
//! shared set-up and output check.
//!
//! Both models use widths that the packed kernel's tile rules accept for
//! every projection, so inference runs through `milo_pack::GemmKernel`
//! (W3A16 plus the compensator GEMMs) and never the dense fallback.

use milo_core::{compress_model, CompressedModel, MiloOptions, RankPolicy, SparseAllocation};
use milo_engine::PackedMoeModel;
use milo_moe::{apply_compressed, layer_tensors, MoeConfig, MoeModel};
use milo_obs::Level;
use milo_quant::HqqOptions;
use milo_tensor::{pool, stats, Matrix};

/// Appendix D's relative-error bound between the packed kernel's output
/// and the dense computation on the same de-quantized weights.
pub const REL_ERR_BOUND: f32 = 0.005;

/// Mixtral-like at its full preset width (d 256, 8 experts of 896, top 2)
/// with one transformer layer.
pub fn mixtral() -> MoeConfig {
    MoeConfig {
        n_layers: 1,
        ..MoeConfig::mixtral_like()
    }
}

/// DeepSeek-like (64 experts, top 6, 2 shared experts, dense first
/// layer) widened to d 256 with 64-wide experts and 256-wide shared
/// experts, the narrowest widths the tile rules accept; two layers so
/// that one is the dense layer and one the MoE layer.
pub fn deepseek() -> MoeConfig {
    MoeConfig {
        n_layers: 2,
        d_model: 256,
        expert_ffn: 64,
        shared_ffn: 256,
        ..MoeConfig::deepseek_like()
    }
}

/// The rank policy of the command-line `quantize --method milo`
/// default: rank 16 for dense layers, a kurtosis-weighted expert budget
/// averaging rank 2.
pub fn policy() -> RankPolicy {
    RankPolicy::composite(16, SparseAllocation::Kurtosis { avg_rank: 2 })
}

/// Synthesis seed of both models. The models are the benchmark's fixed
/// checkpoints; `--seed` varies what is asked of them (matrix order and
/// SVD sketches, prompts, requests and arrival times), as a benchmark of a
/// real model varies its prompts, not its weights.
pub const MODEL_SEED: u64 = 0x4d69_4c6f;

/// A deployed model plus the FP32 reference it was compressed from.
pub struct Deployed {
    /// The FP32 reference model (architecture, routers, embeddings).
    pub reference: MoeModel,
    /// The compressed weights.
    pub compressed: CompressedModel,
    /// The deployment-form model.
    pub packed: PackedMoeModel,
}

/// Synthesizes `cfg` from [`MODEL_SEED`], compresses every projection with
/// [`policy`] and builds the packed engine. One outer iteration of
/// Algorithm 1 with a two-step HQQ solve keeps set-up short: inference
/// speed depends on the ranks and shapes, not on how far the solvers ran,
/// and the output checks compare against the same de-quantized weights.
pub fn deploy(cfg: &MoeConfig) -> Deployed {
    let reference = MoeModel::synthesize(cfg, MODEL_SEED);
    let tensors = layer_tensors(&reference, None);
    let opts = MiloOptions {
        max_iters: 1,
        hqq: HqqOptions {
            max_iters: 2,
            ..HqqOptions::default()
        },
        seed: MODEL_SEED,
        ..MiloOptions::default()
    };
    // compress_model's workers are plain threads whose nested matmuls each
    // use the whole pool, so workers × pool threads stays within the host.
    let workers = (host_threads() / pool::max_threads()).max(1);
    let compressed =
        compress_model(&tensors, &policy(), &opts, workers).expect("synthetic layers compress");
    let packed = PackedMoeModel::build(&reference, &compressed).expect("compressed model matches");
    Deployed {
        reference,
        compressed,
        packed,
    }
}

impl Deployed {
    /// The dense model on the same de-quantized weights, the reference
    /// the packed outputs are checked against.
    pub fn dense_effective(&self) -> MoeModel {
        apply_compressed(&self.reference, &self.compressed).expect("compressed model matches")
    }
}

/// Cores this process may use.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Checks packed logits `got` against rows `first..` of the dense
/// reference `want`: the relative error of the whole matrix must be
/// within [`REL_ERR_BOUND`].
///
/// Where the packed path routed a token to a different expert than the
/// dense path (its FP16-rounded activations tip a near-tie in the
/// router's top-k), that row legitimately differs by far more than the
/// kernel's error. `routing_flips` counts such flips from routing
/// evidence; only then are that many rows, the worst ones, left out of
/// the bound. Returns the number of rows left out.
pub fn check_logits(
    got: &Matrix,
    want: &Matrix,
    first: usize,
    routing_flips: impl FnOnce() -> usize,
) -> Result<usize, String> {
    if got.cols() != want.cols() || first + got.rows() > want.rows() {
        return Err(format!(
            "logits {:?} do not fit rows {first}.. of the reference {:?}",
            got.shape(),
            want.shape()
        ));
    }
    let want = want.submatrix(first, first + got.rows(), 0, want.cols());
    let err = stats::relative_frobenius_error(&want, got);
    if err <= REL_ERR_BOUND {
        return Ok(0);
    }
    let flips = routing_flips();
    if flips == 0 {
        return Err(format!(
            "logit relative error {err} > {REL_ERR_BOUND} with identical routing"
        ));
    }
    let row_err = |r: usize| -> f32 {
        want.row(r)
            .iter()
            .zip(got.row(r))
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    };
    let mut rows: Vec<usize> = (0..got.rows()).collect();
    rows.sort_by(|&a, &b| row_err(b).total_cmp(&row_err(a)));
    let kept = &rows[flips.min(rows.len())..];
    let num: f32 = kept.iter().map(|&r| row_err(r)).sum();
    let den: f32 = kept
        .iter()
        .map(|&r| want.row(r).iter().map(|v| v * v).sum::<f32>())
        .sum();
    let kept_err = (num / den.max(f32::MIN_POSITIVE)).sqrt();
    if kept_err <= REL_ERR_BOUND {
        Ok(flips.min(rows.len()))
    } else {
        Err(format!(
            "logit relative error {err} > {REL_ERR_BOUND}, and {kept_err} without the \
             {flips} rows routed differently"
        ))
    }
}

/// How many token-to-expert assignments differ between the dense
/// reference and the packed engine on `tokens`: half the summed absolute
/// difference of their per-expert routed-token counts. The dense counts
/// come from `MoeModel::forward_counting`; the packed ones from the
/// engine's `engine.expert_tokens` counters around `run_packed`, with
/// telemetry switched on for the call.
pub fn routing_flips(dense: &MoeModel, tokens: &[u32], run_packed: impl FnOnce()) -> usize {
    let mut want = dense.fresh_counts();
    if dense.forward_counting(tokens, Some(&mut want)).is_err() {
        return 0;
    }
    let read = || -> Vec<Vec<u64>> {
        want.iter()
            .enumerate()
            .map(|(l, experts)| {
                (0..experts.len())
                    .map(|e| {
                        let (l, e) = (l.to_string(), e.to_string());
                        let key = milo_obs::metric_key(
                            "engine.expert_tokens",
                            &[("layer", &l), ("expert", &e)],
                        );
                        milo_obs::registry::counter_peek(&key).unwrap_or(0)
                    })
                    .collect()
            })
            .collect()
    };
    let level = milo_obs::level();
    milo_obs::set_level(level.max(Level::Metrics));
    let before = read();
    run_packed();
    let after = read();
    milo_obs::set_level(level);
    let mut diff = 0;
    for ((w, b), a) in want
        .iter()
        .flatten()
        .zip(before.iter().flatten())
        .zip(after.iter().flatten())
    {
        diff += w.abs_diff(a - b);
    }
    (diff / 2) as usize
}

/// Index of the largest logit (greedy decoding).
pub fn argmax(v: &[f32]) -> u32 {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best as u32
}
