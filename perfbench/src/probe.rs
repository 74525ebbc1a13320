//! Per-layer metrics for the traced run: each one times a public call
//! into one layer, on the shapes and inputs of the workload it should
//! move (see README.md for the layer → end-to-end map). Every call is
//! wrapped in a `bench.probe.*` span so the Chrome trace shows it.
//!
//! The probe is the same on every workload, so each workload's traced
//! run prints the whole per-layer set.

use crate::models::{self, Deployed};
use crate::report::{median, quantile, time_us, Report};
use crate::serve;
use milo_core::{milo_compress, Compensator, CompressedLayer, LowRankCompensator, MiloOptions};
use milo_engine::{PackedDecodeState, PackedLinear};
use milo_moe::health::ResilienceContext;
use milo_moe::{attention, FfnBlock};
use milo_pack::{GemmKernel, PackedMatrix, PackedWeight, TileShape};
use milo_quant::{hqq_quantize, QuantConfig};
use milo_serve::{ForwardError, ForwardModel, Request};
use milo_tensor::rng::{Rng, SeedableRng, StdRng, WeightDist};
use milo_tensor::{pool, stats, Matrix, F16};
use std::sync::Arc;
use std::time::Instant;

/// Requests in the probe's short open loop.
const PROBE_REQUESTS: usize = 30;
/// Prompt length of the prefill probe.
const PREFILL_LEN: usize = 8;

/// Runs `f` inside a span named `bench.probe.<name>`.
fn probed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = milo_obs::span(|| format!("bench.probe.{name}"));
    f()
}

/// The kernel launch the engine uses for a `rows × cols` weight: the
/// first tile shape that divides it.
fn kernel_for(packed: &PackedMatrix) -> GemmKernel {
    let tile = TileShape::all()
        .into_iter()
        .find(|t| {
            let (tk, tn) = t.dims();
            packed.cols().is_multiple_of(tk) && packed.rows().is_multiple_of(tn)
        })
        .expect("benchmark widths are tile-accepted");
    GemmKernel { tile }
}

fn layer<'a>(model: &'a Deployed, name: &str) -> &'a CompressedLayer {
    &model
        .compressed
        .layer(name)
        .unwrap_or_else(|| panic!("{name} is compressed"))
        .layer
}

/// Median µs of one fused W3A16 GEMM of `rows` activation rows against
/// `layer`'s packed weight.
fn gemm_us(layer: &CompressedLayer, rows: usize, rng: &mut StdRng) -> f64 {
    let packed = PackedMatrix::pack(&layer.qweight).expect("3-bit weights pack");
    let kernel = kernel_for(&packed);
    let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(rows, packed.cols(), rng);
    time_us(20, || {
        std::hint::black_box(kernel.gemm(&x, &packed).expect("valid launch"));
    })
}

/// Adds every per-layer metric to `report`.
pub fn run(seed: u64, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e0b);
    let mixtral = probed("deploy", || models::deploy(&models::mixtral()));
    let deepseek = probed("deploy", || models::deploy(&models::deepseek()));

    kernels(&mixtral, &deepseek, &mut rng, report);
    compression(seed, &mut rng, report);
    engine(&mixtral, &deepseek, &mut rng, report);
    routing_and_serving(&deepseek, &mut rng, report);
}

/// `pack.*`, `engine.linear_us`, `engine.compensator_us`, `tensor.*`
/// except the SVD.
fn kernels(mixtral: &Deployed, deepseek: &Deployed, rng: &mut StdRng, report: &mut Report) {
    let top_k = models::mixtral().top_k as f64;
    let (attn, w1, w2, w3) = (
        layer(mixtral, "layer0.attn.wq"),
        layer(mixtral, "layer0.expert0.w1"),
        layer(mixtral, "layer0.expert0.w2"),
        layer(mixtral, "layer0.expert0.w3"),
    );
    // One decoded Mixtral token runs four attention projections and the
    // three projections of each of its top-k experts.
    let bs1 = probed("gemm_bs1", || {
        4.0 * gemm_us(attn, 1, rng)
            + top_k * (gemm_us(w1, 1, rng) + gemm_us(w2, 1, rng) + gemm_us(w3, 1, rng))
    });
    report.metric("pack.gemm_bs1_us", bs1, "us");

    // A mean-length serve request runs its attention and shared experts
    // at that many rows, and each routed expert at its routed row count.
    let lens = serve::REQUEST_LENS;
    let req_rows = (lens.iter().sum::<usize>() as f64 / lens.len() as f64).round() as usize;
    let ds = models::deepseek();
    let expert_rows = (req_rows * ds.top_k).div_ceil(ds.n_experts).max(1);
    let rows_us = probed("gemm_rows", || {
        gemm_us(layer(deepseek, "layer1.attn.wq"), req_rows, rng)
            + gemm_us(layer(deepseek, "layer1.shared0.w1"), req_rows, rng)
            + gemm_us(layer(deepseek, "layer1.expert0.w1"), expert_rows, rng)
            + gemm_us(layer(deepseek, "layer1.expert0.w2"), expert_rows, rng)
    });
    report.metric("pack.gemm_rows_us", rows_us, "us");

    let packed = PackedMatrix::pack(&w1.qweight).expect("3-bit weights pack");
    let groups = packed.rows() * packed.cols() / 32;
    let mut buf = [F16::ZERO; 32];
    let dequant_ns = probed("dequant", || {
        time_us(5, || {
            for r in 0..packed.rows() {
                for g in 0..packed.cols() / 32 {
                    packed.dequant_group32_into(r, g, &mut buf);
                }
            }
            std::hint::black_box(&buf);
        }) * 1e3
            / groups as f64
    });
    report.metric("pack.dequant_ns", dequant_ns, "ns");

    // Deployed bytes a decoded token reads: attention, the top-k experts
    // (at the mean expert size) and their compensators.
    let cfg = models::mixtral();
    let expert_bytes: usize = (0..cfg.n_experts)
        .flat_map(|e| ["w1", "w2", "w3"].map(move |p| format!("layer0.expert{e}.{p}")))
        .map(|n| layer(mixtral, &n).memory_bytes())
        .sum();
    let attn_bytes: usize = ["wq", "wk", "wv", "wo"]
        .iter()
        .map(|p| layer(mixtral, &format!("layer0.attn.{p}")).memory_bytes())
        .sum();
    let per_token = attn_bytes as f64 + top_k * expert_bytes as f64 / cfg.n_experts as f64;
    report.metric("pack.weight_mb_per_token", per_token / 1e6, "MB");

    let lin = PackedLinear::build(w1).expect("compressed layer builds");
    let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(1, lin.in_features(), rng);
    let linear_us = probed("linear", || {
        time_us(20, || {
            std::hint::black_box(lin.forward(&x).expect("matching width"));
        })
    });
    report.metric("engine.linear_us", linear_us, "us");

    // The engine keeps the factors de-quantized and transposed.
    let (vt, ut) = match attn.compensator.as_ref().expect("attention has rank 16") {
        Compensator::Fp16(c) => (c.v().transpose(), c.u().transpose()),
        Compensator::Quantized(c) => (
            c.v().dequantize().transpose(),
            c.u().dequantize().transpose(),
        ),
    };
    let xa = WeightDist::Gaussian { std: 1.0 }.sample_matrix(1, vt.rows(), rng);
    let comp_us = probed("compensator", || {
        time_us(50, || {
            let xv = xa.matmul(&vt).expect("in × r");
            std::hint::black_box(xv.matmul(&ut).expect("r × out"));
        })
    });
    report.metric("engine.compensator_us", comp_us, "us");

    // At every core, the fork-join a multi-threaded caller pays per call.
    let threads = models::host_threads();
    let fork_us = probed("pool_fork", || {
        pool::with_threads(threads, || {
            time_us(200, || {
                std::hint::black_box(pool::par_map(threads, |i| i));
            })
        })
    });
    report.metric("tensor.pool_fork_us", fork_us, "us");

    let head_t = mixtral.reference.head.transpose();
    let xh = WeightDist::Gaussian { std: 1.0 }.sample_matrix(1, head_t.rows(), rng);
    let head_us = probed("head", || {
        time_us(50, || {
            std::hint::black_box(xh.matmul(&head_t).expect("d × vocab"));
        })
    });
    report.metric("tensor.head_us", head_us, "us");
}

/// `tensor.svd_ms.*`, `quant.hqq_ms.*` and `core.*`: one matrix of each
/// kind the compress workload mixes, at paper defaults.
fn compression(seed: u64, rng: &mut StdRng, report: &mut Report) {
    let d = 256;
    let kinds: [(&str, Matrix, usize); 3] = [
        (
            "attn",
            WeightDist::StudentT {
                dof: 8.0,
                scale: 0.05,
            }
            .sample_matrix(d, d, rng),
            16,
        ),
        (
            "mixtral_expert",
            WeightDist::Uniform { bound: 0.1 }.sample_matrix(896, d, rng),
            2,
        ),
        (
            "deepseek_expert",
            WeightDist::Uniform { bound: 0.1 }.sample_matrix(64, d, rng),
            2,
        ),
    ];
    let opts = MiloOptions {
        seed,
        ..MiloOptions::default()
    };
    let mut iterations = 0usize;
    let mut compress_ms = 0.0;
    let mut rel_errs = Vec::new();
    for (kind, w, rank) in &kinds {
        let mut q = None;
        let hqq_us = probed("hqq", || {
            time_us(3, || {
                q = Some(hqq_quantize(w, &opts.quant, &opts.hqq).expect("hqq"))
            })
        });
        report.metric(&format!("quant.hqq_ms.{kind}"), hqq_us / 1e3, "ms");
        let residual = w.sub(&q.expect("ran").dequantize()).expect("same shape");
        let svd_us = probed("svd", || {
            time_us(3, || {
                std::hint::black_box(LowRankCompensator::fit(&residual, *rank, seed).expect("svd"));
            })
        });
        report.metric(&format!("tensor.svd_ms.{kind}"), svd_us / 1e3, "ms");

        let t0 = Instant::now();
        let layer = probed("milo_compress", || {
            milo_compress(w, *rank, &opts).expect("compress")
        });
        compress_ms += t0.elapsed().as_secs_f64() * 1e3;
        iterations += layer.iterations();
        rel_errs.push(stats::relative_frobenius_error(w, &layer.effective_weight()) as f64);
    }
    report.metric("core.iterations", iterations as f64, "count");
    report.metric("core.iter_ms", compress_ms / iterations as f64, "ms");
    report.metric("core.recon_rel_err", median(&rel_errs), "ratio");

    // Factor shapes of a rank-16 attention compensator.
    let comp = LowRankCompensator::fit(&kinds[0].1, 16, seed).expect("svd");
    let quant_us = probed("comp_quant", || {
        time_us(10, || {
            std::hint::black_box(comp.quantize(&QuantConfig::int3_sym()).expect("sym config"));
        })
    });
    report.metric("core.comp_quant_ms", quant_us / 1e3, "ms");
}

/// `engine.prefill_ms_per_token`, `engine.forward_ms_per_token`,
/// `engine.packed_fraction` and `moe.attend_us`.
fn engine(mixtral: &Deployed, deepseek: &Deployed, rng: &mut StdRng, report: &mut Report) {
    let vocab = models::mixtral().vocab as u32;
    let prompt: Vec<u32> = (0..PREFILL_LEN).map(|_| rng.gen_range(0..vocab)).collect();
    let prefill_us = probed("prefill", || {
        time_us(3, || {
            let mut state = PackedDecodeState::new(&mixtral.packed);
            std::hint::black_box(
                mixtral
                    .packed
                    .prefill(&prompt, &mut state)
                    .expect("prefill"),
            );
        })
    });
    report.metric(
        "engine.prefill_ms_per_token",
        prefill_us / 1e3 / PREFILL_LEN as f64,
        "ms",
    );

    let tokens: Vec<u32> = (0..4).map(|_| rng.gen_range(0..vocab)).collect();
    let ctx = ResilienceContext::degrade();
    let forward_us = probed("forward", || {
        time_us(5, || {
            std::hint::black_box(
                deepseek
                    .packed
                    .forward_resilient(&tokens, &ctx)
                    .expect("forward"),
            );
        })
    });
    report.metric(
        "engine.forward_ms_per_token",
        forward_us / 1e3 / tokens.len() as f64,
        "ms",
    );
    report.metric(
        "engine.packed_fraction",
        mixtral
            .packed
            .packed_fraction()
            .min(deepseek.packed.packed_fraction()) as f64,
        "ratio",
    );

    let d = models::deepseek().d_model;
    let qkv: Vec<Matrix> = (0..3)
        .map(|_| WeightDist::Gaussian { std: 1.0 }.sample_matrix(4, d, rng))
        .collect();
    let heads = models::deepseek().n_heads;
    let attend_us = probed("attend", || {
        time_us(50, || {
            std::hint::black_box(attention::attend(&qkv[0], &qkv[1], &qkv[2], heads));
        })
    });
    report.metric("moe.attend_us", attend_us, "us");
}

/// `moe.route_us`, `moe.rows_per_expert`, `moe.load_skew` and `serve.*`:
/// a short open loop on the DeepSeek-like model, with routing read from
/// the engine's own per-expert counters.
fn routing_and_serving(deepseek: &Deployed, rng: &mut StdRng, report: &mut Report) {
    let cfg = models::deepseek();
    let router = match &deepseek.reference.layers[1].ffn {
        FfnBlock::Moe(block) => &block.router,
        FfnBlock::Dense(_) => unreachable!("layer 1 of the DeepSeek-like model is MoE"),
    };
    let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(1, cfg.d_model, rng);
    let x = attention::rms_norm(&x);
    let route_us = probed("route", || {
        time_us(200, || {
            std::hint::black_box(router.route(x.row(0)));
        })
    });
    report.metric("moe.route_us", route_us, "us");

    let before = expert_counts(cfg.n_experts);
    let packed = Arc::new(deepseek.packed.clone());
    let reqs = serve::requests(
        rng,
        PROBE_REQUESTS.div_ceil(serve::REQUEST_LENS.len()),
        cfg.vocab,
    );
    let server = serve::start_server(packed.clone(), reqs.len());
    let open = probed("open_loop", || serve::open_loop(&server, reqs.clone(), rng));
    let stats = server.shutdown();
    let after = expert_counts(cfg.n_experts);
    let tokens: Vec<f64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| (a.0 - b.0) as f64)
        .collect();
    let calls: u64 = after.iter().zip(&before).map(|(a, b)| a.1 - b.1).sum();
    let mean = tokens.iter().sum::<f64>() / tokens.len() as f64;
    report.metric(
        "moe.rows_per_expert",
        tokens.iter().sum::<f64>() / calls.max(1) as f64,
        "count",
    );
    report.metric(
        "moe.load_skew",
        quantile(&tokens, 1.0) / mean.max(f64::MIN_POSITIVE),
        "ratio",
    );

    // Queue wait: latency from the due time minus the same request's
    // service time on the idle model.
    if open.latency_ms.len() != reqs.len() {
        report.check_failed(format!(
            "probe open loop: {} of {} requests completed",
            open.latency_ms.len(),
            reqs.len()
        ));
    }
    let ctx = ResilienceContext::degrade();
    let waits: Vec<f64> = reqs
        .iter()
        .zip(&open.latency_ms)
        .map(|(t, lat)| {
            let t0 = Instant::now();
            std::hint::black_box(packed.forward_resilient(t, &ctx).expect("forward"));
            lat - t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric("serve.queue_wait_p50_ms", quantile(&waits, 0.5), "ms");
    report.metric("serve.queue_wait_p90_ms", quantile(&waits, 0.9), "ms");
    report.metric("serve.max_depth", stats.max_depth as f64, "count");
    report.metric("serve.gen_lag_ms", quantile(&open.lag_ms, 0.9), "ms");

    // Server overhead: an idle one-request round trip through a model
    // that does no work.
    let out = Matrix::zeros(1, 1);
    let noop: Arc<dyn ForwardModel> =
        Arc::new(move |_: &[u32], _: &ResilienceContext| Ok::<Matrix, ForwardError>(out.clone()));
    let idle = serve::start_server(noop, 1);
    let overhead_us = probed("serve_overhead", || {
        time_us(100, || {
            let t = idle
                .submit(Request::new(vec![0]))
                .expect("idle queue admits");
            std::hint::black_box(t.wait().expect("no-op model succeeds"));
        })
    });
    idle.shutdown();
    report.metric("serve.overhead_us", overhead_us, "us");
}

/// Per expert of the DeepSeek-like MoE layer: routed tokens and expert
/// calls so far, from the engine's telemetry.
fn expert_counts(n_experts: usize) -> Vec<(u64, u64)> {
    (0..n_experts)
        .map(|e| {
            let expert = e.to_string();
            let labels = [("layer", "1"), ("expert", expert.as_str())];
            let tokens = milo_obs::registry::counter_peek(&milo_obs::metric_key(
                "engine.expert_tokens",
                &labels,
            ))
            .unwrap_or(0);
            let calls = milo_obs::registry::histogram(
                &milo_obs::metric_key("engine.expert_ns", &labels),
                milo_obs::Unit::Nanos,
            )
            .count();
            (tokens, calls)
        })
        .collect()
}
