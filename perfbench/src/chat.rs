//! `mixtral_chat`: one client in a closed loop on the full-width
//! Mixtral-like model. Each turn prefills a seeded prompt, then
//! greedy-decodes a fixed number of tokens through the KV cache.
//!
//! This is the decode regime: batch-1 packed GEMM, bound by weight
//! de-quantization, with a pool fork-join on every projection.

use crate::models::{self, argmax, check_logits, routing_flips};
use crate::report::{median, median_setup, ms_since, quantile, Report};
use milo_engine::PackedDecodeState;
use milo_tensor::rng::{Rng, SeedableRng, StdRng};
use milo_tensor::Matrix;
use std::time::Instant;

/// Prompt lengths of one round of turns; every round uses each once, in
/// a seeded order, so every run sees the same length mix.
pub const PROMPT_LENS: [usize; 3] = [4, 8, 12];
/// Tokens decoded after each prompt.
pub const DECODE_STEPS: usize = 32;

/// Runs whole rounds of turns until `seconds` of turn time are measured.
pub fn run(seed: u64, seconds: f64, setups: usize) -> Report {
    let mut report = Report::default();
    let cfg = models::mixtral();
    let (model, setup_s) = median_setup(setups, || models::deploy(&cfg));
    let dense = model.dense_effective();
    let packed = &model.packed;
    if packed.packed_fraction() != 1.0 {
        report.check_failed(format!("packed fraction {} != 1", packed.packed_fraction()));
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a7);
    let mut ttft_ms = Vec::new();
    let mut itl_ms = Vec::new();
    let mut busy_s = 0.0;
    let mut turn = 0usize;
    let mut flipped_rows = 0;
    while turn == 0 || busy_s < seconds {
        let mut lens = PROMPT_LENS;
        for i in (1..lens.len()).rev() {
            lens.swap(i, rng.gen_range(0..=i));
        }
        for len in lens {
            let prompt: Vec<u32> = (0..len)
                .map(|_| rng.gen_range(0..cfg.vocab as u32))
                .collect();
            report.attempted += 1;
            let t_turn = Instant::now();
            match chat_turn(packed, &prompt) {
                Ok((tokens, logits, ttft, itl)) => {
                    busy_s += t_turn.elapsed().as_secs_f64();
                    ttft_ms.push(ttft);
                    itl_ms.extend(itl);
                    flipped_rows +=
                        check_turn(&dense, packed, turn, &tokens, len, &logits, &mut report);
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("turn {turn} (prompt {prompt:?}) failed: {e}");
                }
            }
            turn += 1;
        }
    }

    let decode_tok_s = itl_ms.len() as f64 / (itl_ms.iter().sum::<f64>() / 1e3);
    println!(
        "mixtral_chat: {} turns attempted, {} failed, ttft_ms p50 {:.3}, itl_ms p50 {:.3} \
         p90 {:.3}, decode {:.3} tok/s over {} steps; {flipped_rows} logit rows routed \
         differently from the dense reference",
        report.attempted,
        report.failed,
        median(&ttft_ms),
        median(&itl_ms),
        quantile(&itl_ms, 0.9),
        decode_tok_s,
        itl_ms.len()
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("model_mb", packed.memory_bytes() as f64 / 1e6, "MB");
    report.metric("latency_p50_ms", quantile(&itl_ms, 0.5), "ms");
    report.metric("throughput", decode_tok_s, "op/s");
    report
}

/// One turn: returns the full token sequence, the logit rows of every
/// decoded position (prefill's last row first), the time to first token
/// and each inter-token latency, in milliseconds.
fn chat_turn(
    packed: &milo_engine::PackedMoeModel,
    prompt: &[u32],
) -> milo_engine::Result<(Vec<u32>, Matrix, f64, Vec<f64>)> {
    let mut state = PackedDecodeState::new(packed);
    let mut tokens = prompt.to_vec();
    let mut logits = Matrix::zeros(DECODE_STEPS + 1, packed.vocab());
    let t0 = Instant::now();
    let mut last = {
        let _span = milo_obs::span(|| "bench.chat.prefill".into());
        packed.prefill(prompt, &mut state)?
    };
    let ttft = ms_since(t0);
    let mut itl = Vec::with_capacity(DECODE_STEPS);
    for step in 0..DECODE_STEPS {
        logits.row_mut(step).copy_from_slice(&last);
        let next = argmax(&last);
        tokens.push(next);
        let t = Instant::now();
        last = {
            let _span = milo_obs::span(|| "bench.chat.step".into());
            packed.forward_step(next, &mut state)?
        };
        itl.push(ms_since(t));
    }
    logits.row_mut(DECODE_STEPS).copy_from_slice(&last);
    Ok((tokens, logits, ttft, itl))
}

/// The turn's logit rows match the dense forward of the same
/// de-quantized model over the whole sequence, within Appendix D's bound
/// on the turn's whole logit matrix (see [`models::check_logits`]).
/// Returns the rows left out for routing flips.
fn check_turn(
    dense: &milo_moe::MoeModel,
    packed: &milo_engine::PackedMoeModel,
    turn: usize,
    tokens: &[u32],
    prompt_len: usize,
    logits: &Matrix,
    report: &mut Report,
) -> usize {
    let result = dense
        .forward(tokens)
        .map_err(|e| format!("dense forward failed: {e}"))
        .and_then(|want| {
            check_logits(logits, &want, prompt_len - 1, || {
                routing_flips(dense, tokens, || {
                    let mut state = PackedDecodeState::new(packed);
                    for &t in tokens {
                        let _ = packed.forward_step(t, &mut state);
                    }
                })
            })
        });
    result.unwrap_or_else(|msg| {
        report.check_failed(format!("turn {turn} (tokens {tokens:?}): {msg}"));
        0
    })
}
