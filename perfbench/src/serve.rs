//! `deepseek_serve`: the DeepSeek-like model behind `milo_serve::Server`,
//! with no faults and no deadlines.
//!
//! Two phases alternate through the run: an open loop at a fixed seeded
//! arrival rate well below capacity, each request timed from the moment
//! it was due, and a closed loop with one client per worker, at
//! saturation. This runs routing and expert gather/scatter over many
//! small experts, packed GEMM at small multi-row batches, and the serve
//! queue and workers.

use crate::models::{self, check_logits, routing_flips};
use crate::report::{median, median_setup, quantile, Report};
use milo_engine::PackedMoeModel;
use milo_moe::health::ResilienceContext;
use milo_serve::{ForwardModel, Request, Response, Server, ServerConfig, Ticket};
use milo_tensor::pool;
use milo_tensor::rng::{Rng, SeedableRng, StdRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Request lengths of one round; each round uses every length once.
pub const REQUEST_LENS: [usize; 5] = [2, 3, 4, 5, 6];
/// Open-loop arrival rate in requests per second, about a quarter of the
/// two-core capacity at these lengths, so that a request seldom finds
/// both workers busy even while the host runs slow.
pub const OPEN_RATE: f64 = 4.0;
/// Share of the run given to the open loop (over 100 requests at 30 s,
/// enough for a p90); the closed loop gets the rest.
pub const OPEN_SHARE: f64 = 0.85;
/// Open-loop slices, each followed by a closed-loop slice. The host's
/// speed drifts over seconds; alternating spreads both phases over the
/// whole run, so neither metric rests on one stretch of it.
const SLICES: usize = 3;

/// One request of the run, with the outcome the checks need.
struct Sent {
    tokens: Vec<u32>,
    outcome: Result<Response, String>,
}

/// `n` whole rounds of requests, each round in a seeded order.
pub fn requests(rng: &mut StdRng, rounds: usize, vocab: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(rounds * REQUEST_LENS.len());
    for _ in 0..rounds {
        let mut lens = REQUEST_LENS;
        for i in (1..lens.len()).rev() {
            lens.swap(i, rng.gen_range(0..=i));
        }
        for len in lens {
            out.push((0..len).map(|_| rng.gen_range(0..vocab as u32)).collect());
        }
    }
    out
}

/// A server for `model` with a queue that holds a whole open-loop
/// schedule and no deadline. Workers are plain threads whose nested
/// parallel calls each use the whole pool, so workers × pool threads
/// stays within the host: one worker per core when the pool is
/// single-threaded.
pub fn start_server(model: Arc<dyn ForwardModel>, capacity: usize) -> Server {
    let cfg = ServerConfig {
        workers: (models::host_threads() / pool::max_threads()).max(1),
        queue_capacity: capacity.max(1),
        default_deadline: None,
        ..ServerConfig::default()
    };
    Server::start(model, cfg)
}

/// Open-loop outcome: per-request latency from its due time, how late
/// the generator submitted each request, and the requests sent.
pub struct OpenLoop {
    /// Latency from due time to completion, ms, per completed request.
    pub latency_ms: Vec<f64>,
    /// Generator lateness per request, ms.
    pub lag_ms: Vec<f64>,
    sent: Vec<Sent>,
}

impl OpenLoop {
    fn append(&mut self, other: OpenLoop) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.sent.extend(other.sent);
    }
}

/// Sends `reqs` on a seeded schedule at [`OPEN_RATE`]: inter-arrival
/// gaps are uniform on 0.5–1.5 times the mean gap, which keeps the rate
/// fixed with less run-to-run variance than Poisson arrivals.
pub fn open_loop(server: &Server, reqs: Vec<Vec<u32>>, rng: &mut StdRng) -> OpenLoop {
    let _span = milo_obs::span(|| "bench.serve.open_loop".into());
    let mean_gap = 1.0 / OPEN_RATE;
    let start = Instant::now();
    let mut due = 0.0;
    let mut pending: Vec<(Vec<u32>, f64, Result<Ticket, String>)> = Vec::with_capacity(reqs.len());
    let mut lag_ms = Vec::with_capacity(reqs.len());
    for tokens in reqs {
        let due_at = start + Duration::from_secs_f64(due);
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lag = Instant::now().duration_since(due_at).as_secs_f64() * 1e3;
        lag_ms.push(lag);
        let ticket = server
            .submit(Request::new(tokens.clone()))
            .map_err(|e| e.to_string());
        pending.push((tokens, lag, ticket));
        due += mean_gap * rng.gen_range(0.5..1.5);
    }
    let mut latency_ms = Vec::with_capacity(pending.len());
    let mut sent = Vec::with_capacity(pending.len());
    for (tokens, lag, ticket) in pending {
        let outcome = ticket.and_then(|t| t.wait().map_err(|e| e.to_string()));
        if let Ok(resp) = &outcome {
            // Admission follows the due time by the generator's lag.
            latency_ms.push(lag + resp.latency.as_secs_f64() * 1e3);
        }
        sent.push(Sent { tokens, outcome });
    }
    OpenLoop {
        latency_ms,
        lag_ms,
        sent,
    }
}

/// Closed loop: one client per worker; each takes the next request of
/// `reqs` (cycling from `next`), waits for it, and stops once `secs` are
/// spent. Returns the requests sent and the phase's wall time.
fn closed_loop(
    server: &Server,
    reqs: &[Vec<u32>],
    next: &AtomicUsize,
    secs: f64,
) -> (Vec<Sent>, f64) {
    let sent = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..models::host_threads() {
            s.spawn(|| loop {
                if t0.elapsed().as_secs_f64() >= secs {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let tokens = reqs[i % reqs.len()].clone();
                let outcome = {
                    let _span = milo_obs::span(|| "bench.serve.request".into());
                    server
                        .submit(Request::new(tokens.clone()))
                        .and_then(Ticket::wait)
                        .map_err(|e| e.to_string())
                };
                sent.lock()
                    .expect("client panicked")
                    .push(Sent { tokens, outcome });
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    (sent.into_inner().expect("client panicked"), secs)
}

/// Runs the open and closed loops in alternating slices and checks
/// every response.
pub fn run(seed: u64, seconds: f64, setups: usize) -> Report {
    let mut report = Report::default();
    let cfg = models::deepseek();
    let (model, setup_s) = median_setup(setups, || models::deploy(&cfg));
    let dense = model.dense_effective();
    let packed: Arc<PackedMoeModel> = Arc::new(model.packed);
    if packed.packed_fraction() != 1.0 {
        report.check_failed(format!("packed fraction {} != 1", packed.packed_fraction()));
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let open_secs = seconds * OPEN_SHARE;
    let rounds = ((open_secs * OPEN_RATE) / REQUEST_LENS.len() as f64)
        .ceil()
        .max(1.0) as usize;
    let open_reqs = requests(&mut rng, rounds, cfg.vocab);
    let closed_reqs = requests(&mut rng, 64, cfg.vocab);
    let server = start_server(packed.clone(), open_reqs.len());
    let slices: Vec<&[Vec<u32>]> = open_reqs
        .chunks(rounds.div_ceil(SLICES) * REQUEST_LENS.len())
        .collect();
    let closed_slice_secs = (seconds - open_secs) / slices.len() as f64;
    let mut open = OpenLoop {
        latency_ms: Vec::new(),
        lag_ms: Vec::new(),
        sent: Vec::new(),
    };
    let mut closed_sent = Vec::new();
    let mut closed_s = 0.0;
    let next = AtomicUsize::new(0);
    for slice in slices {
        // Each open slice waits for all its responses before the closed
        // slice starts, so the two never share the workers.
        open.append(open_loop(&server, slice.to_vec(), &mut rng));
        let (sent, secs) = closed_loop(&server, &closed_reqs, &next, closed_slice_secs);
        closed_sent.extend(sent);
        closed_s += secs;
    }
    let closed_ok = closed_sent.iter().filter(|s| s.outcome.is_ok()).count();
    let stats = server.shutdown();

    let sent: Vec<&Sent> = open.sent.iter().chain(&closed_sent).collect();
    report.attempted = sent.len() as u64;
    report.failed = sent.iter().filter(|s| s.outcome.is_err()).count() as u64;
    let mut flipped_rows = 0;
    for (i, s) in sent.iter().enumerate() {
        match &s.outcome {
            Ok(resp) => {
                flipped_rows += check_response(&dense, &packed, i, &s.tokens, resp, &mut report)
            }
            Err(e) => eprintln!("request {i} (tokens {:?}) failed: {e}", s.tokens),
        }
    }
    if stats.completed != sent.len() as u64 - report.failed || stats.rejected != 0 {
        report.check_failed(format!(
            "server completed {} and rejected {} of {} requests sent",
            stats.completed,
            stats.rejected,
            sent.len()
        ));
    }

    println!(
        "deepseek_serve: open loop {} sent, {} failed, latency p50 {:.3} ms p90 {:.3} ms, \
         generator lag p50 {:.3} ms max {:.3} ms; {} rejected and max queue depth {} over both \
         phases",
        open.sent.len(),
        open.sent.iter().filter(|s| s.outcome.is_err()).count(),
        quantile(&open.latency_ms, 0.5),
        quantile(&open.latency_ms, 0.9),
        median(&open.lag_ms),
        quantile(&open.lag_ms, 1.0),
        stats.rejected,
        stats.max_depth
    );
    println!(
        "deepseek_serve: closed loop {} sent, {} failed, {:.3} s; {flipped_rows} logit rows \
         routed differently from the dense reference",
        closed_sent.len(),
        closed_sent.len() - closed_ok,
        closed_s
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("model_mb", packed.memory_bytes() as f64 / 1e6, "MB");
    report.metric("latency_p50_ms", quantile(&open.latency_ms, 0.5), "ms");
    report.metric("throughput", closed_ok as f64 / closed_s, "op/s");
    report
}

/// A response holds one logit row per request token, within Appendix D's
/// bound of the dense forward on the same de-quantized weights (see
/// [`models::check_logits`]). Returns the rows left out for routing flips.
fn check_response(
    dense: &milo_moe::MoeModel,
    packed: &PackedMoeModel,
    i: usize,
    tokens: &[u32],
    resp: &Response,
    report: &mut Report,
) -> usize {
    let result = dense
        .forward(tokens)
        .map_err(|e| format!("dense forward failed: {e}"))
        .and_then(|want| {
            if resp.logits.rows() != tokens.len() {
                return Err(format!(
                    "{} logit rows for {} tokens",
                    resp.logits.rows(),
                    tokens.len()
                ));
            }
            check_logits(&resp.logits, &want, 0, || {
                routing_flips(dense, tokens, || {
                    let ctx = ResilienceContext::degrade();
                    let _ = packed.forward_resilient(tokens, &ctx);
                })
            })
        });
    result.unwrap_or_else(|msg| {
        report.check_failed(format!("request {i} (tokens {tokens:?}): {msg}"));
        0
    })
}
