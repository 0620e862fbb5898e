//! `dfss-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload prefill-mix --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` runs the workload untraced and
//! then traced for half the time each, replays the captured inputs layer
//! by layer, and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the metrics, the workloads and why each
//! was chosen.

mod chat_http;
mod common;
mod decode_sessions;
mod prefill_mix;
mod replay;
mod session;

use chat_http::ChatHttp;
use common::{
    same_bits, Cfg, Mech, Metric, Outcome, PrefillEntry, Server, ServerFacts, SessionInputs,
    WarmPrefill,
};
use decode_sessions::DecodeSessions;
use dfss_perfbench::stats;
use dfss_perfbench::trace::{self, Tracer};
use dfss_serve::wire::Json;
use dfss_serve::SchedPolicy;
use dfss_tensor::Rng;
use prefill_mix::PrefillMix;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-ups timed per run. Each is the first set-up of its own process:
/// all but the last run in probe processes of this binary.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--setup-probe 1`: time one cold set-up, print it, and exit.
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut probe = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setup-probe" => probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if probe {
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            probe,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        probe,
    })
}

/// The checkout's git revision, read from `.git` in the working
/// directory only; `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.into()
    }
}

/// Host facts every output is stamped with. Recorded, never set.
fn provenance() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let mut malloc: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MALLOC_") || k == "GLIBC_TUNABLES")
        .collect();
    malloc.sort();
    Json::obj(vec![
        ("git_rev", Json::Str(git_rev())),
        ("nproc", Json::Num(nproc as f64)),
        (
            "simd",
            Json::Str(dfss_kernels::simd::active().name().into()),
        ),
        ("rayon_num_threads", Json::Str(rayon)),
        ("malloc_env_set", Json::Bool(!malloc.is_empty())),
        (
            "malloc_env",
            Json::Arr(malloc.into_iter().map(Json::Str).collect()),
        ),
    ])
}

enum Workload {
    PrefillMix(PrefillMix),
    DecodeSessions(DecodeSessions),
    ChatHttp(ChatHttp),
}

impl Workload {
    fn new(name: &str, cfg: &Cfg, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "prefill-mix" => Workload::PrefillMix(PrefillMix::new(cfg, seed)?),
            "decode-sessions" => Workload::DecodeSessions(DecodeSessions::new(cfg, seed)?),
            "chat-http" => Workload::ChatHttp(ChatHttp::new(cfg, seed)?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn setup(&self) -> Result<(Server, Vec<WarmPrefill>), String> {
        match self {
            Workload::PrefillMix(w) => w.setup(),
            Workload::DecodeSessions(w) => w.setup(),
            Workload::ChatHttp(w) => w.setup(),
        }
    }

    /// Compute the solo references, then bit-check the warm-up's
    /// prefill outputs against them.
    fn check_warmup(&self, warm: &[WarmPrefill]) -> Result<(), String> {
        match self {
            Workload::PrefillMix(w) => {
                w.fill_references();
                common::check_warmup(&w.pool, warm)
            }
            Workload::ChatHttp(w) => {
                w.fill_references();
                common::check_warmup(&w.pool, warm)
            }
            Workload::DecodeSessions(_) => Ok(()),
        }
    }

    fn measure(
        &self,
        server: &Server,
        seconds: f64,
        phase: u64,
        traced: bool,
        origin: Instant,
    ) -> Outcome {
        match self {
            Workload::PrefillMix(w) => w.measure(server, seconds, phase, traced, origin),
            Workload::DecodeSessions(w) => w.measure(server, seconds, traced, origin),
            Workload::ChatHttp(w) => w.measure(server, seconds, traced, origin),
        }
    }

    fn mech(&self) -> &Mech {
        match self {
            Workload::PrefillMix(w) => &w.mech,
            Workload::DecodeSessions(w) => &w.mech,
            Workload::ChatHttp(w) => &w.mech,
        }
    }

    fn sessions(&self) -> &SessionInputs {
        match self {
            Workload::PrefillMix(w) => &w.sessions,
            Workload::DecodeSessions(w) => &w.sessions,
            Workload::ChatHttp(w) => &w.sessions,
        }
    }

    fn rows(&self) -> u64 {
        match self {
            Workload::PrefillMix(w) => w.rows.load(Ordering::Relaxed),
            Workload::DecodeSessions(w) => w.rows.load(Ordering::Relaxed),
            Workload::ChatHttp(w) => w.rows.load(Ordering::Relaxed),
        }
    }

    /// Stop the measured server and collect its lifetime facts.
    fn finish(&self, server: Server) -> ServerFacts {
        let sched_events = match &server {
            Server::InProc(s) => s.sched_trace().events().to_vec(),
            Server::Http(_) => Vec::new(),
        };
        let stats = server.shutdown();
        ServerFacts {
            stats,
            rows: self.rows(),
            sched_events,
        }
    }
}

/// Bit-check the kept decode outputs against solo `Attention::decode`
/// over the same cache rows; a mismatch fails its operation.
fn verify(w: &Workload, out: &mut Outcome) {
    for c in std::mem::take(&mut out.checks) {
        let want = w.sessions().reference(w.mech(), c.ordinal, c.round);
        if !same_bits(&c.output, want.as_slice()) {
            out.tally.mismatch(format!(
                "decode of session {} round {} diverged from solo decode",
                c.ordinal, c.round
            ));
        }
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics, each over the whole measured window: rates
/// are completions over the window's length, percentiles are taken over
/// every sample.
fn end_to_end(setups: &[f64], out: &Outcome, facts: &ServerFacts) -> Result<Vec<Metric>, String> {
    let (start, end) = out.start.zip(out.end).ok_or("nothing was measured")?;
    let span = end.duration_since(start).as_secs_f64();
    if span <= 0.0 {
        return Err("the measured window is empty".into());
    }
    let rate = |n: u64| n as f64 / span;
    let pct = stats::gated_percentile;
    let ok = out.tally.attempted.saturating_sub(out.tally.failed);
    Ok(vec![
        metric(
            "setup_s",
            stats::median(setups).ok_or("no set-up ran")?,
            "s",
        ),
        metric("tok_s", rate(out.decode_steps), "1/s"),
        metric("itl_p50_ms", pct(&out.itl, 50.0)?, "ms"),
        metric("itl_p90_ms", pct(&out.itl, 90.0)?, "ms"),
        metric("prefill_p50_ms", pct(&out.prefill, 50.0)?, "ms"),
        metric("prefill_p95_ms", pct(&out.prefill, 95.0)?, "ms"),
        metric("conv_s", rate(out.sessions_done), "1/s"),
        metric(
            "sim_rows_s",
            facts.rows as f64 / facts.stats.total_sim_latency_s.max(1e-12),
            "1/s",
        ),
        metric(
            "success_rate",
            ok as f64 / out.tally.attempted.max(1) as f64,
            "ratio",
        ),
        metric("rss_peak_mib", common::rss_peak_mib()?, "MiB"),
    ])
}

fn ms_of(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Span-derived and outcome-derived per-layer metrics.
fn layer_metrics(
    base: &Outcome,
    traced: &Outcome,
    spans: &[trace::Span],
    inproc: &Outcome,
    facts: &ServerFacts,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let durations = |layer: &str, ops: &[&str]| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.layer == layer && ops.contains(&s.op))
            .map(|s| ms_of(s.dur()))
            .collect()
    };
    for op in ["open", "extend", "append", "decode", "close", "prefill"] {
        let xs = durations("serve.http", &[op]);
        for p in [50.0, 99.0] {
            out.push(metric(
                &format!("serve.http.{op}_ms.p{p}"),
                stats::percentile(&xs, p).unwrap_or(0.0),
                "ms",
            ));
        }
    }
    let admit = durations(
        "serve.server",
        &["admit", "open", "extend", "append", "close"],
    );
    out.push(metric(
        "serve.server.admit_us",
        stats::median(&admit).unwrap_or(0.0) * 1e3,
        "us",
    ));
    let pick = |live: &[f64], fallback: &[f64]| {
        let xs = if live.is_empty() { fallback } else { live };
        stats::median(xs).unwrap_or(0.0)
    };
    out.push(metric(
        "serve.server.queue_wait_ms",
        pick(&traced.queue_ms, &inproc.queue_ms),
        "ms",
    ));
    out.push(metric(
        "serve.server.service_ms",
        pick(&traced.service_ms, &inproc.service_ms),
        "ms",
    ));
    out.push(metric(
        "serve.server.decode_batch_mean",
        facts.stats.mean_decode_batch(),
        "count",
    ));
    out.push(metric(
        "serve.sched.trace_events",
        facts.sched_events.len() as f64,
        "count",
    ));
    out.push(metric(
        "serve.kv.pages_allocated",
        facts.stats.kv_pages_allocated as f64,
        "count",
    ));
    out.push(metric(
        "serve.kv.pages_freed",
        facts.stats.kv_pages_freed as f64,
        "count",
    ));

    out.push(metric(
        "client.late_p99_ms",
        stats::percentile(&traced.late_ms, 99.0).unwrap_or(0.0),
        "ms",
    ));
    let own = trace::self_times(spans);
    let roots: Vec<u64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, &t)| t)
        .collect();
    let root_count = roots.len().max(1) as f64;
    out.push(metric(
        "client.unattributed_ms",
        ms_of(roots.iter().sum()) / root_count,
        "ms",
    ));
    let op_mean =
        |o: &Outcome| stats::mean(&o.itl.iter().chain(&o.prefill).copied().collect::<Vec<_>>());
    let overhead = match (op_mean(base), op_mean(traced)) {
        (Some(b), Some(t)) if b > 0.0 => (t - b) / b * 100.0,
        _ => 0.0,
    };
    out.push(metric("client.trace_overhead_pct", overhead, "%"));
    out.push(metric(
        "client.itl_p99_ms",
        stats::percentile(&traced.itl, 99.0).unwrap_or(0.0),
        "ms",
    ));
    out.push(metric(
        "client.prefill_p99_ms",
        stats::percentile(&traced.prefill, 99.0).unwrap_or(0.0),
        "ms",
    ));
    let layers = trace::by_layer(spans);
    for layer in [
        "client",
        "client.pacer",
        "serve.server",
        "serve.http",
        "serve.wire",
    ] {
        let t = layers.get(layer).copied().unwrap_or_default();
        out.push(metric(
            &format!("trace.{layer}.self_ms"),
            ms_of(t.self_ns) / root_count,
            "ms",
        ));
        out.push(metric(
            &format!("trace.{layer}.count"),
            t.count as f64,
            "count",
        ));
    }
    out
}

fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Time `reps` cold set-ups, each in a fresh process of this binary, so
/// each pays the one-off start-up costs (worker pool, SIMD dispatch) that
/// a process pays only once.
fn probe_setups(args: &Args, reps: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    (0..reps)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", &args.workload, "--seed"])
                .arg(args.seed.to_string())
                .args(["--setup-probe", "1"])
                .stdin(Stdio::null())
                .output()
                .map_err(|e| format!("start set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| "set-up probe printed no time".to_string())
        })
        .collect()
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cfg = Cfg::load(&args.workload)?;
    // Input generation happens here and is not timed. It touches neither
    // the kernels nor the worker pool: the solo references are computed
    // after the set-up below, so that set-up is the process's first.
    let w = Workload::new(&args.workload, &cfg, args.seed)?;
    if args.probe {
        let t0 = Instant::now();
        let (server, _) = w.setup()?;
        let secs = t0.elapsed().as_secs_f64();
        server.shutdown();
        println!("setup_s {secs}");
        return Ok(true);
    }

    let mut setups = probe_setups(&args, SETUP_REPS - 1)?;
    let t0 = Instant::now();
    let (server, warm) = w.setup()?;
    setups.push(t0.elapsed().as_secs_f64());
    w.check_warmup(&warm)?;
    println!("provenance {}", provenance().render());
    let origin = Instant::now();

    let (tally, metrics) = if !args.trace {
        let mut out = w.measure(&server, args.seconds, 0, false, origin);
        let facts = w.finish(server);
        verify(&w, &mut out);
        let metrics = end_to_end(&setups, &out, &facts)?;
        (out.tally, metrics)
    } else {
        let half = args.seconds / 2.0;
        let mut base = w.measure(&server, half, 0, false, origin);
        let mut traced = w.measure(&server, half, 1, true, origin);
        let facts = w.finish(server);
        verify(&w, &mut base);
        verify(&w, &mut traced);
        let mut spans = traced
            .tracer
            .take()
            .unwrap_or_else(|| Tracer::new(true, origin));

        let mut rng = Rng::new(args.seed ^ 0x5EED_F00D);
        let d = w.sessions().d;
        // The kernel replays run one input of each prefill-mix size: the
        // captured pool entries there, seeded ones elsewhere.
        let generated: Vec<PrefillEntry>;
        let sizes: Vec<&PrefillEntry> = match &w {
            Workload::PrefillMix(p) => p.pool.iter().step_by(p.per_size()).collect(),
            _ => {
                let sizes = Cfg::load("prefill-mix")?.list("prefill_sizes")?;
                generated = common::prefill_pool(&mut rng, &sizes, 1, d);
                common::fill_references(w.mech(), &generated);
                generated.iter().collect()
            }
        };
        let (streams, mix_round, sched_policy, wire_request, wire_reply): (
            usize,
            usize,
            SchedPolicy,
            Vec<u8>,
            Json,
        ) = match &w {
            Workload::PrefillMix(_) => (
                cfg.usize("decode_streams")?,
                cfg.usize("session_rounds")? / 2,
                common::sched_policy(),
                chat_http::prefill_request(sizes[0]),
                common::matrix_json(sizes[0].reference()),
            ),
            Workload::DecodeSessions(p) => {
                let (k, v) = p.sessions.prompt(0);
                let body = Json::obj(vec![
                    ("k", common::matrix_json(k)),
                    ("v", common::matrix_json(v)),
                ]);
                (
                    cfg.usize("sessions")?,
                    cfg.usize("session_rounds")? / 2,
                    common::sched_policy(),
                    common::request_bytes("POST", "/v1/sessions/0/append", &body.render()),
                    body,
                )
            }
            Workload::ChatHttp(c) => (
                1,
                cfg.usize("session_rounds")? / 2,
                SchedPolicy::default(),
                c.prefill_bytes[0].clone(),
                common::matrix_json(c.pool[0].reference()),
            ),
        };
        if facts.sched_events.is_empty() {
            println!(
                "note serve.sched.* read 0: the classic loop keeps no scheduler log to replay"
            );
        }
        let inproc_pass = !spans.spans().iter().any(|s| s.layer == "serve.server");
        let capture = replay::Capture {
            mech: w.mech(),
            sessions: w.sessions(),
            streams,
            mix_round,
            prefill: &sizes,
            sched_policy,
            sched_events: &facts.sched_events,
            wire_request: &wire_request,
            wire_reply: &wire_reply,
            inproc_pass,
            seed: args.seed,
            origin,
        };
        // The server's batcher runs on a spawned thread; replaying on the
        // main thread would measure glibc's main-arena allocator instead.
        let replayed = std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("perfbench-replay".into())
                .spawn_scoped(s, || replay::run(&capture))
                .map_err(|e| format!("spawn replay thread: {e}"))?
                .join()
                .map_err(|_| "replay thread panicked".to_string())
        })?;
        spans.absorb(replayed.spans);
        let mut metrics = replayed.metrics;
        metrics.extend(layer_metrics(
            &base,
            &traced,
            spans.spans(),
            &replayed.inproc,
            &facts,
        ));
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        let mut tally = base.tally;
        tally.absorb(traced.tally);
        tally.absorb(replayed.tally);
        (tally, metrics)
    };

    if args.trace {
        println!(
            "note kernels.bytes_moved and tensor.ragged.bytes_per_flush are computed from tensor sizes, not measured"
        );
        println!(
            "note core.engine.launches_per_iter is derived: the launches one decode flush reports plus serve.sched.chunks_per_iter times the launches one prefill chunk reports"
        );
    }
    for m in &metrics {
        eprintln!("{:<44} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for why in &tally.messages {
        eprintln!("failure: {why}");
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        render_result(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
