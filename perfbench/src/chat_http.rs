//! `chat-http`: loopback HTTP against `HttpServer::bind`, configured in
//! code as `examples/http_server.rs` configures it (classic loop, DFSS
//! 1:2, `batched(8, 1 ms)`, queue depth 64). One keep-alive connection runs
//! conversations; a second sends closed-loop `/v1/prefill` requests.
//!
//! `serve::wire` JSON dominates here: an n = 256 prefill spends far longer
//! rendering and parsing its body than in the kernel, so wire and HTTP
//! changes show up here and predict no change in-process.

use crate::common::matrix_json;
use crate::common::{
    fill_references, output_of, prefill_pool, request_bytes, same_bits, Cfg, CheckPicker, Conn,
    DecodeCheck, Mech, Outcome, PrefillEntry, Server, SessionInputs, WarmPrefill,
    MAX_DECODE_CHECKS,
};
use dfss_core::dfss::DfssAttention;
use dfss_nmsparse::NmPattern;
use dfss_perfbench::trace::Tracer;
use dfss_serve::http::{HttpConfig, HttpServer};
use dfss_serve::wire::Json;
use dfss_serve::{AttentionServer, BatchPolicy};
use dfss_tensor::Rng;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct prompt blocks conversations cycle through.
const PROMPT_POOL: usize = 4;

/// Distinct `/v1/prefill` inputs the prefill connection cycles through.
const PREFILL_POOL: usize = 2;

/// Every this many decode steps, one is kept for the bit check.
const DECODE_CHECK_EVERY: usize = 5;

/// The mechanism `examples/http_server.rs` serves: DFSS 1:2.
pub fn mech() -> Mech {
    Arc::new(DfssAttention::new(NmPattern::P1_2))
}

/// The batching policy `examples/http_server.rs` starts its server with.
pub fn policy() -> BatchPolicy {
    BatchPolicy::batched(8, Duration::from_millis(1)).with_queue_depth(64)
}

/// Pre-rendered prompt-block bodies of one session input set, so a
/// conversation's extend request costs no rendering inside the timer.
pub struct HttpScript {
    prompt_bodies: Vec<String>,
}

impl HttpScript {
    pub fn new(inputs: &SessionInputs) -> HttpScript {
        let prompt_bodies = inputs
            .prompts()
            .iter()
            .map(|(k, v)| Json::obj(vec![("k", matrix_json(k)), ("v", matrix_json(v))]).render())
            .collect();
        HttpScript { prompt_bodies }
    }
}

/// One timed HTTP call. Rendering happens before the timer starts and
/// parsing after it stops; the spans record all three.
fn call<'b, T>(
    conn: &mut Conn,
    tr: &mut Tracer,
    op: &'static str,
    req: u64,
    render: impl FnOnce() -> Cow<'b, [u8]>,
    parse: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let r0 = Instant::now();
    let bytes = render();
    let t0 = Instant::now();
    let resp = conn.exchange(&bytes);
    let t1 = Instant::now();
    let parsed = resp.and_then(|r| parse(&r.body));
    let t2 = Instant::now();
    let root = tr.open("client", op, req, r0);
    tr.record("serve.wire", "render", root, req, r0, t0);
    tr.record("serve.http", op, root, req, t0, t1);
    tr.record("serve.wire", "parse", root, req, t1, t2);
    tr.close(root, t2);
    parsed
        .map(|v| (v, (t1 - t0).as_secs_f64() * 1e3))
        .map_err(|e| format!("{op}: {e}"))
}

fn post(path: &str, body: &Json) -> Cow<'static, [u8]> {
    Cow::Owned(request_bytes("POST", path, &body.render()))
}

/// Run one conversation over `conn`: open, one prompt-block append,
/// `rounds` × (decode, append a row), DELETE. Decode latencies land in
/// `out.itl`; returns whether the conversation completed.
#[allow(clippy::too_many_arguments)]
pub fn conversation(
    conn: &mut Conn,
    inputs: &SessionInputs,
    script: &HttpScript,
    ordinal: u64,
    rounds: usize,
    out: &mut Outcome,
    tr: &mut Tracer,
    picker: &mut CheckPicker,
) -> bool {
    let d = inputs.d as f64;
    let opened = call(
        conn,
        tr,
        "open",
        ordinal,
        || post("/v1/sessions", &Json::obj(vec![("d", Json::Num(d))])),
        |b| {
            Json::parse(b)?
                .get("session")
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| "no session id".to_string())
        },
    );
    let Some((id, _)) = out.tally.check("open", opened) else {
        return false;
    };
    let session = format!("/v1/sessions/{id}");
    let append = format!("{session}/append");
    let decode = format!("{session}/decode");
    let body = &script.prompt_bodies[inputs.prompt_index(ordinal)];
    let extended = call(
        conn,
        tr,
        "extend",
        ordinal,
        || Cow::Owned(request_bytes("POST", &append, body)),
        |_| Ok(()),
    );
    let mut ok = out.tally.check("extend", extended).is_some();
    for round in 0..rounds {
        if !ok {
            break;
        }
        let q = inputs.q_row(ordinal, round);
        let want_len = inputs.cached_len(ordinal, round) as f64;
        let stepped = call(
            conn,
            tr,
            "decode",
            ordinal,
            || post(&decode, &Json::obj(vec![("q_row", Json::f32_row(q))])),
            |b| {
                let len = Json::parse(b)?.get("cached_len").and_then(Json::as_f64);
                if len != Some(want_len) {
                    return Err(format!(
                        "decode attended {len:?} rows, {want_len} were appended"
                    ));
                }
                output_of(b)
            },
        );
        match out.tally.check("decode", stepped) {
            Some((output, ms)) => {
                out.itl.push(ms);
                out.decode_steps += 1;
                if picker.pick(out.checks.len()) {
                    out.checks.push(DecodeCheck {
                        ordinal,
                        round,
                        output,
                    });
                }
            }
            None => ok = false,
        }
        let row = Json::obj(vec![
            ("k_row", Json::f32_row(inputs.k_row(ordinal, round))),
            ("v_row", Json::f32_row(inputs.v_row(ordinal, round))),
        ]);
        let appended = call(
            conn,
            tr,
            "append",
            ordinal,
            || post(&append, &row),
            |_| Ok(()),
        );
        ok &= out.tally.check("append", appended).is_some();
    }
    let closed = call(
        conn,
        tr,
        "close",
        ordinal,
        || Cow::Owned(request_bytes("DELETE", &session, "")),
        |_| Ok(()),
    );
    out.tally.check("close", closed).is_some() && ok
}

/// One `/v1/prefill` exchange of pre-rendered `bytes`: the served output
/// and the exchange's latency, ms.
fn exchange_prefill(
    conn: &mut Conn,
    bytes: &[u8],
    req: u64,
    tr: &mut Tracer,
) -> Result<(Vec<f32>, f64), String> {
    call(conn, tr, "prefill", req, || Cow::Borrowed(bytes), output_of)
}

/// One closed-loop `/v1/prefill` of pool entry `entry`, bit-checked
/// against its solo forward. Latency lands in `out.prefill`.
pub fn prefill(
    conn: &mut Conn,
    entry: &PrefillEntry,
    bytes: &[u8],
    req: u64,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> bool {
    let checked = exchange_prefill(conn, bytes, req, tr).and_then(|(output, ms)| {
        if same_bits(&output, entry.reference().as_slice()) {
            Ok(ms)
        } else {
            Err(format!("prefill n={} diverged from solo forward", entry.n))
        }
    });
    match out.tally.check("prefill", checked) {
        Some(ms) => {
            out.prefill.push(ms);
            true
        }
        None => false,
    }
}

/// A prefill request rendered to bytes.
pub fn prefill_request(e: &PrefillEntry) -> Vec<u8> {
    let body = Json::obj(vec![
        ("q", matrix_json(&e.q)),
        ("k", matrix_json(&e.k)),
        ("v", matrix_json(&e.v)),
    ]);
    request_bytes("POST", "/v1/prefill", &body.render())
}

/// Bind the front door exactly as `examples/http_server.rs` does.
pub fn bind(mech: Mech) -> Result<HttpServer, String> {
    let att = AttentionServer::start(mech, policy());
    HttpServer::bind(att, HttpConfig::default()).map_err(|e| format!("bind loopback: {e}"))
}

pub struct ChatHttp {
    pub mech: Mech,
    pub sessions: SessionInputs,
    pub script: HttpScript,
    rounds: usize,
    pub pool: Vec<PrefillEntry>,
    pub prefill_bytes: Vec<Vec<u8>>,
    next_ordinal: AtomicU64,
    /// Prefill rows plus decode steps served by the current server.
    pub rows: AtomicU64,
}

impl ChatHttp {
    pub fn new(cfg: &Cfg, seed: u64) -> Result<ChatHttp, String> {
        cfg.expect_threads(2)?;
        let d = cfg.usize("d")?;
        let prompt = cfg.list("prompt_rows")?;
        let [lo, hi] = prompt[..] else {
            return Err("chat-http: \"prompt_rows\" must be [lo, hi]".into());
        };
        let mut rng = Rng::new(seed);
        let pool = prefill_pool(&mut rng, &[cfg.usize("prefill_n")?], PREFILL_POOL, d);
        let sessions = SessionInputs::new(&mut rng, d, PROMPT_POOL, lo, hi);
        Ok(ChatHttp {
            prefill_bytes: pool.iter().map(prefill_request).collect(),
            script: HttpScript::new(&sessions),
            mech: mech(),
            sessions,
            rounds: cfg.usize("session_rounds")?,
            pool,
            next_ordinal: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        })
    }

    /// Solo-forward references of the prefill pool.
    pub fn fill_references(&self) {
        fill_references(&self.mech, &self.pool);
    }

    /// Bind the front door and warm it with one short conversation and
    /// one prefill per pool entry. The warm-up's prefill outputs are
    /// returned for the bit check, which runs once references exist.
    pub fn setup(&self) -> Result<(Server, Vec<WarmPrefill>), String> {
        self.rows.store(0, Ordering::Relaxed);
        let server = bind(self.mech.clone())?;
        let mut conn = Conn::connect(server.local_addr())?;
        let mut out = Outcome::default();
        let mut tr = Tracer::new(false, Instant::now());
        let mut picker = CheckPicker::new(1, 0);
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
        conversation(
            &mut conn,
            &self.sessions,
            &self.script,
            ordinal,
            4,
            &mut out,
            &mut tr,
            &mut picker,
        );
        if out.tally.failed > 0 {
            return Err(format!("warm-up failed: {:?}", out.tally.messages));
        }
        let mut warm = Vec::new();
        for (entry, bytes) in self.prefill_bytes.iter().enumerate() {
            let (output, _) = exchange_prefill(&mut conn, bytes, entry as u64, &mut tr)
                .map_err(|e| format!("warm-up {e}"))?;
            warm.push(WarmPrefill { entry, output });
            self.rows
                .fetch_add(self.pool[entry].n as u64, Ordering::Relaxed);
        }
        self.rows.fetch_add(out.decode_steps, Ordering::Relaxed);
        Ok((Server::Http(server), warm))
    }

    pub fn measure(&self, server: &Server, seconds: f64, traced: bool, origin: Instant) -> Outcome {
        let addr = server.addr();
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let conversations = || {
            let mut out = Outcome::default();
            let mut tr = Tracer::new(traced, origin);
            let mut picker = CheckPicker::new(DECODE_CHECK_EVERY, MAX_DECODE_CHECKS);
            match Conn::connect(addr) {
                Ok(mut conn) => {
                    while start.elapsed() < window {
                        let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
                        let before = out.decode_steps;
                        if conversation(
                            &mut conn,
                            &self.sessions,
                            &self.script,
                            ordinal,
                            self.rounds,
                            &mut out,
                            &mut tr,
                            &mut picker,
                        ) {
                            out.sessions_done += 1;
                        }
                        self.rows
                            .fetch_add(out.decode_steps - before, Ordering::Relaxed);
                    }
                }
                Err(e) => out.tally.fail(e),
            }
            out.start = Some(start);
            out.end = Some(Instant::now());
            out.tracer = Some(tr);
            out
        };
        let prefills = || {
            let mut out = Outcome::default();
            let mut tr = Tracer::new(traced, origin);
            match Conn::connect(addr) {
                Ok(mut conn) => {
                    let mut i = 0usize;
                    while start.elapsed() < window {
                        let k = i % self.pool.len();
                        let e = &self.pool[k];
                        if prefill(
                            &mut conn,
                            e,
                            &self.prefill_bytes[k],
                            i as u64,
                            &mut out,
                            &mut tr,
                        ) {
                            self.rows.fetch_add(e.n as u64, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                }
                Err(e) => out.tally.fail(e),
            }
            out.start = Some(start);
            out.end = Some(Instant::now());
            out.tracer = Some(tr);
            out
        };
        let (mut a, b) = std::thread::scope(|s| {
            let conv = s.spawn(conversations);
            let pre = s.spawn(prefills);
            (
                conv.join().expect("conversation client panicked"),
                pre.join().expect("prefill client panicked"),
            )
        });
        a.absorb(b);
        a
    }
}
