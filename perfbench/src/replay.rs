//! The traced run's replay phase: the workload's captured inputs fed
//! through each layer's public functions, one layer at a time, with the
//! benchmark timing every call. Runs on a spawned thread (see `main.rs`).

use crate::chat_http::{self, HttpScript};
use crate::common::{
    CheckPicker, Conn, Mech, Metric, Outcome, PrefillEntry, SessionInputs, Tally, REPLY_TIMEOUT,
};
use crate::session::InprocSession;
use dfss_core::engine::{AttentionEngine, DecodeStep};
use dfss_kernels::GpuCtx;
use dfss_perfbench::stats;
use dfss_perfbench::trace::Tracer;
use dfss_serve::wire::{Json, RequestReader, WireLimits};
use dfss_serve::{
    AttentionServer, KvConfig, KvPool, KvRows, PagedKvCache, SchedEvent, SchedPolicy, Scheduler,
};
use dfss_tensor::{Matrix, PagedPanel, RaggedBatch, Rng};
use std::hint::black_box;
use std::time::Instant;

/// What the replay is fed.
pub struct Capture<'a> {
    pub mech: &'a Mech,
    pub sessions: &'a SessionInputs,
    /// Streams in the workload's decode mix, and the round their cached
    /// lengths are taken at.
    pub streams: usize,
    pub mix_round: usize,
    /// Prefill inputs for the kernel replays, one per size, ascending.
    pub prefill: &'a [&'a PrefillEntry],
    pub sched_policy: SchedPolicy,
    /// Admission sequence and iterations to replay into a standalone
    /// scheduler.
    pub sched_events: &'a [SchedEvent],
    /// A request as the front door reads it, and a reply document as it
    /// renders one.
    pub wire_request: &'a [u8],
    pub wire_reply: &'a Json,
    /// Run a short in-process pass too (when the live phase had no
    /// in-process admission spans).
    pub inproc_pass: bool,
    pub seed: u64,
    pub origin: Instant,
}

/// Replay results: directly measured metrics, plus the spans and replies
/// of the HTTP and in-process passes for the span-based metrics.
pub struct Replayed {
    pub metrics: Vec<Metric>,
    pub spans: Tracer,
    pub inproc: Outcome,
    pub tally: Tally,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls, ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms(t0)
        })
        .collect();
    stats::median(&xs).expect("at least one rep")
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Paged caches of `lens` rows each, built in one pool.
struct Mix {
    pool: KvPool<f32>,
    caches: Vec<PagedKvCache<f32>>,
    q: Matrix<f32>,
}

impl Mix {
    fn new(d: usize, blocks: &[(Matrix<f32>, Matrix<f32>)], q: Matrix<f32>) -> Mix {
        let config = KvConfig::default();
        let mut pool = KvPool::new(&config);
        let caches = blocks
            .iter()
            .map(|(k, v)| {
                let mut c = PagedKvCache::new(&config, d, d).expect("page fits a row");
                c.extend(&mut pool, k, v).expect("unbounded pool");
                c
            })
            .collect();
        Mix { pool, caches, q }
    }

    fn steps(&self) -> Vec<DecodeStep<'_, f32>> {
        self.caches
            .iter()
            .enumerate()
            .map(|(i, c)| DecodeStep {
                q_row: self.q.row(i),
                k_rows: c.k_rows(&self.pool),
                v_rows: c.v_rows(&self.pool),
                len: c.len(),
                d: c.d(),
                d_v: c.d_v(),
            })
            .collect()
    }

    fn panels(&self, k: bool) -> Vec<PagedPanel<'_, f32>> {
        self.caches
            .iter()
            .map(|c| {
                let rows = if k {
                    c.k_rows(&self.pool)
                } else {
                    c.v_rows(&self.pool)
                };
                match rows {
                    KvRows::Paged {
                        pages,
                        rows_per_page,
                    } => PagedPanel {
                        pages,
                        rows_per_page,
                        len: c.len(),
                    },
                    _ => unreachable!("session caches are paged f32"),
                }
            })
            .collect()
    }

    fn bytes(&self) -> f64 {
        let rows: usize = self
            .caches
            .iter()
            .map(|c| c.len() * (c.d() + c.d_v()))
            .sum();
        (rows * 4) as f64
    }
}

/// Flush-decode wall times of a mix, ms per rep.
fn flush_times(mech: &Mech, mix: &Mix, reps: usize) -> Vec<f64> {
    let mut engine = AttentionEngine::new(mech.as_ref());
    let steps = mix.steps();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(engine.flush_decode(&steps).expect("valid steps"));
            engine.reset_timeline();
            ms(t0)
        })
        .collect()
}

pub fn run(c: &Capture) -> Replayed {
    let mut out = Vec::new();
    let d = c.sessions.d;
    let mut launches = 0u64;

    // kernels + gpusim: forward_rows over each prefill size.
    for e in c.prefill {
        let reps = (4096 / e.n).clamp(2, 10);
        out.push(m(
            format!("kernels.forward_rows_ms.{}", e.n),
            time_ms(reps, || {
                black_box(c.mech.forward_rows(&mut GpuCtx::a100(), &e.q, &e.k, &e.v));
            }),
            "ms",
        ));
        let mut ctx = GpuCtx::a100();
        black_box(c.mech.forward_rows(&mut ctx, &e.q, &e.k, &e.v));
        out.push(m(
            format!("gpusim.sim_ms.{}", e.n),
            ctx.latency() * 1e3,
            "ms",
        ));
        launches += ctx
            .timeline
            .entries()
            .iter()
            .map(|p| p.launches)
            .sum::<u64>();
    }

    // The workload's decode mix: pack, kernel and the engine's flush.
    let blocks: Vec<_> = (0..c.streams as u64)
        .map(|o| c.sessions.cache(o, c.mix_round))
        .collect();
    let q = Matrix::from_vec(
        c.streams,
        d,
        (0..c.streams as u64)
            .flat_map(|o| c.sessions.q_row(o, c.mix_round).to_vec())
            .collect(),
    );
    let mix = Mix::new(d, &blocks, q);
    let (kp, vp) = (mix.panels(true), mix.panels(false));
    out.push(m(
        "tensor.ragged.gather_paged_ms",
        time_ms(50, || {
            black_box(RaggedBatch::gather_paged(d, &kp));
            black_box(RaggedBatch::gather_paged(d, &vp));
        }),
        "ms",
    ));
    out.push(m("tensor.ragged.bytes_per_flush", mix.bytes(), "B"));
    let (kb, vb) = (
        RaggedBatch::gather_paged(d, &kp),
        RaggedBatch::gather_paged(d, &vp),
    );
    out.push(m(
        "kernels.decode_ragged_ms",
        time_ms(50, || {
            black_box(c.mech.decode_ragged(&mut GpuCtx::a100(), &mix.q, &kb, &vb));
        }),
        "ms",
    ));
    let mut ctx = GpuCtx::a100();
    black_box(c.mech.decode_ragged(&mut ctx, &mix.q, &kb, &vb));
    out.push(m("gpusim.sim_ms.decode", ctx.latency() * 1e3, "ms"));
    launches += ctx
        .timeline
        .entries()
        .iter()
        .map(|p| p.launches)
        .sum::<u64>();
    out.push(m("gpusim.launches", launches as f64, "count"));
    let q_bytes = (2 * c.streams * d * 4) as f64;
    out.push(m("kernels.bytes_moved", mix.bytes() + q_bytes, "B"));
    let flush = flush_times(c.mech, &mix, 50);
    out.push(m(
        "core.engine.flush_decode_ms",
        stats::median(&flush).expect("reps"),
        "ms",
    ));
    let mut engine = AttentionEngine::new(c.mech.as_ref());
    engine.flush_decode(&mix.steps()).expect("valid steps");
    let decode_launches = engine.last_decode().launches() as f64;

    // The unsteady regime: 16 streams of 2048 cached rows.
    let mut rng = Rng::new(c.seed ^ 0x16_2048);
    let big: Vec<_> = (0..16)
        .map(|_| {
            (
                Matrix::random_normal(2048, d, 0.0, 1.0, &mut rng),
                Matrix::random_normal(2048, d, 0.0, 1.0, &mut rng),
            )
        })
        .collect();
    let big = Mix::new(d, &big, Matrix::random_normal(16, d, 0.0, 1.0, &mut rng));
    let flush = flush_times(c.mech, &big, 30);
    out.push(m(
        "core.engine.flush_decode_ms.16x2048",
        stats::median(&flush).expect("reps"),
        "ms",
    ));
    out.push(m(
        "core.engine.flush_decode_spread.16x2048",
        stats::quartile_spread(&flush).unwrap_or(0.0),
        "ratio",
    ));

    // core.engine: one prefill chunk of the scheduler's size.
    let mid = c.prefill[c.prefill.len() / 2];
    let chunk = mid.q.take_rows(0, c.sched_policy.prefill_chunk.min(mid.n));
    let mut chunk_launches = 0u64;
    out.push(m(
        "core.engine.forward_chunk_ms",
        time_ms(20, || {
            let mut engine = AttentionEngine::new(c.mech.as_ref());
            let r = engine
                .forward_chunk(&chunk, &mid.k, &mid.v)
                .expect("valid chunk");
            chunk_launches = r.launches;
        }),
        "ms",
    ));

    // serve.sched: the admission sequence replayed into a scheduler.
    let mut sched = Scheduler::new(c.sched_policy);
    let (mut iterations, mut chunks, mut plan_ns) = (0u64, 0u64, 0u128);
    for e in c.sched_events {
        match e {
            SchedEvent::AdmitPrefill { job, rows } => sched.admit_prefill(*job, *rows),
            SchedEvent::AdmitDecode { step } => sched.admit_decode(*step),
            SchedEvent::Iteration { .. } => {
                let t0 = Instant::now();
                let plan = sched.next_iteration();
                plan_ns += t0.elapsed().as_nanos();
                if let Some(p) = plan {
                    iterations += 1;
                    chunks += p.chunks.len() as u64;
                }
            }
            SchedEvent::ForcedDecode { .. } => {
                sched.force_decode_flush();
            }
            SchedEvent::Cancel { job } => {
                sched.cancel(*job);
            }
            SchedEvent::Steal { job, lo, hi, by } => sched.note_steal(*job, *lo, *hi, *by),
        }
    }
    let per_iter = |x: f64| {
        if iterations == 0 {
            0.0
        } else {
            x / iterations as f64
        }
    };
    let chunks_per_iter = per_iter(chunks as f64);
    out.push(m("serve.sched.iterations", iterations as f64, "count"));
    out.push(m("serve.sched.chunks_per_iter", chunks_per_iter, "count"));
    out.push(m(
        "serve.sched.next_iteration_us",
        per_iter(plan_ns as f64 / 1e3),
        "us",
    ));
    out.push(m(
        "core.engine.launches_per_iter",
        decode_launches + chunks_per_iter * chunk_launches as f64,
        "count",
    ));

    // serve.kv: page-table writes on a standalone pool.
    let config = KvConfig::default();
    let (pk, pv) = c.sessions.prompt(0);
    let extend = time_ms(20, || {
        let mut pool = KvPool::new(&config);
        let mut cache = PagedKvCache::new(&config, d, d).expect("page fits a row");
        cache.extend(&mut pool, pk, pv).expect("unbounded pool");
        cache.release(&mut pool);
    });
    out.push(m(
        "serve.kv.extend_us_per_krow",
        extend * 1e3 / (pk.rows() as f64 / 1e3),
        "us/krow",
    ));
    let appends = 512usize;
    let append = time_ms(5, || {
        let mut pool = KvPool::new(&config);
        let mut cache = PagedKvCache::new(&config, d, d).expect("page fits a row");
        for r in 0..appends {
            let (k, v) = (c.sessions.k_row(0, r), c.sessions.v_row(0, r));
            cache.append(&mut pool, k, v).expect("unbounded pool");
        }
        cache.release(&mut pool);
    });
    out.push(m("serve.kv.append_us", append * 1e3 / appends as f64, "us"));

    // serve.wire: the captured request read, parsed, and a reply rendered.
    let limits = WireLimits::default();
    let body = RequestReader::new(c.wire_request)
        .read_request(&limits)
        .ok()
        .flatten()
        .map(|r| r.body)
        .unwrap_or_default();
    out.push(m(
        "serve.wire.read_request_us",
        time_ms(20, || {
            black_box(
                RequestReader::new(c.wire_request)
                    .read_request(&limits)
                    .ok(),
            );
        }) * 1e3,
        "us",
    ));
    let mib = |n: usize| n.max(1) as f64 / (1024.0 * 1024.0);
    out.push(m(
        "serve.wire.parse_ms_per_mib",
        time_ms(10, || {
            black_box(Json::parse(&body).ok());
        }) / mib(body.len()),
        "ms/MiB",
    ));
    let rendered = c.wire_reply.render().len();
    out.push(m(
        "serve.wire.render_ms_per_mib",
        time_ms(10, || {
            black_box(c.wire_reply.render());
        }) / mib(rendered),
        "ms/MiB",
    ));

    // Loopback HTTP pass (and, when the live phase had none, an
    // in-process pass) over a short conversation-and-prefill script.
    let mut spans = Tracer::new(true, c.origin);
    let mut http = Outcome::default();
    let mut inproc = Outcome::default();
    let small = c.prefill[0];
    let script = HttpScript::new(c.sessions);
    let mut picker = CheckPicker::new(1, 0);
    match chat_http::bind(c.mech.clone()) {
        Ok(server) => {
            match Conn::connect(server.local_addr()) {
                Ok(mut conn) => {
                    let bytes = chat_http::prefill_request(small);
                    for i in 0..4u64 {
                        chat_http::conversation(
                            &mut conn,
                            c.sessions,
                            &script,
                            1_000_000 + i,
                            8,
                            &mut http,
                            &mut spans,
                            &mut picker,
                        );
                        for j in 0..2 {
                            chat_http::prefill(
                                &mut conn,
                                small,
                                &bytes,
                                i * 2 + j,
                                &mut http,
                                &mut spans,
                            );
                        }
                    }
                }
                Err(e) => http.tally.fail(e),
            }
            server.shutdown();
        }
        Err(e) => http.tally.fail(e),
    }
    if c.inproc_pass {
        let server = AttentionServer::start(c.mech.clone(), chat_http::policy());
        for i in 0..4u64 {
            if let Some(mut s) = InprocSession::open(
                &server,
                c.sessions,
                2_000_000 + i,
                8,
                &mut inproc.tally,
                &mut spans,
            ) {
                while let Some(step) = s.decode(&server, &mut inproc.tally, &mut spans) {
                    inproc.queue_ms.push(step.queue_ms);
                    inproc.service_ms.push(step.service_ms);
                }
                s.close(&server, &mut inproc.tally, &mut spans);
            }
            let t0 = Instant::now();
            let r = server.submit(small.q.clone(), small.k.clone(), small.v.clone());
            let t1 = Instant::now();
            let root = spans.open("client", "prefill", i, t0);
            spans.record("serve.server", "admit", root, i, t0, t1);
            match r.map(|h| h.wait_timeout(REPLY_TIMEOUT)) {
                Ok(Ok(s)) => {
                    let done = Instant::now();
                    inproc.queue_ms.push(s.queue_wait.as_secs_f64() * 1e3);
                    inproc.service_ms.push(s.service.as_secs_f64() * 1e3);
                    spans.close(root, done);
                    inproc.tally.ok();
                }
                Ok(Err(e)) | Err(e) => {
                    spans.close(root, Instant::now());
                    inproc.tally.fail(format!("replay prefill: {e}"));
                }
            }
        }
        server.shutdown();
    }
    let mut tally = http.tally;
    tally.absorb(std::mem::take(&mut inproc.tally));
    Replayed {
        metrics: out,
        spans,
        inproc,
        tally,
    }
}
