//! `prefill-mix`: open-loop Poisson prefills of mixed size against the
//! continuous server, with four paced decode streams riding along.
//!
//! The paper's kernels do nearly all the work here (`forward_rows` through
//! `forward_chunk`, packed by the scheduler); the decode streams measure
//! how long a token waits behind prefill chunks.

use crate::common::{
    dfss_2_4, fill_references, prefill_pool, same_bits, sched_policy, sleep_until, Cfg,
    CheckPicker, DecodeCheck, Mech, Outcome, PrefillEntry, Server, SessionInputs, Tally,
    WarmPrefill, MAX_DECODE_CHECKS, REPLY_TIMEOUT,
};
use crate::session::{InprocSession, Submitted};
use dfss_perfbench::stats::Paced;
use dfss_perfbench::trace::Tracer;
use dfss_serve::{AttentionServer, BatchPolicy, KvConfig, ResponseHandle, ServeError, Served};
use dfss_tensor::Rng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest the prefill generator blocks on the reply it expects first
/// while others are out too: a reply that arrives before the expected one
/// is stamped at most this late.
const POLL: Duration = Duration::from_millis(1);

/// Longest the decode pacer blocks on one reply before looking again.
const WAIT_CAP: Duration = Duration::from_millis(10);

/// Distinct inputs per prefill size.
const POOL_PER_SIZE: usize = 2;

/// Every this many decode steps, one is kept for the bit check.
const DECODE_CHECK_EVERY: usize = 7;

pub struct PrefillMix {
    pub mech: Mech,
    rate: f64,
    sizes: Vec<usize>,
    /// One block of size indices: each size repeated by its weight.
    block: Vec<usize>,
    pub pool: Vec<PrefillEntry>,
    pub sessions: SessionInputs,
    streams: usize,
    period: Duration,
    rounds: usize,
    seed: u64,
    next_ordinal: AtomicU64,
    /// Prefill rows plus decode steps served by the current server.
    pub rows: AtomicU64,
}

impl PrefillMix {
    pub fn new(cfg: &Cfg, seed: u64) -> Result<PrefillMix, String> {
        cfg.expect_threads(2)?;
        let mech = dfss_2_4();
        let d = cfg.usize("d")?;
        let sizes = cfg.list("prefill_sizes")?;
        let weights = cfg.list("prefill_weights")?;
        if weights.len() != sizes.len() {
            return Err("prefill-mix: one weight per prefill size".into());
        }
        let block = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
            .collect();
        let prompt = cfg.list("prompt_rows")?;
        let [lo, hi] = prompt[..] else {
            return Err("prefill-mix: \"prompt_rows\" must be [lo, hi]".into());
        };
        let mut rng = Rng::new(seed);
        let pool = prefill_pool(&mut rng, &sizes, POOL_PER_SIZE, d);
        let sessions = SessionInputs::new(&mut rng, d, 8, lo, hi);
        Ok(PrefillMix {
            mech,
            rate: cfg.num("prefill_rate_per_s")?,
            sizes,
            block,
            pool,
            sessions,
            streams: cfg.usize("decode_streams")?,
            period: Duration::from_secs_f64(cfg.num("decode_period_ms")? / 1e3),
            rounds: cfg.usize("session_rounds")?,
            seed,
            next_ordinal: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        })
    }

    /// Distinct inputs per prefill size in the pool.
    pub fn per_size(&self) -> usize {
        self.pool.len() / self.sizes.len()
    }

    /// Solo-forward references of the prefill pool.
    pub fn fill_references(&self) {
        fill_references(&self.mech, &self.pool);
    }

    /// Start the continuous server and warm it: one prefill of every size
    /// and one short decode session. The warm-up's prefill outputs are
    /// returned for the bit check, which runs once references exist.
    pub fn setup(&self) -> Result<(Server, Vec<WarmPrefill>), String> {
        self.rows.store(0, Ordering::Relaxed);
        let server = AttentionServer::start_continuous_with_kv(
            self.mech.clone(),
            BatchPolicy::per_request(),
            sched_policy(),
            KvConfig::default(),
        );
        let mut warm = Vec::new();
        for entry in (0..self.pool.len()).step_by(self.per_size()) {
            let e = &self.pool[entry];
            let served = server
                .submit(e.q.clone(), e.k.clone(), e.v.clone())
                .map_err(|e| e.to_string())?
                .wait_timeout(REPLY_TIMEOUT)
                .map_err(|e| format!("warm-up prefill: {e}"))?;
            warm.push(WarmPrefill {
                entry,
                output: served.output.into_vec(),
            });
            self.rows.fetch_add(e.n as u64, Ordering::Relaxed);
        }
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
        let mut tally = Tally::default();
        let mut spans = Tracer::new(false, Instant::now());
        let mut s =
            InprocSession::open(&server, &self.sessions, ordinal, 4, &mut tally, &mut spans);
        while s
            .as_mut()
            .and_then(|s| s.decode(&server, &mut tally, &mut spans))
            .is_some()
        {
            self.rows.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(s) = s {
            s.close(&server, &mut tally, &mut spans);
        }
        if tally.failed > 0 {
            return Err(format!("warm-up session failed: {:?}", tally.messages));
        }
        Ok((Server::InProc(server), warm))
    }

    /// Arrival offsets (seconds) and pool entries of one window's
    /// prefills. Arrivals are a Poisson process at the configured rate,
    /// conditioned on its expected count (`rate × seconds` arrival times
    /// drawn uniformly over the window), so every window holds enough
    /// samples for its tail percentile. Sizes cycle through shuffled blocks
    /// holding each size as often as its weight, so every window carries
    /// the same size mix.
    fn schedule(&self, seconds: f64, phase: u64) -> Vec<(f64, usize)> {
        let mut rng = Rng::new(self.seed ^ 0xA11C_E5ED ^ phase.wrapping_mul(0x9E37_79B9));
        let per_size = self.per_size();
        let count = (self.rate * seconds).round() as usize;
        let mut times: Vec<f64> = (0..count).map(|_| rng.uniform() * seconds).collect();
        times.sort_by(f64::total_cmp);
        let mut block: Vec<usize> = Vec::new();
        let mut uses = vec![0usize; self.sizes.len()];
        times
            .into_iter()
            .map(|t| {
                if block.is_empty() {
                    block = self.block.clone();
                    rng.shuffle(&mut block);
                }
                let size = block.pop().expect("refilled above");
                uses[size] += 1;
                (t, size * per_size + (uses[size] - 1) % per_size)
            })
            .collect()
    }

    pub fn measure(
        &self,
        server: &Server,
        seconds: f64,
        phase: u64,
        traced: bool,
        origin: Instant,
    ) -> Outcome {
        let server = server.inproc();
        let schedule = self.schedule(seconds, phase);
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_secs_f64(seconds);
        let (mut a, b) = std::thread::scope(|s| {
            let gen = s.spawn(|| self.prefills(server, &schedule, start, traced, origin));
            let pacer = s.spawn(|| self.decode_streams(server, start, end, traced, origin));
            (
                gen.join().expect("prefill generator panicked"),
                pacer.join().expect("decode pacer panicked"),
            )
        });
        a.absorb(b);
        a
    }

    fn prefills(
        &self,
        server: &AttentionServer<f32>,
        schedule: &[(f64, usize)],
        start: Instant,
        traced: bool,
        origin: Instant,
    ) -> Outcome {
        struct Pending {
            entry: usize,
            due: Instant,
            sent: Instant,
            after: Instant,
            handle: ResponseHandle<f32>,
        }
        let mut out = Outcome::default();
        let mut tracer = Tracer::new(traced, origin);
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut last_done = start;
        // `done` is when this thread had the reply in hand.
        let mut settle = |p: Pending,
                          res: Result<Served<f32>, ServeError>,
                          done: Instant,
                          out: &mut Outcome,
                          tr: &mut Tracer| {
            let e = &self.pool[p.entry];
            let served = match res {
                Ok(s) => s,
                Err(err) => return out.tally.fail(format!("prefill n={}: {err}", e.n)),
            };
            last_done = last_done.max(done);
            let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
            let paced = Paced {
                due: ns(p.due),
                sent: ns(p.sent),
                done: ns(done),
            };
            out.prefill.push(paced.latency_ms());
            out.late_ms.push(paced.late_ms());
            out.queue_ms.push(served.queue_wait.as_secs_f64() * 1e3);
            out.service_ms.push(served.service.as_secs_f64() * 1e3);
            let req = served.ticket.0;
            let root = tr.open("client", "prefill", req, p.due);
            tr.record("client.pacer", "late", root, req, p.due, p.sent);
            tr.record("serve.server", "admit", root, req, p.sent, p.after);
            let q_end = p.after + served.queue_wait;
            tr.record("serve.server", "queue", root, req, p.after, q_end);
            tr.record(
                "serve.server",
                "service",
                root,
                req,
                q_end,
                q_end + served.service,
            );
            tr.close(root, done);
            if same_bits(served.output.as_slice(), e.reference().as_slice()) {
                self.rows.fetch_add(e.n as u64, Ordering::Relaxed);
                out.tally.ok();
            } else {
                out.tally
                    .fail(format!("prefill n={} diverged from solo forward", e.n));
            }
        };
        // Settle replies until `until` (all of them when `None`). The
        // scheduler deals chunks round-robin, so the prefill with the
        // fewest rows finishes first: the thread blocks on that reply —
        // until `until` when it is the only one out, for at most `POLL`
        // otherwise — and polls the rest. Every reply is stamped when it
        // arrives, give or take `POLL` for one that beats the expected.
        let mut reap = |pending: &mut VecDeque<Pending>,
                        until: Option<Instant>,
                        out: &mut Outcome,
                        tr: &mut Tracer| loop {
            let mut i = 0;
            while i < pending.len() {
                match pending[i].handle.wait_timeout(Duration::ZERO) {
                    Err(ServeError::WaitTimeout) => i += 1,
                    res => {
                        let done = Instant::now();
                        let p = pending.remove(i).expect("index in range");
                        settle(p, res, done, out, tr);
                    }
                }
            }
            let now = Instant::now();
            if pending.is_empty() || until.is_some_and(|u| now >= u) {
                return;
            }
            if let Some(stuck) = pending.iter().position(|p| now >= p.sent + REPLY_TIMEOUT) {
                let p = pending.remove(stuck).expect("index in range");
                settle(p, Err(ServeError::WaitTimeout), now, out, tr);
                continue;
            }
            let (first, _) = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| (self.pool[p.entry].n, p.sent))
                .expect("pending is not empty");
            let mut wait = until.map_or(REPLY_TIMEOUT, |u| u - now);
            if pending.len() > 1 {
                wait = wait.min(POLL);
            }
            match pending[first].handle.wait_timeout(wait) {
                Err(ServeError::WaitTimeout) => {}
                res => {
                    let done = Instant::now();
                    let p = pending.remove(first).expect("index in range");
                    settle(p, res, done, out, tr);
                }
            }
        };
        for &(offset, entry) in schedule {
            let due = start + Duration::from_secs_f64(offset);
            let e = &self.pool[entry];
            let (q, k, v) = (e.q.clone(), e.k.clone(), e.v.clone());
            reap(&mut pending, Some(due), &mut out, &mut tracer);
            sleep_until(due);
            let sent = Instant::now();
            let submitted = server.submit(q, k, v);
            let after = Instant::now();
            match submitted {
                Ok(handle) => pending.push_back(Pending {
                    entry,
                    due,
                    sent,
                    after,
                    handle,
                }),
                Err(err) => out.tally.fail(format!("submit prefill n={}: {err}", e.n)),
            }
        }
        reap(&mut pending, None, &mut out, &mut tracer);
        out.start = Some(start);
        out.end = Some(last_done);
        out.tracer = Some(tracer);
        out
    }

    /// Paced streams, each one decode step per period (offset evenly
    /// across the period), each step followed by one appended row once its
    /// reply is in; a session closes after its rounds and a fresh one
    /// replaces it. Steps go out at their due time whether or not other
    /// streams' replies are in, as independent users would send them.
    /// First sessions are shortened by stream index so closes spread out.
    fn decode_streams(
        &self,
        server: &AttentionServer<f32>,
        start: Instant,
        end: Instant,
        traced: bool,
        origin: Instant,
    ) -> Outcome {
        struct Stream<'i> {
            session: Option<InprocSession<'i>>,
            due: Instant,
            pending: Option<Submitted>,
        }
        let mut out = Outcome::default();
        let mut spans = Tracer::new(traced, origin);
        let mut picker = CheckPicker::new(DECODE_CHECK_EVERY, MAX_DECODE_CHECKS);
        let n = self.streams.max(1);
        let mut streams: Vec<Stream> = (0..n)
            .map(|i| {
                let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
                let rounds = self.rounds - i * self.rounds / n;
                Stream {
                    session: InprocSession::open(
                        server,
                        &self.sessions,
                        ordinal,
                        rounds,
                        &mut out.tally,
                        &mut spans,
                    ),
                    due: start + self.period.mul_f64(i as f64 / n as f64),
                    pending: None,
                }
            })
            .collect();
        let mut last_done = start;
        let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
        let next_due = |streams: &[Stream]| {
            streams
                .iter()
                .filter(|st| st.pending.is_none() && st.session.is_some() && st.due < end)
                .map(|st| st.due)
                .min()
        };
        loop {
            // Block on the oldest outstanding step until the next send is
            // due, and poll the others. The continuous loop packs every
            // ready decode step into each iteration, so steps complete in
            // the order they were sent and each is stamped as it arrives.
            let now = Instant::now();
            let first_wait = next_due(&streams)
                .map_or(WAIT_CAP, |d| d.saturating_duration_since(now))
                .min(WAIT_CAP);
            let mut order: Vec<usize> = (0..n).filter(|&i| streams[i].pending.is_some()).collect();
            order.sort_by_key(|&i| streams[i].pending.as_ref().map(Submitted::sent));
            for (k, &i) in order.iter().enumerate() {
                let st = &mut streams[i];
                let (Some(s), Some(sub)) = (st.session.as_mut(), st.pending.take()) else {
                    continue;
                };
                let wait = if k == 0 { first_wait } else { Duration::ZERO };
                match s.poll(sub, wait, &mut out.tally, &mut spans) {
                    Err(sub) => {
                        st.pending = Some(sub);
                        continue;
                    }
                    Ok(Some(step)) => {
                        let paced = Paced {
                            due: ns(step.due),
                            sent: ns(step.sent),
                            done: ns(step.done),
                        };
                        last_done = last_done.max(step.done);
                        out.itl.push(paced.latency_ms());
                        out.late_ms.push(paced.late_ms());
                        out.queue_ms.push(step.queue_ms);
                        out.service_ms.push(step.service_ms);
                        out.decode_steps += 1;
                        self.rows.fetch_add(1, Ordering::Relaxed);
                        if picker.pick(out.checks.len()) {
                            out.checks.push(DecodeCheck {
                                ordinal: s.ordinal,
                                round: step.round,
                                output: step.output,
                            });
                        }
                    }
                    Ok(None) => {}
                }
                s.append(server, &mut out.tally, &mut spans);
                st.due += self.period;
                if s.finished() {
                    if let Some(s) = st.session.take() {
                        if s.close(server, &mut out.tally, &mut spans) {
                            out.sessions_done += 1;
                        }
                    }
                    let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
                    st.session = InprocSession::open(
                        server,
                        &self.sessions,
                        ordinal,
                        self.rounds,
                        &mut out.tally,
                        &mut spans,
                    );
                }
            }
            let now = Instant::now();
            for st in streams.iter_mut() {
                if st.pending.is_none() && st.due <= now && st.due < end {
                    if let Some(s) = st.session.as_mut() {
                        st.pending = Some(s.submit(server, &mut out.tally, Some(st.due)));
                    }
                }
            }
            if streams.iter().all(|st| st.pending.is_none()) {
                match next_due(&streams) {
                    None => break,
                    Some(due) => sleep_until(due),
                }
            }
        }
        for st in streams {
            if let Some(s) = st.session {
                s.close(server, &mut out.tally, &mut spans);
            }
        }
        out.start = Some(start);
        out.end = Some(last_done);
        out.tracer = Some(spans);
        out
    }
}
