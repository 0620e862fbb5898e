//! `decode-sessions`: one closed-loop client keeps a fixed number of
//! sessions live on the continuous server; every round decodes all of them
//! together and then appends one row to each; a session that ran its
//! rounds closes and a fresh one (open, prompt extend) replaces it.
//!
//! `flush_decode` dominates — the `gather_paged` pack plus the ragged
//! decode kernel — while extend, append and close exercise KV page
//! allocation and release. No prefill forward runs, so a prefill
//! optimisation predicts no change here.
//!
//! Not gated: its throughput follows the shared host's memory bandwidth
//! too closely to repeat within a bound (numbers in `perfbench/README.md`).

use crate::common::{
    dfss_2_4, sched_policy, Cfg, CheckPicker, DecodeCheck, Mech, Outcome, Server, SessionInputs,
    Tally, WarmPrefill, MAX_DECODE_CHECKS,
};
use crate::session::InprocSession;
use dfss_perfbench::trace::Tracer;
use dfss_serve::{AttentionServer, BatchPolicy, KvConfig};
use dfss_tensor::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinct prompts sessions cycle through.
const PROMPT_POOL: usize = 16;

/// Rounds of the full session set the warm-up runs.
const WARMUP_ROUNDS: usize = 64;

/// Every this many decode steps, one is kept for the bit check.
const DECODE_CHECK_EVERY: usize = 61;

pub struct DecodeSessions {
    pub mech: Mech,
    pub sessions: SessionInputs,
    live: usize,
    rounds: usize,
    next_ordinal: AtomicU64,
    /// Decode steps served by the current server.
    pub rows: AtomicU64,
}

impl DecodeSessions {
    pub fn new(cfg: &Cfg, seed: u64) -> Result<DecodeSessions, String> {
        cfg.expect_threads(1)?;
        let d = cfg.usize("d")?;
        let prompt = cfg.list("prompt_rows")?;
        let [lo, hi] = prompt[..] else {
            return Err("decode-sessions: \"prompt_rows\" must be [lo, hi]".into());
        };
        let mut rng = Rng::new(seed);
        Ok(DecodeSessions {
            mech: dfss_2_4(),
            sessions: SessionInputs::new(&mut rng, d, PROMPT_POOL, lo, hi),
            live: cfg.usize("sessions")?.max(1),
            rounds: cfg.usize("session_rounds")?.max(1),
            next_ordinal: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        })
    }

    /// Start the continuous server (f32 paged KV) and warm it with a few
    /// rounds of the full session set. No prefill runs, so the warm-up
    /// leaves no prefill output to check.
    pub fn setup(&self) -> Result<(Server, Vec<WarmPrefill>), String> {
        self.rows.store(0, Ordering::Relaxed);
        let server = AttentionServer::start_continuous_with_kv(
            self.mech.clone(),
            BatchPolicy::per_request(),
            sched_policy(),
            KvConfig::default(),
        );
        let mut tally = Tally::default();
        let mut tr = Tracer::new(false, Instant::now());
        let mut live: Vec<InprocSession> = (0..self.live)
            .filter_map(|_| {
                let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
                let rounds = WARMUP_ROUNDS;
                InprocSession::open(
                    &server,
                    &self.sessions,
                    ordinal,
                    rounds,
                    &mut tally,
                    &mut tr,
                )
            })
            .collect();
        for _ in 0..WARMUP_ROUNDS {
            let subs: Vec<_> = live
                .iter_mut()
                .map(|s| s.submit(&server, &mut tally, None))
                .collect();
            for (s, sub) in live.iter_mut().zip(subs) {
                if s.settle(sub, &mut tally, &mut tr).is_some() {
                    self.rows.fetch_add(1, Ordering::Relaxed);
                }
                s.append(&server, &mut tally, &mut tr);
            }
        }
        for s in live {
            s.close(&server, &mut tally, &mut tr);
        }
        if tally.failed > 0 {
            return Err(format!("warm-up failed: {:?}", tally.messages));
        }
        Ok((Server::InProc(server), Vec::new()))
    }

    pub fn measure(&self, server: &Server, seconds: f64, traced: bool, origin: Instant) -> Outcome {
        let server = server.inproc();
        let mut out = Outcome::default();
        let mut tr = Tracer::new(traced, origin);
        let mut picker = CheckPicker::new(DECODE_CHECK_EVERY, MAX_DECODE_CHECKS);
        let open = |rounds: usize, out: &mut Outcome, tr: &mut Tracer| {
            let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
            InprocSession::open(server, &self.sessions, ordinal, rounds, &mut out.tally, tr)
        };
        // First sessions run fewer rounds by slot, so closes spread evenly
        // over the rounds instead of arriving all at once.
        let mut live: Vec<Option<InprocSession>> = (0..self.live)
            .map(|i| open(self.rounds - i * self.rounds / self.live, &mut out, &mut tr))
            .collect();
        let start = Instant::now();
        let window = Duration::from_secs_f64(seconds);
        while start.elapsed() < window {
            let subs: Vec<_> = live
                .iter_mut()
                .map(|s| s.as_mut().map(|s| s.submit(server, &mut out.tally, None)))
                .collect();
            for (slot, sub) in live.iter_mut().zip(subs) {
                let (Some(s), Some(sub)) = (slot.as_mut(), sub) else {
                    continue;
                };
                let Some(step) = s.settle(sub, &mut out.tally, &mut tr) else {
                    continue;
                };
                let ms = |from: Instant| step.done.duration_since(from).as_secs_f64() * 1e3;
                out.itl.push(ms(step.sent));
                if step.round == 0 {
                    out.prefill.push(ms(s.opened));
                }
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
            for slot in live.iter_mut() {
                if let Some(s) = slot.as_mut() {
                    s.append(server, &mut out.tally, &mut tr);
                }
                if slot.as_ref().is_none_or(InprocSession::finished) {
                    if let Some(s) = slot.take() {
                        if s.close(server, &mut out.tally, &mut tr) {
                            out.sessions_done += 1;
                        }
                    }
                    *slot = open(self.rounds, &mut out, &mut tr);
                }
            }
        }
        out.start = Some(start);
        out.end = Some(Instant::now());
        for s in live.into_iter().flatten() {
            s.close(server, &mut out.tally, &mut tr);
        }
        out.tracer = Some(tr);
        out
    }
}
