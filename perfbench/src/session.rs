//! One decode session driven through the in-process server: open, prompt
//! extend, rounds of (decode, append one row), close — with a span around
//! every call into `serve.server`.

use crate::common::{SessionInputs, Tally, REPLY_TIMEOUT};
use dfss_perfbench::trace::Tracer;
use dfss_serve::{
    AttentionServer, DecodeHandle, DecodeRequest, ServeError, SessionError, SessionId,
};
use std::time::{Duration, Instant};

/// A session's place in its script.
pub struct InprocSession<'i> {
    inputs: &'i SessionInputs,
    pub ordinal: u64,
    id: SessionId,
    round: usize,
    rounds: usize,
    /// When the open call started — the start of time to first token.
    pub opened: Instant,
}

/// A decode step submitted but not yet settled.
pub struct Submitted {
    handle: Option<DecodeHandle<f32>>,
    due: Instant,
    sent: Instant,
    after: Instant,
}

impl Submitted {
    /// When the step was handed to the server.
    pub fn sent(&self) -> Instant {
        self.sent
    }
}

/// One settled decode step.
pub struct Step {
    pub round: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub output: Vec<f32>,
    pub queue_ms: f64,
    pub service_ms: f64,
}

/// Time one admission call as a `client` root with a `serve.server` child.
fn admit<T>(
    tr: &mut Tracer,
    op: &'static str,
    req: u64,
    call: impl FnOnce() -> Result<T, SessionError>,
) -> Result<T, SessionError> {
    let t0 = Instant::now();
    let r = call();
    let t1 = Instant::now();
    let root = tr.open("client", op, req, t0);
    tr.record("serve.server", op, root, req, t0, t1);
    tr.close(root, t1);
    r
}

impl<'i> InprocSession<'i> {
    /// Open a session and extend its prompt; `None` (counted failed) if
    /// either call is refused.
    pub fn open(
        server: &AttentionServer<f32>,
        inputs: &'i SessionInputs,
        ordinal: u64,
        rounds: usize,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) -> Option<InprocSession<'i>> {
        let opened = Instant::now();
        let id = tally.check(
            "open",
            admit(tr, "open", ordinal, || {
                server.open_session(inputs.d, inputs.d)
            }),
        )?;
        let (k, v) = inputs.prompt(ordinal);
        let (k, v) = (k.clone(), v.clone());
        tally.check(
            "extend",
            admit(tr, "extend", ordinal, || server.extend(id, k, v)),
        )?;
        Some(InprocSession {
            inputs,
            ordinal,
            id,
            round: 0,
            rounds,
            opened,
        })
    }

    /// Whether every round has run.
    pub fn finished(&self) -> bool {
        self.round >= self.rounds
    }

    /// Submit this round's decode step; `due` is when it was scheduled
    /// (`None`: now, for closed loops).
    pub fn submit(
        &mut self,
        server: &AttentionServer<f32>,
        tally: &mut Tally,
        due: Option<Instant>,
    ) -> Submitted {
        let q_row = self.inputs.q_row(self.ordinal, self.round).to_vec();
        let sent = Instant::now();
        let r = server.submit_decode(DecodeRequest {
            session: self.id,
            q_row,
        });
        let after = Instant::now();
        let handle = match r {
            Ok(h) => Some(h),
            Err(e) => {
                tally.fail(format!("submit decode: {e}"));
                None
            }
        };
        Submitted {
            handle,
            due: due.unwrap_or(sent),
            sent,
            after,
        }
    }

    /// Wait for a submitted step and check its cached length.
    pub fn settle(&mut self, sub: Submitted, tally: &mut Tally, tr: &mut Tracer) -> Option<Step> {
        match self.poll(sub, REPLY_TIMEOUT, tally, tr) {
            Ok(step) => step,
            Err(_) => {
                tally.fail(format!("decode: no reply within {REPLY_TIMEOUT:?}"));
                None
            }
        }
    }

    /// Settle a submitted step if its reply arrives within `wait`; hands
    /// the step back otherwise. The step is done when this call has the
    /// reply; the server's own timings only place the `serve.server`
    /// spans.
    pub fn poll(
        &mut self,
        sub: Submitted,
        wait: Duration,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) -> Result<Option<Step>, Submitted> {
        let Some(handle) = &sub.handle else {
            return Ok(None);
        };
        let served = match handle.wait_timeout(wait) {
            Ok(s) => s,
            Err(ServeError::WaitTimeout) => return Err(sub),
            Err(e) => {
                tally.fail(format!("decode: {e}"));
                return Ok(None);
            }
        };
        // Completion as the client sees it: the reply is in hand.
        let done = Instant::now();
        let want = self.inputs.cached_len(self.ordinal, self.round);
        if served.cached_len != want {
            tally.fail(format!(
                "decode attended {} cached rows, {want} were appended",
                served.cached_len
            ));
            return Ok(None);
        }
        tally.ok();
        let req = served.ticket.0;
        let root = tr.open("client", "decode", req, sub.due);
        if sub.sent > sub.due {
            tr.record("client.pacer", "late", root, req, sub.due, sub.sent);
        }
        tr.record("serve.server", "admit", root, req, sub.sent, sub.after);
        let q_end = sub.after + served.queue_wait;
        tr.record("serve.server", "queue", root, req, sub.after, q_end);
        tr.record(
            "serve.server",
            "service",
            root,
            req,
            q_end,
            q_end + served.service,
        );
        tr.close(root, done);
        Ok(Some(Step {
            round: self.round,
            due: sub.due,
            sent: sub.sent,
            done,
            output: served.output.into_vec(),
            queue_ms: served.queue_wait.as_secs_f64() * 1e3,
            service_ms: served.service.as_secs_f64() * 1e3,
        }))
    }

    /// Append this round's row and advance to the next round.
    pub fn append(&mut self, server: &AttentionServer<f32>, tally: &mut Tally, tr: &mut Tracer) {
        let k = self.inputs.k_row(self.ordinal, self.round).to_vec();
        let v = self.inputs.v_row(self.ordinal, self.round).to_vec();
        let (id, ordinal) = (self.id, self.ordinal);
        tally.check(
            "append",
            admit(tr, "append", ordinal, || server.append(id, k, v)),
        );
        self.round += 1;
    }

    /// One closed-loop round: decode, then append. `None` once finished or
    /// on failure.
    pub fn decode(
        &mut self,
        server: &AttentionServer<f32>,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) -> Option<Step> {
        if self.finished() {
            return None;
        }
        let sub = self.submit(server, tally, None);
        let step = self.settle(sub, tally, tr);
        self.append(server, tally, tr);
        step
    }

    /// Close the session; whether the close was accepted.
    pub fn close(self, server: &AttentionServer<f32>, tally: &mut Tally, tr: &mut Tracer) -> bool {
        let (id, ordinal) = (self.id, self.ordinal);
        tally
            .check(
                "close",
                admit(tr, "close", ordinal, || server.close_session(id)),
            )
            .is_some()
    }
}
