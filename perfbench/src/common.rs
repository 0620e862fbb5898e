//! Pieces every workload shares: the workload constants file, seeded input
//! pools with their solo-call references, the served-server handle, the
//! per-phase outcome, and the loopback HTTP connection.

use dfss_core::dfss::DfssAttention;
use dfss_core::mechanism::Attention;
use dfss_kernels::GpuCtx;
use dfss_nmsparse::NmPattern;
use dfss_perfbench::trace::Tracer;
use dfss_serve::http::HttpServer;
use dfss_serve::wire::{self, Json, RequestReader, Response, WireLimits};
use dfss_serve::{AttentionServer, SchedEvent, SchedPolicy, ServeStats};
use dfss_tensor::{Matrix, Rng};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The mechanism type every server and reference call shares.
pub type Mech = Arc<dyn Attention<f32> + Send + Sync>;

/// Bound on any single wait for a reply; a reply slower than this is a
/// failed operation, never a hang.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Where the workload constants live, relative to the checkout root.
pub const CONFIG_PATH: &str = "perfbench/workloads.json";

/// One workload's constants from [`CONFIG_PATH`].
pub struct Cfg {
    name: String,
    doc: Json,
}

impl Cfg {
    /// Read the constants of `workload`.
    pub fn load(workload: &str) -> Result<Cfg, String> {
        let bytes =
            std::fs::read(CONFIG_PATH).map_err(|e| format!("cannot read {CONFIG_PATH}: {e}"))?;
        let all = Json::parse(&bytes).map_err(|e| format!("{CONFIG_PATH}: {e}"))?;
        let doc = all
            .get(workload)
            .cloned()
            .ok_or_else(|| format!("{CONFIG_PATH} has no workload {workload:?}"))?;
        Ok(Cfg {
            name: workload.to_string(),
            doc,
        })
    }

    /// A numeric constant.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.doc
            .get(key)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("{}: missing non-negative number {key:?}", self.name))
    }

    /// A whole-number constant.
    pub fn usize(&self, key: &str) -> Result<usize, String> {
        let x = self.num(key)?;
        if x.fract() != 0.0 || x > 1e9 {
            return Err(format!("{}: {key:?} must be a whole number", self.name));
        }
        Ok(x as usize)
    }

    /// A list of whole numbers.
    pub fn list(&self, key: &str) -> Result<Vec<usize>, String> {
        let items = self
            .doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: missing list {key:?}", self.name))?;
        items
            .iter()
            .map(|x| match x.as_f64() {
                Some(v) if v.fract() == 0.0 && (1.0..=1e9).contains(&v) => Ok(v as usize),
                _ => Err(format!("{}: {key:?} holds a non-count", self.name)),
            })
            .collect()
    }

    /// Check that the declared client thread count matches the threads
    /// the workload's code drives. The count is documentation, not a
    /// knob: the workload's structure fixes it.
    pub fn expect_threads(&self, threads: usize) -> Result<(), String> {
        let declared = self.usize("client_threads")?;
        if declared != threads {
            return Err(format!(
                "{}: this workload drives {threads} client threads, the constants say {declared}",
                self.name
            ));
        }
        Ok(())
    }
}

/// The mechanism the in-process workloads serve: DFSS 2:4.
pub fn dfss_2_4() -> Mech {
    Arc::new(DfssAttention::new(NmPattern::P2_4))
}

/// The continuous scheduler's policy in the in-process workloads: 64-row
/// prefill chunks, at most 128 rows per iteration.
pub fn sched_policy() -> SchedPolicy {
    SchedPolicy::new(64, 128)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Whether two outputs are bit-identical.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A forward reference computed solo, the way a caller without a server
/// would compute it.
pub fn solo_forward(mech: &Mech, q: &Matrix<f32>, k: &Matrix<f32>, v: &Matrix<f32>) -> Matrix<f32> {
    mech.forward(&mut GpuCtx::a100(), q, k, v)
}

/// One prefill input with its solo-forward reference output. The
/// reference is filled after the first set-up is timed, so that set-up
/// is the first code of the process to touch the kernels.
pub struct PrefillEntry {
    pub n: usize,
    pub q: Matrix<f32>,
    pub k: Matrix<f32>,
    pub v: Matrix<f32>,
    reference: OnceLock<Matrix<f32>>,
}

impl PrefillEntry {
    /// The solo-forward output; panics before [`fill_references`].
    pub fn reference(&self) -> &Matrix<f32> {
        self.reference
            .get()
            .expect("references are filled before any output is checked")
    }
}

/// A pool of prefill inputs, `per_size` distinct triples per size,
/// without their references.
pub fn prefill_pool(
    rng: &mut Rng,
    sizes: &[usize],
    per_size: usize,
    d: usize,
) -> Vec<PrefillEntry> {
    let mut out = Vec::new();
    for &n in sizes {
        for _ in 0..per_size {
            out.push(PrefillEntry {
                n,
                q: Matrix::random_normal(n, d, 0.0, 1.0, rng),
                k: Matrix::random_normal(n, d, 0.0, 1.0, rng),
                v: Matrix::random_normal(n, d, 0.0, 1.0, rng),
                reference: OnceLock::new(),
            });
        }
    }
    out
}

/// Compute every entry's solo-forward reference.
pub fn fill_references(mech: &Mech, pool: &[PrefillEntry]) {
    for e in pool {
        e.reference
            .get_or_init(|| solo_forward(mech, &e.q, &e.k, &e.v));
    }
}

/// A prefill output of the warm-up, bit-checked once references exist.
pub struct WarmPrefill {
    pub entry: usize,
    pub output: Vec<f32>,
}

/// Bit-check the warm-up's prefill outputs against their references.
pub fn check_warmup(pool: &[PrefillEntry], warm: &[WarmPrefill]) -> Result<(), String> {
    for w in warm {
        let e = &pool[w.entry];
        if !same_bits(&w.output, e.reference().as_slice()) {
            return Err(format!(
                "warm-up prefill n={} diverged from solo forward",
                e.n
            ));
        }
    }
    Ok(())
}

/// Rows in each session row pool.
const ROW_POOL: usize = 4096;

/// Seeded inputs of decode sessions. Session `ordinal` primes its cache
/// with prompt `ordinal % prompts`, and in round `r` decodes query row
/// `q_row(ordinal, r)` and then appends `k_row/v_row(ordinal, r)`. Every
/// cache a session ever holds can therefore be rebuilt from the ordinal
/// and round alone — the decode checks need no copy of live caches.
pub struct SessionInputs {
    pub d: usize,
    prompts: Vec<(Matrix<f32>, Matrix<f32>)>,
    k: Matrix<f32>,
    v: Matrix<f32>,
    q: Matrix<f32>,
}

impl SessionInputs {
    /// `prompts` distinct prompts with lengths spread evenly over
    /// `[lo, hi]`. The seed draws the values, never the lengths, so every
    /// seed loads the server with the same amount of work.
    pub fn new(rng: &mut Rng, d: usize, prompts: usize, lo: usize, hi: usize) -> SessionInputs {
        let count = prompts.max(1);
        let prompts = (0..count)
            .map(|i| {
                let len = lo + (hi - lo) * i / (count - 1).max(1);
                (
                    Matrix::random_normal(len, d, 0.0, 1.0, rng),
                    Matrix::random_normal(len, d, 0.0, 1.0, rng),
                )
            })
            .collect();
        SessionInputs {
            d,
            prompts,
            k: Matrix::random_normal(ROW_POOL, d, 0.0, 1.0, rng),
            v: Matrix::random_normal(ROW_POOL, d, 0.0, 1.0, rng),
            q: Matrix::random_normal(ROW_POOL, d, 0.0, 1.0, rng),
        }
    }

    /// Index of the prompt session `ordinal` starts with.
    pub fn prompt_index(&self, ordinal: u64) -> usize {
        ordinal as usize % self.prompts.len()
    }

    /// The prompt blocks `(K, V)`, by index.
    pub fn prompts(&self) -> &[(Matrix<f32>, Matrix<f32>)] {
        &self.prompts
    }

    /// The prompt block `(K, V)` session `ordinal` starts with.
    pub fn prompt(&self, ordinal: u64) -> &(Matrix<f32>, Matrix<f32>) {
        &self.prompts[self.prompt_index(ordinal)]
    }

    fn kv_index(ordinal: u64, round: usize) -> usize {
        (ordinal as usize * 7919 + round) % ROW_POOL
    }

    fn q_index(ordinal: u64, round: usize) -> usize {
        (ordinal as usize * 104_729 + round * 31 + 17) % ROW_POOL
    }

    /// Key row appended after round `round`.
    pub fn k_row(&self, ordinal: u64, round: usize) -> &[f32] {
        self.k.row(Self::kv_index(ordinal, round))
    }

    /// Value row appended after round `round`.
    pub fn v_row(&self, ordinal: u64, round: usize) -> &[f32] {
        self.v.row(Self::kv_index(ordinal, round))
    }

    /// Query row decoded in round `round`.
    pub fn q_row(&self, ordinal: u64, round: usize) -> &[f32] {
        self.q.row(Self::q_index(ordinal, round))
    }

    /// Cached length when round `round` decodes.
    pub fn cached_len(&self, ordinal: u64, round: usize) -> usize {
        self.prompt(ordinal).0.rows() + round
    }

    /// The cache `(K, V)` round `round` attends over: the prompt plus the
    /// rows appended in rounds `0..round`.
    pub fn cache(&self, ordinal: u64, round: usize) -> (Matrix<f32>, Matrix<f32>) {
        let (pk, pv) = self.prompt(ordinal);
        let mut k = pk.as_slice().to_vec();
        let mut v = pv.as_slice().to_vec();
        for r in 0..round {
            k.extend_from_slice(self.k_row(ordinal, r));
            v.extend_from_slice(self.v_row(ordinal, r));
        }
        let len = pk.rows() + round;
        (
            Matrix::from_vec(len, self.d, k),
            Matrix::from_vec(len, self.d, v),
        )
    }

    /// Solo `Attention::decode` of round `round` over the rebuilt cache.
    pub fn reference(&self, mech: &Mech, ordinal: u64, round: usize) -> Matrix<f32> {
        let (k, v) = self.cache(ordinal, round);
        let q = Matrix::from_vec(1, self.d, self.q_row(ordinal, round).to_vec());
        mech.decode(&mut GpuCtx::a100(), &q, &k, &v)
    }
}

/// A served decode output kept for the bit check after the window.
#[derive(Debug)]
pub struct DecodeCheck {
    pub ordinal: u64,
    pub round: usize,
    pub output: Vec<f32>,
}

/// Most decode outputs a phase keeps for the bit check.
pub const MAX_DECODE_CHECKS: usize = 256;

/// Picks a fixed subset of decode steps to bit-check: every `every`-th
/// step in the client's own issue order, up to `max` of them.
pub struct CheckPicker {
    every: u64,
    max: usize,
    seen: u64,
}

impl CheckPicker {
    pub fn new(every: usize, max: usize) -> CheckPicker {
        CheckPicker {
            every: every.max(1) as u64,
            max,
            seen: 0,
        }
    }

    /// Whether the next step is checked, given the checks kept so far.
    pub fn pick(&mut self, kept: usize) -> bool {
        let i = self.seen;
        self.seen += 1;
        i.is_multiple_of(self.every) && kept < self.max
    }
}

/// Operations attempted and failed in one phase, with the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(why);
        }
    }

    /// Count a result: success, or a failure with its message.
    pub fn check<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(x) => {
                self.ok();
                Some(x)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// A counted operation whose output failed its bit check afterwards.
    pub fn mismatch(&mut self, why: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// A server under test: in-process, or behind the HTTP front door.
pub enum Server {
    InProc(AttentionServer<f32>),
    Http(HttpServer),
}

impl Server {
    pub fn inproc(&self) -> &AttentionServer<f32> {
        match self {
            Server::InProc(s) => s,
            Server::Http(_) => panic!("workload drives an in-process server"),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Http(s) => s.local_addr(),
            Server::InProc(_) => panic!("workload drives an HTTP server"),
        }
    }

    /// Drain and stop; returns lifetime counters.
    pub fn shutdown(self) -> ServeStats {
        match self {
            Server::InProc(s) => s.shutdown(),
            Server::Http(s) => s.shutdown(),
        }
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The measured window: first scheduled operation to last reply.
    pub start: Option<Instant>,
    pub end: Option<Instant>,
    /// Decode-step latency, ms.
    pub itl: Vec<f64>,
    /// Prefill latency, ms.
    pub prefill: Vec<f64>,
    /// Generator lateness of paced operations, ms (empty for closed loops).
    pub late_ms: Vec<f64>,
    /// Decode steps served.
    pub decode_steps: u64,
    /// Sessions completed (opened, extended, generated, closed).
    pub sessions_done: u64,
    /// Server-reported queue wait and service time of replies, ms.
    pub queue_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub tally: Tally,
    pub checks: Vec<DecodeCheck>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Fold another thread's results of the same phase into this one.
    pub fn absorb(&mut self, o: Outcome) {
        self.start = self.start.into_iter().chain(o.start).min();
        self.end = self.end.into_iter().chain(o.end).max();
        self.itl.extend(o.itl);
        self.prefill.extend(o.prefill);
        self.late_ms.extend(o.late_ms);
        self.decode_steps += o.decode_steps;
        self.sessions_done += o.sessions_done;
        self.queue_ms.extend(o.queue_ms);
        self.service_ms.extend(o.service_ms);
        self.tally.absorb(o.tally);
        self.checks.extend(o.checks);
        match (&mut self.tracer, o.tracer) {
            (Some(a), Some(b)) => a.absorb(b),
            (slot @ None, b) => *slot = b,
            _ => {}
        }
    }
}

/// Lifetime facts of the measured server, read after it stopped.
#[derive(Debug, Default)]
pub struct ServerFacts {
    pub stats: ServeStats,
    /// Prefill query rows plus decode steps served over the server's life
    /// (warm-up included, like `total_sim_latency_s`).
    pub rows: u64,
    /// The continuous scheduler's event log (empty for the classic loop).
    pub sched_events: Vec<SchedEvent>,
}

/// Sleep until `t` (no-op if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One keep-alive loopback connection that sends pre-rendered request
/// bytes and reads the raw response.
pub struct Conn {
    reader: RequestReader<TcpStream>,
    writer: TcpStream,
    limits: WireLimits,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(REPLY_TIMEOUT)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("configure socket: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: RequestReader::new(read_half),
            writer: stream,
            limits: WireLimits::default(),
        })
    }

    /// Write one request and read its response; a non-200 status is an
    /// error carrying the body.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Response, String> {
        self.writer
            .write_all(request)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write: {e}"))?;
        let resp = wire::read_response(&mut self.reader, &self.limits)
            .map_err(|e| format!("read: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "HTTP {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        Ok(resp)
    }
}

/// Render one request (head and body) to bytes.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: dfss\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// A matrix as a JSON array of rows (the wire's matrix format).
pub fn matrix_json(m: &Matrix<f32>) -> Json {
    Json::Arr((0..m.rows()).map(|r| Json::f32_row(m.row(r))).collect())
}

/// The `output` field of a response body as a flat row-major vector.
pub fn output_of(body: &[u8]) -> Result<Vec<f32>, String> {
    let doc = Json::parse(body)?;
    let out = doc.get("output").ok_or("response has no output")?;
    if let Some(row) = out.to_f32_row() {
        return Ok(row);
    }
    let rows = out.as_arr().ok_or("output is not an array")?;
    let mut flat = Vec::new();
    for r in rows {
        flat.extend(r.to_f32_row().ok_or("output row is not numbers")?);
    }
    Ok(flat)
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
