//! The four workloads: what each boots, what traffic it sends, and how one measured
//! window turns into numbers. Engines and the gateway run with
//! `ServerConfig::default()` / `GatewayConfig::default()` — the defaults users get —
//! so a change to a default shows up as what it is.

use std::borrow::Cow;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use vitality_gateway::{Gateway, GatewayConfig};
use vitality_serve::{InferOptions, ModelRegistry, Server, ServerConfig};
use vitality_tensor::{Matrix, Workspace};
use vitality_vit::{AttentionVariant, VisionTransformer, VitOutput};

use crate::inputs::{
    self, ImageRef, Picks, Stream, TierHint, Vit196, MODEL_NAME, MODEL_SEED, POOL_SIZE, REQUEST_KEY,
};
use crate::loadgen::{self, Request, RunLog};
use crate::sysinfo;
use crate::verify::{self, Checker, Expected};
use crate::wire::Encoding;

/// Arrival rate of the open loop, requests per second (about 30% of one engine's
/// capacity on the reference host).
const OPEN_RATE: f64 = 150.0;

/// Images per `hires_forward` batch call.
const HIRES_BATCH: usize = 4;

/// Pool images `hires_forward` rotates through (each costs a direct inference at
/// set-up, so fewer than the serving pool).
const HIRES_POOL: usize = 16;

/// How many times a run sets the stack up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HiresForward,
    EngineOpenJson,
    EngineSatBinary,
    ClusterMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HiresForward,
        Workload::EngineOpenJson,
        Workload::EngineSatBinary,
        Workload::ClusterMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HiresForward => "hires_forward",
            Workload::EngineOpenJson => "engine_open_json",
            Workload::EngineSatBinary => "engine_sat_binary",
            Workload::ClusterMixed => "cluster_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed latency limit behind `slo_share`.
    pub fn slo(self) -> Duration {
        Duration::from_millis(match self {
            Workload::HiresForward => 250,
            Workload::EngineOpenJson => 25,
            Workload::EngineSatBinary => 100,
            Workload::ClusterMixed => 50,
        })
    }

    fn encoding(self) -> Encoding {
        match self {
            Workload::EngineSatBinary => Encoding::Binary,
            _ => Encoding::Json,
        }
    }

    /// Variant labels a reply of this workload may name.
    pub fn variants(self) -> &'static [&'static str] {
        match self {
            Workload::ClusterMixed => &["taylor", "int8", "unified"],
            _ => &["taylor"],
        }
    }

    /// `(connections, requests outstanding per connection)` of the closed loops.
    fn closed_shape(self) -> (usize, usize) {
        match self {
            Workload::EngineSatBinary => (2, 16),
            _ => (2, 1),
        }
    }

    /// Ops each warm-up connection sends before the window opens.
    fn warm_up_ops(self) -> usize {
        match self {
            Workload::EngineSatBinary => 64,
            _ => 16,
        }
    }
}

/// Segments a window is cut into; each end-to-end timing is the median over them,
/// so a disturbance shorter than half the window does not move it.
pub const SEGMENTS: u32 = 5;

/// One correct op: when it was due (seconds into the window) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_s: f64,
    pub latency_ns: u64,
}

/// One measured window, reduced to what the metrics need.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    /// Failed, refused or wrong ops.
    pub failed: usize,
    /// Every correct op.
    pub samples: Vec<Sample>,
    /// The window asked for, seconds (ops are due inside it).
    pub window_s: f64,
    /// Window start to the last reply, seconds.
    pub span_s: f64,
    /// Process CPU seconds at the window's start, at each inner segment boundary and
    /// at its end (see [`sysinfo::CpuMarks`]).
    pub cpu_marks: Vec<f64>,
    /// The first few failure reasons, for the operator.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> usize {
        self.attempted - self.failed
    }

    /// Latencies of the correct ops, ascending, nanoseconds.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut sorted: Vec<u64> = self.samples.iter().map(|s| s.latency_ns).collect();
        sorted.sort_unstable();
        sorted
    }

    fn from_verdicts(
        ops: impl Iterator<Item = Sample>,
        verdicts: &[Result<(), String>],
        (window_s, span_s): (f64, f64),
        cpu_marks: Vec<f64>,
    ) -> Self {
        let mut outcome = Outcome {
            attempted: verdicts.len(),
            window_s,
            span_s,
            cpu_marks,
            ..Outcome::default()
        };
        for (sample, verdict) in ops.zip(verdicts) {
            match verdict {
                Ok(()) => outcome.samples.push(sample),
                Err(why) => {
                    outcome.failed += 1;
                    if outcome.errors.len() < 5 {
                        outcome.errors.push(why.clone());
                    }
                }
            }
        }
        outcome
    }
}

// ---------------------------------------------------------------------------
// hires_forward: offline, one thread, no sockets
// ---------------------------------------------------------------------------

/// The offline stack: one model, one warm workspace.
pub struct Hires {
    model: VisionTransformer,
    ws: Workspace,
    outputs: Vec<VitOutput>,
    pool: Vec<Matrix>,
    /// Direct inference of every pool image, computed before the first window.
    expected: Vec<Expected>,
}

impl Hires {
    /// Builds `vit1024:taylor` and runs two warm-up batches on a fresh workspace.
    pub fn set_up(seed: u64) -> Self {
        let size = inputs::vit1024_config().image_size;
        let pool: Vec<Matrix> = (0..HIRES_POOL as u64)
            .map(|i| inputs::image(seed, Stream::Pool, i, size))
            .collect();
        let model = inputs::build_vit1024(AttentionVariant::Taylor);
        let mut stack = Hires {
            model,
            ws: Workspace::new(),
            outputs: Vec::new(),
            pool,
            expected: Vec::new(),
        };
        for _ in 0..2 {
            let batch = stack.pool[..HIRES_BATCH].to_vec();
            stack
                .model
                .infer_batch_into(&batch, &mut stack.outputs, &mut stack.ws);
        }
        stack
    }

    /// Repeats `infer_batch_into` over seeded 4-image batches for `window`; one op is
    /// one batch call. Logits are copied out and checked after the window.
    pub fn run(&mut self, seed: u64, window: Duration) -> Outcome {
        if self.expected.is_empty() {
            self.expected = self
                .pool
                .iter()
                .map(|image| verify::direct(&self.model, image))
                .collect();
        }
        let mut picks = Picks::new(seed, 0, 1);
        let mut batch: Vec<Matrix> = Vec::with_capacity(HIRES_BATCH);
        let mut ops: Vec<(Sample, Vec<usize>, Vec<Vec<f32>>)> = Vec::new();
        let cpu = sysinfo::CpuMarks::start(window, SEGMENTS);
        let start = Instant::now();
        while start.elapsed() < window {
            let indices: Vec<usize> = (0..HIRES_BATCH)
                .map(|_| match picks.pool_pick() {
                    ImageRef::Pool(i) => i % HIRES_POOL,
                    ImageRef::Cold(_) => unreachable!("pool picks are pool images"),
                })
                .collect();
            batch.clear();
            batch.extend(indices.iter().map(|&i| self.pool[i].clone()));
            let op_start = Instant::now();
            self.model
                .infer_batch_into(&batch, &mut self.outputs, &mut self.ws);
            let sample = Sample {
                due_s: op_start.duration_since(start).as_secs_f64(),
                latency_ns: op_start.elapsed().as_nanos() as u64,
            };
            let logits = self
                .outputs
                .iter()
                .map(|o| o.logits.as_slice().to_vec())
                .collect();
            ops.push((sample, indices, logits));
        }
        let spans = (window.as_secs_f64(), start.elapsed().as_secs_f64());
        let cpu_marks = cpu.finish();
        let verdicts: Vec<Result<(), String>> = ops
            .iter()
            .map(|(_, indices, logits)| {
                if logits.len() != indices.len() {
                    return Err(format!(
                        "{} outputs for {} images",
                        logits.len(),
                        indices.len()
                    ));
                }
                for (&index, row) in indices.iter().zip(logits) {
                    let prediction = verify::argmax(row);
                    verify::agrees(&self.expected[index], prediction, row)?;
                }
                Ok(())
            })
            .collect();
        Outcome::from_verdicts(ops.iter().map(|op| op.0), &verdicts, spans, cpu_marks)
    }
}

// ---------------------------------------------------------------------------
// The serving workloads
// ---------------------------------------------------------------------------

/// A booted serving stack: engines, optionally the gateway in front of them.
pub struct Stack {
    pub workload: Workload,
    pub models: Vit196,
    pub engines: Vec<Server>,
    pub gateway: Option<Gateway>,
}

pub fn boot_engine(models: &Vit196) -> Result<Server, String> {
    let mut registry = ModelRegistry::new();
    for model in models.all() {
        registry
            .register(MODEL_NAME, model.clone())
            .map_err(|e| format!("register model: {e}"))?;
    }
    Server::start(ServerConfig::default(), registry).map_err(|e| format!("boot engine: {e}"))
}

impl Stack {
    /// Builds the models (int8 calibrated on a fixed image set), boots the engines
    /// (and, for `cluster_mixed`, the gateway, waiting until its probes have admitted
    /// both engines) and sends the warm-up ops.
    pub fn set_up(workload: Workload, traffic: &Traffic<'_>) -> Result<Stack, String> {
        let models = Vit196::build();
        let engine_count = if workload == Workload::ClusterMixed {
            2
        } else {
            1
        };
        let engines = (0..engine_count)
            .map(|_| boot_engine(&models))
            .collect::<Result<Vec<_>, _>>()?;
        let gateway = if workload == Workload::ClusterMixed {
            let addrs: Vec<SocketAddr> = engines.iter().map(Server::local_addr).collect();
            let gateway = Gateway::start(GatewayConfig::default(), &addrs)
                .map_err(|e| format!("boot gateway: {e}"))?;
            let deadline = Instant::now() + Duration::from_secs(10);
            while gateway.healthy_backends() < addrs.len() {
                if Instant::now() > deadline {
                    return Err(format!(
                        "gateway admitted {}/{} engines",
                        gateway.healthy_backends(),
                        addrs.len()
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Some(gateway)
        } else {
            None
        };
        let stack = Stack {
            workload,
            models,
            engines,
            gateway,
        };
        stack.warm_up(traffic)?;
        Ok(stack)
    }

    /// Where the load generator connects.
    pub fn target(&self) -> SocketAddr {
        self.gateway
            .as_ref()
            .map_or_else(|| self.engines[0].local_addr(), Gateway::local_addr)
    }

    fn warm_up(&self, traffic: &Traffic<'_>) -> Result<(), String> {
        let (lanes, depth) = self.workload.closed_shape();
        let per_lane = self.workload.warm_up_ops();
        let log = loadgen::closed_loop(
            self.target(),
            lanes,
            depth,
            Duration::from_secs(30),
            self.workload.encoding(),
            |lane| {
                let mut source = traffic.warm_up_lane(lane, lanes);
                let mut left = per_lane;
                move || {
                    left = left.checked_sub(1)?;
                    Some(source())
                }
            },
        );
        match log.ops.iter().find_map(|op| op.outcome.as_ref().err()) {
            Some(why) => Err(format!("warm-up op failed: {why}")),
            None => Ok(()),
        }
    }

    /// Sends the workload's traffic for `window` and returns the raw log with the
    /// process CPU readings taken across it.
    fn drive(&self, traffic: &Traffic<'_>, window: Duration) -> (RunLog, Vec<f64>) {
        let cpu = sysinfo::CpuMarks::start(window, SEGMENTS);
        let encoding = self.workload.encoding();
        let log = match self.workload {
            Workload::EngineOpenJson => {
                let schedule =
                    inputs::poisson_schedule(traffic.seed, OPEN_RATE, window.as_secs_f64());
                loadgen::open_loop(
                    self.target(),
                    &schedule,
                    window,
                    encoding,
                    traffic.lane(0, 1),
                )
            }
            _ => {
                let (lanes, depth) = self.workload.closed_shape();
                loadgen::closed_loop(self.target(), lanes, depth, window, encoding, |lane| {
                    let mut source = traffic.lane(lane, lanes);
                    move || Some(source())
                })
            }
        };
        (log, cpu.finish())
    }

    /// Drives one window and checks every reply (after the window has closed).
    pub fn run(
        &self,
        traffic: &Traffic<'_>,
        checker: &Checker<'_>,
        window: Duration,
    ) -> (Outcome, RunLog) {
        let (log, cpu_marks) = self.drive(traffic, window);
        let verdicts = checker.check_all(&log.ops);
        let outcome = Outcome::from_verdicts(
            log.ops.iter().map(|op| Sample {
                due_s: op.due.saturating_duration_since(log.start).as_secs_f64(),
                latency_ns: op.latency_ns(),
            }),
            &verdicts,
            (
                window.as_secs_f64(),
                log.end.duration_since(log.start).as_secs_f64(),
            ),
            cpu_marks,
        );
        (outcome, log)
    }

    pub fn shut_down(self) {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        for engine in self.engines {
            engine.shutdown();
        }
    }
}

/// The request supplier of a serving workload. Pool images sent untraced use bodies
/// encoded once at set-up; cold images and every traced request (which carries its
/// own `request_id` and `"trace": true`) are encoded as they are sent.
pub struct Traffic<'a> {
    workload: Workload,
    pub seed: u64,
    pool: &'a [Matrix],
    /// Bodies of `pool[i]` under tier `t`, at `t * POOL_SIZE + i`.
    encoded: Vec<Vec<u8>>,
    traced: bool,
}

impl<'a> Traffic<'a> {
    pub fn new(workload: Workload, seed: u64, pool: &'a [Matrix], traced: bool) -> Self {
        let tiers: &[TierHint] = if workload == Workload::ClusterMixed {
            &TierHint::ALL
        } else {
            &TierHint::ALL[..1]
        };
        let encoded = if traced {
            Vec::new()
        } else {
            tiers
                .iter()
                .flat_map(|tier| {
                    pool.iter().map(move |image| {
                        let opts = InferOptions {
                            tier: tier.wire(),
                            ..InferOptions::default()
                        };
                        workload.encoding().encode(REQUEST_KEY, image, &opts)
                    })
                })
                .collect()
        };
        Self {
            workload,
            seed,
            pool,
            encoded,
            traced,
        }
    }

    /// Requests drawn from `seed`, cold images from `seed`'s `cold` stream.
    fn supplier<'s>(
        &'s self,
        (seed, cold): (u64, Stream),
        lane: usize,
        lanes: usize,
    ) -> impl FnMut() -> Request<'s> + Send + 's {
        let mut picks = Picks::new(seed, lane, lanes);
        let mut sequence = 0u64;
        let size = inputs::vit196_config().image_size;
        move || {
            let (image, tier) = if self.workload == Workload::ClusterMixed {
                picks.mixed_pick()
            } else {
                (picks.pool_pick(), TierHint::None)
            };
            let id = ((lane as u64) << 32) | sequence;
            sequence += 1;
            let body = match image {
                ImageRef::Pool(index) if !self.traced => {
                    Cow::Borrowed(&self.encoded[tier as usize * POOL_SIZE + index][..])
                }
                _ => {
                    let pixels = match image {
                        ImageRef::Pool(index) => Cow::Borrowed(&self.pool[index]),
                        ImageRef::Cold(id) => Cow::Owned(inputs::image(seed, cold, id, size)),
                    };
                    let request_id = format!("{id:016x}");
                    let opts = InferOptions {
                        tier: tier.wire(),
                        request_id: self.traced.then_some(request_id.as_str()),
                        trace: self.traced,
                        ..InferOptions::default()
                    };
                    Cow::Owned(self.workload.encoding().encode(REQUEST_KEY, &pixels, &opts))
                }
            };
            Request { id, image, body }
        }
    }

    /// The measured traffic of connection `lane` out of `lanes`.
    pub fn lane<'s>(
        &'s self,
        lane: usize,
        lanes: usize,
    ) -> impl FnMut() -> Request<'s> + Send + 's {
        self.supplier((self.seed, Stream::Cold), lane, lanes)
    }

    /// Warm-up traffic: the workload's mix drawn from a fixed seed, so every run warms
    /// up on the same requests (`setup_s` does not wander with `--seed`), with cold
    /// images from a stream of their own, so no measured cold image is ever sent (and
    /// cached) before the window.
    fn warm_up_lane<'s>(
        &'s self,
        lane: usize,
        lanes: usize,
    ) -> impl FnMut() -> Request<'s> + Send + 's {
        self.supplier((MODEL_SEED, Stream::WarmUp), lane, lanes)
    }
}
