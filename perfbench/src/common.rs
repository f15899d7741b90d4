//! Pieces every workload shares: the pinned simulation config, layer
//! timing around public calls, per-pass results and the statistics the
//! metrics are computed with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use atspeed_sim::{EngineKind, SimConfig};

/// The execution config of every simulation stage. Built here, never read
/// from `SIM_THREADS` / `SIM_ENGINE`, so the environment cannot change
/// what is measured.
pub const SIM: SimConfig = SimConfig {
    threads: 1,
    chunk_size: 0,
    engine: EngineKind::Scalar,
};

/// How many times a run builds its inputs before and again after its
/// passes; `setup_s` is the median of all the builds.
pub const SETUP_REPS: usize = 5;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct LayerCall {
    /// The `sim::stats` phase label the call ran under.
    pub phase: &'static str,
    /// Layer call name, `<layer>.<call>`.
    pub call: &'static str,
    /// Host time of the call.
    pub time: Duration,
}

/// Host time of each public call a workload makes, in call order.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub calls: Vec<LayerCall>,
}

impl Layers {
    /// Runs `f` as one call of `call` under the stats phase `phase`: sets
    /// the phase label, opens a span (recorded only when tracing is on) and
    /// times the call from outside.
    pub fn time<T>(&mut self, phase: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
        atspeed_sim::stats::set_phase(phase);
        let _span = atspeed_trace::span_args(call, &[("phase", &phase)]);
        let started = Instant::now();
        let out = f();
        self.calls.push(LayerCall {
            phase,
            call,
            time: started.elapsed(),
        });
        out
    }

    /// Total time of every call named `call`.
    pub fn total(&self, call: &str) -> Duration {
        self.calls
            .iter()
            .filter(|c| c.call == call)
            .map(|c| c.time)
            .sum()
    }

    /// Total time of every call.
    pub fn sum(&self) -> Duration {
        self.calls.iter().map(|c| c.time).sum()
    }
}

/// Paper-quality results of a pass: exact and deterministic at a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Clock cycles to apply the compacted sets (Table 3).
    pub test_cycles: u64,
    /// Faults the sets detect (Table 1 "final").
    pub faults_detected: u64,
    /// Primary-input vectors over the compacted sets.
    pub vectors: u64,
    /// Tests over the compacted sets.
    pub tests: u64,
}

impl Quality {
    /// Average at-speed sequence length (Table 4).
    pub fn atspeed_len_avg(&self) -> f64 {
        ratio(self.vectors as f64, self.tests as f64)
    }
}

/// One job of a pass: a pipeline flow, or one submission to the server.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Host time from the start of the job to its result.
    pub latency: Duration,
    /// Served from the result cache.
    pub hit: bool,
}

/// Everything one pass of a workload measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time of the timed flow (set-up and output checks excluded).
    pub wall: Duration,
    /// Concurrent lanes (client connections) the layer calls ran on; 0
    /// and 1 both mean one.
    pub lanes: u32,
    pub jobs: Vec<Job>,
    pub layers: Layers,
    pub quality: Quality,
    /// Fingerprint of every output of the pass.
    pub digest: String,
    /// Operations attempted and failed (errors plus rejected outputs).
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Work counters read from the program after the pass, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// `sim::stats` report of the pass, taken before the output checks.
    pub sim: Option<atspeed_sim::SimReport>,
}

impl Pass {
    /// Lane time of the pass (`wall × lanes`): the base of every layer's
    /// share.
    pub fn lane_time(&self) -> Duration {
        self.wall * self.lanes.max(1)
    }

    /// Lane time spent outside the timed layer calls.
    pub fn unattributed(&self) -> Duration {
        self.lane_time().saturating_sub(self.layers.sum())
    }
}

/// What a whole run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host time of each set-up repetition.
    pub setup: Vec<Duration>,
    /// Layer calls of each set-up repetition.
    pub setup_layers: Vec<Layers>,
    pub passes: Vec<Pass>,
}

/// Runs `pass` at least once and again while another pass of the mean
/// length still fits in `seconds`, never more than `max_passes` times.
pub fn run_passes(seconds: u64, max_passes: usize, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass());
        let elapsed = started.elapsed();
        let mean = elapsed / passes.len() as u32;
        if passes.len() >= max_passes || elapsed + mean > budget {
            return passes;
        }
    }
}

/// Runs a workload: builds its inputs [`SETUP_REPS`] times, runs `passes`
/// on the last build, then builds them [`SETUP_REPS`] more times. Each
/// build's host time and layer calls go into the outcome. The host's speed
/// drifts within a run, so the `setup_s` median rests on both ends of the
/// run rather than on one moment.
pub fn with_inputs<T>(
    mut setup: impl FnMut(&mut Layers) -> Result<T, String>,
    mut discard: impl FnMut(T),
    passes: impl FnOnce(&mut T) -> Vec<Pass>,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut inputs = build(&mut outcome, &mut setup, &mut discard)?;
    outcome.passes = passes(&mut inputs);
    discard(inputs);
    let last = build(&mut outcome, &mut setup, &mut discard)?;
    discard(last);
    Ok(outcome)
}

/// Builds the inputs [`SETUP_REPS`] times and returns the last build.
fn build<T>(
    outcome: &mut Outcome,
    setup: &mut impl FnMut(&mut Layers) -> Result<T, String>,
    discard: &mut impl FnMut(T),
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let mut layers = Layers::default();
        let started = Instant::now();
        kept = Some(setup(&mut layers)?);
        outcome.setup.push(started.elapsed());
        outcome.setup_layers.push(layers);
    }
    Ok(kept.expect("SETUP_REPS is positive"))
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The Harrell–Davis estimate of the `q`-quantile of `values`: the mean of
/// all order statistics weighted by a Beta(q(n+1), (1−q)(n+1)) density over
/// their rank intervals. With few samples a single order statistic jumps
/// when one job changes; this estimate moves smoothly. 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    // Midpoint-rule steps per rank interval for the Beta weights.
    const STEPS: usize = 64;
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let step = 1.0 / (n * STEPS) as f64;
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|k| {
            let t = (k as f64 + 0.5) * step;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let (mut weighted, mut total) = (0.0, 0.0);
    for (x, chunk) in v.iter().zip(log_density.chunks(STEPS)) {
        let w: f64 = chunk.iter().map(|l| (l - peak).exp()).sum();
        weighted += w * x;
        total += w;
    }
    weighted / total
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A counter of the process-global metrics registry (0 when absent).
pub fn registry_counter(name: &str) -> f64 {
    atspeed_trace::metrics::global()
        .snapshot()
        .counter(name)
        .unwrap_or(0) as f64
}
