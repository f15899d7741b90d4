//! `serve-mixed`: a closed-loop request stream against an in-process
//! batch server.
//!
//! The server runs 2 workers with single-threaded jobs and the default
//! cache budget. Two client connections each submit their own seeded list
//! and wait for every reply. The keys are default `PipelineConfig` jobs on
//! the fastest small catalog circuits, several seeds per circuit, so keys
//! share netlists (circuit-cache hits) but not results (result-cache
//! misses). Every key is submitted twice by the same client, so its repeat
//! is a result-cache hit that never waits on an in-flight computation.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use atspeed_circuit::{bench_fmt, catalog, Netlist};
use atspeed_core::{Pipeline, PipelineConfig, ScanTest, TestSet};
use atspeed_serve::protocol::{decode_result_summary, encode_result};
use atspeed_serve::{CacheBudget, CacheOutcome, Client, ServeConfig, Server};
use atspeed_sim::fault::FaultUniverse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    quantile, ratio, with_inputs, Job, LayerCall, Layers, Outcome, Pass, Quality, SIM,
};

/// The `tables-small` circuits without s641 and s820, the two slowest.
pub const CIRCUITS: [&str; 11] = [
    "s298", "s344", "s382", "s400", "s526", "b01", "b02", "b03", "b06", "b09", "b10",
];
/// Job seeds per circuit: 110 keys, so 110 misses and 110 hits.
const SEEDS_PER_CIRCUIT: usize = 10;
/// Concurrent client connections (closed loop).
const CLIENTS: usize = 2;
/// Keys whose served body is compared with an in-process pipeline run.
const REFERENCE_KEYS: usize = 3;

struct Circuit {
    name: &'static str,
    /// The `.bench` text every submission of this circuit sends.
    text: String,
    /// The parsed text, for the output checks.
    nl: Netlist,
}

struct Setup {
    circuits: Vec<Circuit>,
    server: Server,
    clients: Vec<Client>,
}

/// One submission: key index and the config it sends.
#[derive(Clone, Copy)]
struct Request {
    key: usize,
    circuit: usize,
    config: PipelineConfig,
}

/// What a client saw for one submission.
struct Reply {
    key: usize,
    latency: Duration,
    outcome: Result<(CacheOutcome, u64, Vec<u8>), String>,
}

pub fn run(seed: u64) -> Result<Outcome, String> {
    with_inputs(setup, stop, |s| vec![pass(s, seed)])
}

fn setup(layers: &mut Layers) -> Result<Setup, String> {
    let mut circuits = Vec::with_capacity(CIRCUITS.len());
    for name in CIRCUITS {
        let info = catalog::by_name(name).map_err(|e| e.to_string())?;
        let built = layers.time("setup", "circuit.build", || info.instantiate());
        let text = layers.time("setup", "circuit.write", || bench_fmt::write(&built));
        // The server parses every submission; time the same parse here.
        let nl = layers
            .time("setup", "circuit.parse", || bench_fmt::parse(name, &text))
            .map_err(|e| format!("{name}: {e}"))?;
        layers.time("setup", "circuit.compile", || {
            std::hint::black_box(nl.compiled());
        });
        circuits.push(Circuit { name, text, nl });
    }
    let server = layers
        .time("setup", "serve.start", || {
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                job_sim: SIM,
                budget: CacheBudget::default(),
                history: None,
                trace_dir: None,
            })
        })
        .map_err(|e| format!("server start: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Setup {
        circuits,
        server,
        clients,
    })
}

fn stop(setup: Setup) {
    drop(setup.clients);
    setup.server.shutdown();
    setup.server.wait();
}

/// The seeded stream: one list per client. Keys are dealt round-robin
/// after a shuffle, and each client's list holds its keys twice in a
/// shuffled order, so the first submission of a key computes and the
/// second is served from the result cache.
fn streams(seed: u64) -> Vec<Vec<Request>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::new();
    for circuit in 0..CIRCUITS.len() {
        for _ in 0..SEEDS_PER_CIRCUIT {
            let config = PipelineConfig {
                seed: rng.gen_range(0..1_000_000u64),
                sim: SIM,
                ..PipelineConfig::default()
            };
            keys.push(Request {
                key: keys.len(),
                circuit,
                config,
            });
        }
    }
    shuffle(&mut keys, &mut rng);
    let mut lists = vec![Vec::new(); CLIENTS];
    for (i, request) in keys.into_iter().enumerate() {
        lists[i % CLIENTS].extend([request, request]);
    }
    for list in &mut lists {
        shuffle(list, &mut rng);
    }
    lists
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

fn pass(setup: &mut Setup, seed: u64) -> Pass {
    atspeed_sim::stats::reset();
    let mut pass = Pass::default();
    let lists = streams(seed);
    let circuits = &setup.circuits;
    let barrier = Barrier::new(CLIENTS);

    let started = Instant::now();
    let replies: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .zip(&lists)
            .map(|(client, list)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    list.iter()
                        .map(|r| {
                            let c = &circuits[r.circuit];
                            let _span = atspeed_trace::span_args(
                                "serve.submit",
                                &[("circuit", &c.name), ("key", &r.key)],
                            );
                            let sent = Instant::now();
                            let outcome = client
                                .submit(c.name, &c.text, &r.config)
                                .map(|reply| (reply.header.cache, reply.header.wall_us, reply.body))
                                .map_err(|e| e.to_string());
                            Reply {
                                key: r.key,
                                latency: sent.elapsed(),
                                outcome,
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    pass.wall = started.elapsed();
    // Each client is busy only inside `submit`; the rest of its wall time
    // is the benchmark's own.
    pass.lanes = CLIENTS as u32;
    for reply in replies.iter().flatten() {
        let call = match &reply.outcome {
            Ok((CacheOutcome::Hit, ..)) => "serve.submit_hit",
            Ok((CacheOutcome::Miss, ..)) => "serve.submit_miss",
            Err(_) => "serve.submit_failed",
        };
        pass.layers.calls.push(LayerCall {
            phase: "stream",
            call,
            time: reply.latency,
        });
    }
    read_counters(&mut pass, &mut setup.clients[0], &replies);

    // Output checks, outside the timed region.
    atspeed_sim::stats::set_phase("verify");
    let requests: BTreeMap<usize, Request> = lists.iter().flatten().map(|r| (r.key, *r)).collect();
    let mut bodies: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let mut digest = Vec::new();
    for reply in replies.iter().flatten() {
        pass.attempted += 1;
        let (cache, body) = match &reply.outcome {
            Ok((cache, _, body)) => (*cache, body),
            Err(e) => {
                pass.failures.push(format!("key {}: {e}", reply.key));
                continue;
            }
        };
        pass.jobs.push(Job {
            latency: reply.latency,
            hit: cache == CacheOutcome::Hit,
        });
        match (bodies.get(&reply.key), cache) {
            (None, CacheOutcome::Miss) => {
                bodies.insert(reply.key, body.clone());
            }
            (Some(first), CacheOutcome::Hit) if first == body => {}
            (Some(_), CacheOutcome::Hit) => pass.failures.push(format!(
                "key {}: hit body differs from its miss body",
                reply.key
            )),
            (_, outcome) => pass.failures.push(format!(
                "key {}: unexpected cache outcome `{outcome}`",
                reply.key
            )),
        }
    }
    for (key, body) in &bodies {
        let c = &circuits[requests[key].circuit];
        match check_body(&c.nl, body) {
            Ok(q) => {
                pass.quality.test_cycles += q.test_cycles;
                pass.quality.faults_detected += q.faults_detected;
                pass.quality.vectors += q.vectors;
                pass.quality.tests += q.tests;
            }
            Err(e) => pass.failures.push(format!("key {key} ({}): {e}", c.name)),
        }
        digest.push(String::from_utf8_lossy(body).into_owned());
    }
    // A seeded sample of keys must match an in-process run byte for byte.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut keys: Vec<usize> = bodies.keys().copied().collect();
    shuffle(&mut keys, &mut rng);
    for key in keys.iter().take(REFERENCE_KEYS) {
        let r = requests[key];
        let nl = &circuits[r.circuit].nl;
        match Pipeline::from_config(nl, &r.config).run() {
            Ok(result) if encode_result(&result, nl.num_pis()).as_bytes() == bodies[key] => {}
            Ok(_) => pass.failures.push(format!(
                "key {key}: served body differs from an in-process run"
            )),
            Err(e) => pass
                .failures
                .push(format!("key {key}: in-process run: {e}")),
        }
    }
    pass.digest = atspeed_trace::history::fingerprint(&digest);
    pass
}

/// Decodes a result body, checks its stimuli against its summary and
/// re-simulates them: the set must detect at least the faults it claims.
fn check_body(nl: &Netlist, body: &[u8]) -> Result<Quality, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let summary: BTreeMap<String, String> = decode_result_summary(text).into_iter().collect();
    let field = |k: &str| -> Result<u64, String> {
        summary
            .get(k)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("summary lacks `{k}`"))
    };
    let stimuli = text.split_once("\n\n").map_or("", |(_, rest)| rest);
    let mut set = TestSet::new();
    for block in stimuli.split("--\n").filter(|b| !b.trim().is_empty()) {
        let (si, seq) = atspeed_verify::decode_stimuli(block, nl.num_ffs(), nl.num_pis())
            .map_err(|e| format!("stimuli: {e}"))?;
        set.tests.push(ScanTest::new(si, seq));
    }
    let q = Quality {
        test_cycles: field("comp_cycles")?,
        faults_detected: field("final_detected")?,
        vectors: set.total_vectors() as u64,
        tests: set.len() as u64,
    };
    if set.len() as u64 != field("tests")? || set.clock_cycles(nl.num_ffs()) as u64 != q.test_cycles
    {
        return Err("stimuli disagree with the summary".to_owned());
    }
    let universe = FaultUniverse::full(nl);
    let found = set.count_detected(nl, &universe, universe.representatives()) as u64;
    if found < q.faults_detected {
        return Err(format!(
            "set detects {found} faults but claims {}",
            q.faults_detected
        ));
    }
    Ok(q)
}

/// Cache counters from `Client::stats`, server-side wall times from the
/// response headers, and the ATPG counters of the in-process workers.
fn read_counters(pass: &mut Pass, client: &mut Client, replies: &[Vec<Reply>]) {
    let stats: BTreeMap<String, f64> = client
        .stats()
        .map(|text| {
            text.lines()
                .filter_map(|l| l.split_once('='))
                .filter_map(|(k, v)| Some((k.trim().to_owned(), v.trim().parse().ok()?)))
                .collect()
        })
        .unwrap_or_default();
    let stat = |k: &str| stats.get(k).copied().unwrap_or(0.0);
    let c = &mut pass.counters;
    c.insert("serve.cache_hits", stat("hits"));
    c.insert("serve.cache_misses", stat("misses"));
    c.insert("serve.cache_waits", stat("waits"));
    c.insert("serve.cache_evictions", stat("evictions"));
    c.insert(
        "serve.hit_ratio",
        ratio(stat("hits"), stat("hits") + stat("misses")),
    );
    let mut server_ms = [Vec::new(), Vec::new()];
    let mut overhead_ms = Vec::new();
    for reply in replies.iter().flatten() {
        if let Ok((cache, wall_us, _)) = &reply.outcome {
            let client_ms = reply.latency.as_secs_f64() * 1e3;
            let server = *wall_us as f64 / 1e3;
            server_ms[usize::from(*cache == CacheOutcome::Miss)].push(server);
            overhead_ms.push(client_ms - server);
        }
    }
    c.insert("serve.server_ms_p50.hit", quantile(&server_ms[0], 0.5));
    c.insert("serve.server_ms_p50.miss", quantile(&server_ms[1], 0.5));
    c.insert("serve.overhead_ms_p50", quantile(&overhead_ms, 0.5));
    crate::flow::read_counters(c, (0, 0));
}
