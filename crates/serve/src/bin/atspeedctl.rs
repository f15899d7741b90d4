//! Command-line client for a running `serve` instance.
//!
//! Usage:
//!
//! ```text
//! atspeedctl ping     [--addr HOST:PORT]
//! atspeedctl submit   [--addr HOST:PORT] (--circuit NAME | --bench FILE)
//!                     [--name NAME] [--seed N] [--t0 directed|property|random]
//!                     [--t0-len N] [--phase4 0|1] [--verify 0|1]
//!                     [--threads N] [--out FILE]
//! atspeedctl stats    [--addr HOST:PORT]
//! atspeedctl shutdown [--addr HOST:PORT]
//! ```
//!
//! `submit` sends a `.bench` netlist — from a file, or instantiated from
//! the paper's benchmark catalog with `--circuit s298` — plus a pipeline
//! config, prints the response header (`cache = hit|miss`, fingerprints,
//! server wall time) to stdout, and writes the result body to `--out`
//! (stdout when omitted). Repeat submissions of an identical (netlist,
//! config) pair return byte-identical bodies, so `cmp` on two `--out`
//! files is the cache-coherence check CI runs.

use std::process::ExitCode;

use atspeed_circuit::{bench_fmt, catalog};
use atspeed_core::{PipelineConfig, T0Source};
use atspeed_serve::Client;

const DEFAULT_ADDR: &str = "127.0.0.1:4715";

fn usage() -> String {
    "usage: atspeedctl <ping|submit|stats|shutdown> [--addr HOST:PORT] \
     [submit: (--circuit NAME | --bench FILE) [--name NAME] [--seed N] \
     [--t0 directed|property|random] [--t0-len N] [--phase4 0|1] \
     [--verify 0|1] [--threads N] [--out FILE]]"
        .to_owned()
}

struct SubmitArgs {
    addr: String,
    name: Option<String>,
    circuit: Option<String>,
    bench_file: Option<String>,
    out: Option<String>,
    config: PipelineConfig,
}

fn run() -> Result<(), String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or_else(usage)?;
    let mut args = SubmitArgs {
        addr: DEFAULT_ADDR.to_owned(),
        name: None,
        circuit: None,
        bench_file: None,
        out: None,
        config: PipelineConfig::default(),
    };
    let mut t0 = "directed".to_owned();
    let mut t0_len = 1024usize;
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--addr" => args.addr = value("host:port")?,
            "--name" => args.name = Some(value("a name")?),
            "--circuit" => args.circuit = Some(value("a catalog name")?),
            "--bench" => args.bench_file = Some(value("a path")?),
            "--out" => args.out = Some(value("a path")?),
            "--seed" => {
                let v = value("a number")?;
                args.config.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--t0" => t0 = value("a source")?,
            "--t0-len" => {
                let v = value("a length")?;
                t0_len = v.parse().map_err(|_| format!("bad length `{v}`"))?;
            }
            "--phase4" => {
                args.config.phase4 = parse_flag(&value("0 or 1")?)?;
            }
            "--verify" => {
                args.config.verify = parse_flag(&value("0 or 1")?)?;
            }
            "--threads" => {
                let v = value("a count")?;
                args.config.sim.threads =
                    v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.config.t0_source = match t0.as_str() {
        "directed" => T0Source::Directed { max_len: t0_len },
        "property" => T0Source::Property { max_len: t0_len },
        "random" => T0Source::Random { len: t0_len },
        other => return Err(format!("bad t0 source `{other}`")),
    };

    let connect =
        |addr: &str| Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"));
    match command.as_str() {
        "ping" => {
            let pong = connect(&args.addr)?.ping().map_err(|e| e.to_string())?;
            println!("{pong}");
            Ok(())
        }
        "stats" => {
            let stats = connect(&args.addr)?.stats().map_err(|e| e.to_string())?;
            print!("{stats}");
            Ok(())
        }
        "shutdown" => {
            connect(&args.addr)?.shutdown().map_err(|e| e.to_string())?;
            println!("server stopping");
            Ok(())
        }
        "submit" => submit(args),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn submit(args: SubmitArgs) -> Result<(), String> {
    let (default_name, bench) = match (&args.circuit, &args.bench_file) {
        (Some(name), None) => {
            let info = catalog::by_name(name).map_err(|e| e.to_string())?;
            (name.clone(), bench_fmt::write(&info.instantiate()))
        }
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("submitted")
                .to_owned();
            (stem, text)
        }
        _ => return Err("submit needs exactly one of --circuit or --bench".to_owned()),
    };
    let name = args.name.unwrap_or(default_name);
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let reply = client
        .submit(&name, &bench, &args.config)
        .map_err(|e| e.to_string())?;
    print!("{}", reply.header.encode());
    match &args.out {
        Some(path) => {
            std::fs::write(path, &reply.body).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("body = {path} ({} bytes)", reply.body.len());
        }
        None => {
            println!();
            print!("{}", String::from_utf8_lossy(&reply.body));
        }
    }
    Ok(())
}

fn parse_flag(v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad flag `{v}` (expected 0 or 1)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
