//! Bit-parallel 3-valued logic simulation and stuck-at fault simulation.
//!
//! This crate is the simulation substrate of the reproduction of
//! Pomeranz & Reddy (DAC 2001). It provides:
//!
//! - [`logic`] — a 3-valued (0/1/X) logic system packed 64 slots per word,
//!   so one gate evaluation advances 64 independent machines;
//! - [`vectors`] — primary-input sequences and state vectors;
//! - [`comb`] — the legacy levelized walker with fault-injection
//!   overrides, kept as the reference the compiled kernel is checked
//!   against;
//! - [`kernel`] — [`CompiledSim`], the one simulation kernel: a full
//!   levelized pass over the compiled CSR view of the netlist;
//! - [`fault`] — the single stuck-at fault universe with structural
//!   equivalence collapsing;
//! - [`fsim_comb`] — parallel-pattern single-fault (PPSFP) combinational
//!   fault simulation over the full-scan view, with an event-driven
//!   propagation core;
//! - [`fsim_seq`] — parallel-fault sequential fault simulation (good machine
//!   in slot 0, up to 63 faulty machines per pass) producing the *detection
//!   profiles* (earliest primary-output detection time, per-cycle state
//!   difference sets) that Phase 1 of the paper consumes;
//! - [`parallel`] — [`ParallelFsim`], a multi-threaded front end that
//!   shards faults (or tests, with cross-partition fault dropping through
//!   a shared atomic bitmap) across `std::thread::scope` workers behind a
//!   [`SimConfig`]; `threads = 1` reproduces the serial engines
//!   bit-for-bit;
//! - [`stats`] — per-phase instrumentation counters (gate evaluations,
//!   fault-sim invocations, faults dropped, wall time per partition)
//!   snapshotted into a [`SimReport`].
//!
//! # Example
//!
//! ```
//! use atspeed_circuit::bench_fmt::s27;
//! use atspeed_sim::fault::FaultUniverse;
//!
//! let nl = s27();
//! let faults = FaultUniverse::full(&nl);
//! // s27's classic fault statistics: 52 uncollapsed, 32 collapsed.
//! assert_eq!(faults.num_faults(), 52);
//! assert_eq!(faults.num_collapsed(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comb;
pub mod fault;
pub mod fsim_comb;
pub mod fsim_seq;
pub mod kernel;
pub mod logic;
pub mod parallel;
pub mod stats;
pub mod transition;
pub mod vcd;
pub mod vectors;

pub use comb::{CombSim, Overrides};
pub use fault::{Fault, FaultId, FaultSite, FaultUniverse};
pub use fsim_comb::{CombFaultSim, CombTest};
pub use fsim_seq::{DetectionProfile, FinalObserve, SeqFaultSim, SeqSim};
pub use kernel::CompiledSim;
pub use logic::{V3, W3};
pub use parallel::{EngineKind, MatrixMismatch, ParallelFsim, SimConfig};
pub use stats::{PhaseStats, SimReport};
pub use transition::{TransitionFault, TransitionFaultSim};
pub use vectors::{try_parse_values, ParseError, Sequence, State};
