//! The proposed procedure's Phases 1–4, composed from the public phase
//! functions the way `Pipeline::run` and the `stress` binary compose them,
//! with each phase timed from outside.

use std::collections::BTreeMap;

use atspeed_circuit::Netlist;
use atspeed_core::iterate::{build_tau_seq, IterateConfig};
use atspeed_core::phase3::top_up_with;
use atspeed_core::phase4::{combine_tests_cfg, CombineConfig, StaticCompactionStats};
use atspeed_core::{CoreError, MemoryBudget, ScanTest, TestSet};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombTest, Sequence};

use crate::common::{registry_counter, Layers, SIM};

/// The compacted set of one proposed flow and what it claims.
pub struct FlowResult {
    pub compacted: TestSet,
    /// Faults the set is claimed to detect (Table 1 "final").
    pub detected: Vec<FaultId>,
    pub p4: StaticCompactionStats,
}

/// Phases 1–2 (`build_tau_seq`), Phase 3 (`top_up_with`) and Phase 4
/// (`combine_tests_cfg`) on one circuit.
pub fn proposed_flow(
    nl: &Netlist,
    universe: &FaultUniverse,
    targets: &[FaultId],
    comb: &[CombTest],
    t0: &Sequence,
    iterate: IterateConfig,
    layers: &mut Layers,
) -> Result<FlowResult, CoreError> {
    let tau = layers.time("phase1-2", "core.phase12", || {
        build_tau_seq(nl, universe, t0, comb, targets, iterate)
    })?;
    let undetected: Vec<FaultId> = targets
        .iter()
        .filter(|f| !tau.detected.contains(f))
        .copied()
        .collect();
    let p3 = layers.time("phase3", "core.phase3", || {
        top_up_with(nl, universe, comb, &undetected, SIM)
    });
    let mut tests: Vec<ScanTest> = Vec::with_capacity(1 + p3.added.len());
    tests.push(tau.test);
    tests.extend(p3.added);
    let initial = TestSet::from_tests(tests);
    let detected: Vec<FaultId> = targets
        .iter()
        .filter(|f| !p3.still_undetected.contains(f))
        .copied()
        .collect();
    let (compacted, p4) = layers.time("phase4", "core.phase4", || {
        combine_tests_cfg(
            nl,
            universe,
            &initial,
            &detected,
            CombineConfig {
                transfer: None,
                sim: SIM,
                max_failed_pairs: MemoryBudget::default().max_failed_pairs,
            },
        )
    });
    Ok(FlowResult {
        compacted,
        detected,
        p4,
    })
}

/// Fingerprint of a test set's stimuli in the repro-bundle wire format.
pub fn test_set_digest(set: &TestSet) -> String {
    let tests: Vec<String> = set
        .tests
        .iter()
        .map(|t| atspeed_verify::encode_stimuli(&t.si, &t.seq))
        .collect();
    atspeed_trace::history::fingerprint(&tests)
}

/// Reads the ATPG and Phase 2 work counters the program exports, plus the
/// summed Phase 4 `(attempts, combinations)` of the pass.
pub fn read_counters(counters: &mut BTreeMap<&'static str, f64>, p4: (usize, usize)) {
    counters.insert("atpg.podem_tests", registry_counter("podem/tests"));
    counters.insert("atpg.podem_aborted", registry_counter("podem/aborted"));
    counters.insert(
        "atpg.omission_attempts",
        registry_counter("omission/attempts"),
    );
    counters.insert(
        "atpg.omission_accepted",
        registry_counter("omission/accepted"),
    );
    counters.insert("atpg.omission_wasted", registry_counter("omission/wasted"));
    counters.insert("core.phase2_s", registry_counter("omission/wall_us") / 1e6);
    counters.insert("core.phase4_attempts", p4.0 as f64);
    counters.insert("core.phase4_combinations", p4.1 as f64);
}
