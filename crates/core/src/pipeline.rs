//! End-to-end driver for the proposed compaction procedure.
//!
//! [`Pipeline`] wires the four phases together for one circuit: generate
//! (or accept) the combinational test set `C`, generate (or accept) the
//! test sequence `T_0`, run Phases 1–3 to obtain the *initial* proposed
//! test set `{τ_seq, τ_1..τ_M}`, and optionally Phase 4 (static compaction
//! by combining) for the final set. The result carries every quantity the
//! paper's Tables 1–5 report for the proposed method.

use atspeed_atpg::comb_tset::{self, CombTsetConfig};
use atspeed_atpg::{directed_t0, property_t0, random_t0, DirectedConfig, PropertyConfig};
use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{stats, CombTest, Sequence, SimConfig};

use crate::error::CoreError;
use crate::iterate::{build_tau_seq, IterateConfig};
use crate::oracle::{verify_test_set, ClaimedCoverage, OracleReport};
use crate::phase3::top_up_with;
use crate::phase4::{combine_tests_cfg, CombineConfig};
use crate::test::{AtSpeedStats, ScanTest, TestSet};

/// Memory bounds for the phases that would otherwise scale with
/// `faults × sequence length` (Phase 2 detection profiles) or with the
/// square of the test count (Phase 4's failed-pair memo). Both bounds
/// trade memory for extra work or pessimism without ever *over*-claiming
/// coverage, so any budget yields a sound test set; the default is
/// effectively unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Per-fault state-diff words kept by Phase 2 omission profiles
    /// ([`atspeed_atpg::compact::OmissionConfig::profile_state_words`]).
    pub profile_state_words: usize,
    /// Phase 4 failed-pair memo cap
    /// ([`CombineConfig::max_failed_pairs`]).
    pub max_failed_pairs: usize,
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget {
            profile_state_words: usize::MAX,
            max_failed_pairs: CombineConfig::default().max_failed_pairs,
        }
    }
}

/// Where the initial test sequence `T_0` comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum T0Source {
    /// STRATEGATE-style directed generation (ISCAS-89 rows of Tables 1–4).
    Directed {
        /// Length cap for the generated sequence.
        max_len: usize,
    },
    /// PROPTEST-style burst generation (ITC-99 rows of Tables 1–4).
    Property {
        /// Length cap for the generated sequence.
        max_len: usize,
    },
    /// Uniform random sequence (Table 5 uses length 1000).
    Random {
        /// Exact length of the random sequence.
        len: usize,
    },
}

/// A plain-data description of one pipeline run — everything a
/// [`Pipeline`] needs except the netlist itself.
///
/// Where the builder borrows its circuit and reads `SIM_THREADS` from the
/// environment, a `PipelineConfig` is `Send + Sync + 'static` and fully
/// explicit, so it can cross threads as a job payload: a batch server
/// holds `(Arc<Netlist>, PipelineConfig)` pairs and each worker runs
/// [`Pipeline::from_config`] reentrantly. Two configs with equal
/// [`PipelineConfig::canonical_lines`] produce byte-identical results on
/// the same netlist, which is what content-addressed result caches key
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Where `T_0` comes from.
    pub t0_source: T0Source,
    /// Master seed.
    pub seed: u64,
    /// Whether Phase 4 (static compaction) runs.
    pub phase4: bool,
    /// Whether the end-to-end coverage oracle re-checks the run.
    pub verify: bool,
    /// Threading/kernel configuration. Never read from the environment:
    /// a served job must not change behavior with the server's env.
    pub sim: SimConfig,
    /// Memory bounds for the profile- and cache-heavy phases.
    pub memory: MemoryBudget,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            t0_source: T0Source::Directed { max_len: 1024 },
            seed: 1,
            phase4: true,
            verify: false,
            sim: SimConfig::default(),
            memory: MemoryBudget::default(),
        }
    }
}

impl PipelineConfig {
    /// The canonical `key = value` rendering of the **result-determining**
    /// fields, one per line, sorted by key.
    ///
    /// This is the basis of config fingerprints: two configs with equal
    /// canonical lines yield byte-identical [`PipelineResult`]s on the
    /// same netlist. Execution knobs that are guaranteed not to change
    /// results — worker threads, chunk size, the evaluation kernel — are
    /// deliberately **excluded**, so a cache keyed on these lines serves
    /// a result computed at any thread count to a client asking at any
    /// other.
    pub fn canonical_lines(&self) -> String {
        let (t0, t0_len) = match self.t0_source {
            T0Source::Directed { max_len } => ("directed", max_len),
            T0Source::Property { max_len } => ("property", max_len),
            T0Source::Random { len } => ("random", len),
        };
        format!(
            "max_failed_pairs = {}\nphase4 = {}\nprofile_state_words = {}\n\
             seed = {}\nt0 = {}\nt0_len = {}\nverify = {}\n",
            self.memory.max_failed_pairs,
            u8::from(self.phase4),
            self.memory.profile_state_words,
            self.seed,
            t0,
            t0_len,
            u8::from(self.verify),
        )
    }
}

/// Builder for one pipeline run over a circuit.
#[derive(Debug, Clone)]
pub struct Pipeline<'a> {
    nl: &'a Netlist,
    t0_source: T0Source,
    seed: u64,
    comb_cfg: CombTsetConfig,
    iterate_cfg: IterateConfig,
    run_phase4: bool,
    provided_t0: Option<Sequence>,
    provided_c: Option<Vec<CombTest>>,
    sim: SimConfig,
    verify: bool,
    memory: MemoryBudget,
}

impl<'a> Pipeline<'a> {
    /// Creates a pipeline for `nl` with default settings (directed `T_0`
    /// capped at 1024 vectors, Phase 4 enabled).
    ///
    /// Threading defaults to [`SimConfig::from_env`] (`SIM_THREADS`, serial
    /// when unset); every stage produces identical results at any thread
    /// count, so the environment only changes wall time.
    pub fn new(nl: &'a Netlist) -> Self {
        Pipeline {
            nl,
            t0_source: T0Source::Directed { max_len: 1024 },
            seed: 1,
            comb_cfg: CombTsetConfig::default(),
            iterate_cfg: IterateConfig::default(),
            run_phase4: true,
            provided_t0: None,
            provided_c: None,
            sim: SimConfig::from_env(),
            verify: false,
            memory: MemoryBudget::default(),
        }
    }

    /// Creates a pipeline for `nl` from a plain-data [`PipelineConfig`].
    ///
    /// Unlike [`Pipeline::new`] this never consults the environment: the
    /// config says everything, so a batch server running many jobs on one
    /// process gets identical behavior regardless of its own `SIM_THREADS`.
    pub fn from_config(nl: &'a Netlist, cfg: &PipelineConfig) -> Self {
        Pipeline {
            nl,
            t0_source: cfg.t0_source,
            seed: cfg.seed,
            comb_cfg: CombTsetConfig::default(),
            iterate_cfg: IterateConfig::default(),
            run_phase4: cfg.phase4,
            provided_t0: None,
            provided_c: None,
            sim: cfg.sim,
            verify: cfg.verify,
            memory: cfg.memory,
        }
    }

    /// Bounds the memory of the profile- and cache-heavy phases; see
    /// [`MemoryBudget`]. Any budget yields a sound (possibly less
    /// compacted) test set.
    pub fn memory_budget(mut self, memory: MemoryBudget) -> Self {
        self.memory = memory;
        self
    }

    /// Overrides the threading configuration for every stage (combinational
    /// set generation, `T_0` generation, Phases 1–4).
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the `T_0` source.
    pub fn t0_source(mut self, source: T0Source) -> Self {
        self.t0_source = source;
        self
    }

    /// Sets the master seed (combinational set and `T_0` generation derive
    /// from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the combinational-test-set configuration.
    pub fn comb_config(mut self, cfg: CombTsetConfig) -> Self {
        self.comb_cfg = cfg;
        self
    }

    /// Overrides the Phases 1–2 iteration configuration.
    pub fn iterate_config(mut self, cfg: IterateConfig) -> Self {
        self.iterate_cfg = cfg;
        self
    }

    /// Enables or disables Phase 4 (static compaction of the result).
    pub fn phase4(mut self, enabled: bool) -> Self {
        self.run_phase4 = enabled;
        self
    }

    /// Enables the end-to-end coverage oracle: after the phases finish, the
    /// initial and compacted test sets are independently re-fault-simulated
    /// with the serial reference engine and cross-checked against the
    /// claimed coverage ([`verify_test_set`]). [`Pipeline::run`] then
    /// returns [`CoreError::VerificationFailed`] on any discrepancy.
    pub fn verify(mut self, enabled: bool) -> Self {
        self.verify = enabled;
        self
    }

    /// Supplies an external `T_0` instead of generating one.
    pub fn with_t0(mut self, t0: Sequence) -> Self {
        self.provided_t0 = Some(t0);
        self
    }

    /// Supplies an external combinational test set `C` instead of
    /// generating one.
    pub fn with_comb_tests(mut self, c: Vec<CombTest>) -> Self {
        self.provided_c = Some(c);
        self
    }

    /// Runs the full procedure.
    ///
    /// # Errors
    ///
    /// Returns an error when `C` would be empty, `T_0` is empty, or the
    /// fault universe is empty.
    pub fn run(self) -> Result<PipelineResult, CoreError> {
        let nl = self.nl;
        let universe = FaultUniverse::full(nl);
        let targets: Vec<FaultId> = universe.representatives().to_vec();

        // Combinational test set C.
        stats::set_phase("comb-gen");
        let sp = atspeed_trace::span_args(
            "pipeline.comb-gen",
            &[("faults", &targets.len()), ("gates", &nl.num_gates())],
        );
        let (comb_tests, untestable) = match self.provided_c {
            Some(c) => (c, Vec::new()),
            None => {
                let mut cfg = self.comb_cfg.clone();
                cfg.seed = cfg.seed.wrapping_add(self.seed.wrapping_mul(0x9e37_79b9));
                cfg.sim = self.sim;
                let set = comb_tset::generate(nl, &universe, &cfg)?;
                (set.tests, set.untestable)
            }
        };
        if comb_tests.is_empty() {
            return Err(CoreError::NoScanInCandidates);
        }

        // T_0.
        drop(sp);
        stats::set_phase("t0-gen");
        let sp = atspeed_trace::span("pipeline.t0-gen");
        let t0 = match self.provided_t0 {
            Some(t0) => t0,
            None => match self.t0_source {
                T0Source::Directed { max_len } => directed_t0(
                    nl,
                    &universe,
                    &targets,
                    &DirectedConfig {
                        max_len,
                        seed: self.seed.wrapping_add(11),
                        sim: self.sim,
                        ..DirectedConfig::default()
                    },
                ),
                T0Source::Property { max_len } => property_t0(
                    nl,
                    &universe,
                    &targets,
                    &PropertyConfig {
                        max_len,
                        seed: self.seed.wrapping_add(13),
                        ..PropertyConfig::default()
                    },
                ),
                T0Source::Random { len } => random_t0(nl, len, self.seed.wrapping_add(17)),
            },
        };
        if t0.is_empty() {
            return Err(CoreError::EmptyT0);
        }
        let t0_len = t0.len();

        // Phases 1–2, iterated.
        drop(sp);
        stats::set_phase("phase1-2");
        let sp = atspeed_trace::span_args(
            "pipeline.phase1-2",
            &[
                ("comb_tests", &comb_tests.len()),
                ("faults", &targets.len()),
            ],
        );
        let mut iterate_cfg = self.iterate_cfg;
        iterate_cfg.phase1.sim = self.sim;
        iterate_cfg.omission.sim = self.sim;
        iterate_cfg.omission.profile_state_words = self.memory.profile_state_words;
        let tau = build_tau_seq(nl, &universe, &t0, &comb_tests, &targets, iterate_cfg)?;

        // Phase 3: top up to complete coverage.
        drop(sp);
        stats::set_phase("phase3");
        let undetected: Vec<FaultId> = targets
            .iter()
            .filter(|f| !tau.detected.contains(f))
            .copied()
            .collect();
        let sp = atspeed_trace::span_args("pipeline.phase3", &[("undetected", &undetected.len())]);
        let p3 = top_up_with(nl, &universe, &comb_tests, &undetected, self.sim);

        let mut tests: Vec<ScanTest> = Vec::with_capacity(1 + p3.added.len());
        tests.push(tau.test.clone());
        tests.extend(p3.added.iter().cloned());
        let initial_set = TestSet::from_tests(tests);
        let final_detected_faults: usize = targets.len() - p3.still_undetected.len();

        // Phase 4: static compaction of the proposed set.
        drop(sp);
        stats::set_phase("phase4");
        let sp = atspeed_trace::span_args("pipeline.phase4", &[("tests", &initial_set.len())]);
        let detected_by_set: Vec<FaultId> = targets
            .iter()
            .filter(|f| !p3.still_undetected.contains(f))
            .copied()
            .collect();
        let (compacted_set, _) = if self.run_phase4 {
            combine_tests_cfg(
                nl,
                &universe,
                &initial_set,
                &detected_by_set,
                CombineConfig {
                    transfer: None,
                    sim: self.sim,
                    max_failed_pairs: self.memory.max_failed_pairs,
                },
            )
        } else {
            (initial_set.clone(), Default::default())
        };
        drop(sp);

        // Optional end-to-end verification: re-simulate both sets with the
        // serial reference engine against what the phases claimed. The
        // initial set carries the per-test τ_seq claim (test 0); the
        // compacted set must cover the same whole-set claim, which is
        // exactly Phase 4's "coverage never decreases" invariant.
        let oracle = if self.verify {
            stats::set_phase("verify");
            let sp = atspeed_trace::span("pipeline.verify");
            let init_claim = ClaimedCoverage {
                detected: detected_by_set.clone(),
                per_test: vec![(0, tau.detected.clone())],
            };
            let a = verify_test_set(nl, &universe, &initial_set, &init_claim)?;
            let b = verify_test_set(
                nl,
                &universe,
                &compacted_set,
                &ClaimedCoverage::set_only(detected_by_set.clone()),
            )?;
            drop(sp);
            Some(OracleReport {
                set_faults_checked: a.set_faults_checked + b.set_faults_checked,
                per_test_faults_checked: a.per_test_faults_checked + b.per_test_faults_checked,
                simulations: a.simulations + b.simulations,
            })
        } else {
            None
        };
        stats::set_phase("post-pipeline");

        let n_sv = nl.num_ffs();
        Ok(PipelineResult {
            circuit: nl.name().to_owned(),
            n_sv,
            num_comb_tests: comb_tests.len(),
            total_faults: universe.num_collapsed(),
            untestable_faults: untestable.len(),
            t0_len,
            t0_detected: tau.f0.len(),
            tau_seq_len: tau.test.len(),
            tau_seq_detected: tau.detected.len(),
            iterations: tau.iterations,
            added_tests: p3.added.len(),
            final_detected: final_detected_faults,
            init_cycles: initial_set.clock_cycles(n_sv),
            comp_cycles: compacted_set.clock_cycles(n_sv),
            at_speed_init: initial_set.at_speed_stats(),
            at_speed_comp: compacted_set.at_speed_stats(),
            initial_set,
            compacted_set,
            comb_tests,
            oracle,
        })
    }
}

/// Everything the paper's tables report about one proposed-procedure run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Circuit name.
    pub circuit: String,
    /// Number of scanned state variables `N_SV`.
    pub n_sv: usize,
    /// `|C|` (Table 1 column "comb tsts").
    pub num_comb_tests: usize,
    /// Collapsed fault count (Table 1 column "flts").
    pub total_faults: usize,
    /// Faults proven combinationally untestable while generating `C`.
    pub untestable_faults: usize,
    /// `L(T_0)` (Table 2).
    pub t0_len: usize,
    /// Faults detected by `T_0` without scan (Table 1 column "T0").
    pub t0_detected: usize,
    /// `L(T_seq)` (Table 2 column "scan").
    pub tau_seq_len: usize,
    /// Faults detected by `τ_seq` (Table 1 column "scan").
    pub tau_seq_detected: usize,
    /// Iterations of Phases 1–2.
    pub iterations: usize,
    /// Tests added in Phase 3 (Table 2 column "added c.tst").
    pub added_tests: usize,
    /// Faults detected by the final test set (Table 1 column "final").
    pub final_detected: usize,
    /// Clock cycles of the proposed set before Phase 4 (Table 3 "init").
    pub init_cycles: usize,
    /// Clock cycles after Phase 4 (Table 3 "comp").
    pub comp_cycles: usize,
    /// Sequence-length statistics before Phase 4.
    pub at_speed_init: Option<AtSpeedStats>,
    /// Sequence-length statistics after Phase 4 (Table 4).
    pub at_speed_comp: Option<AtSpeedStats>,
    /// The proposed test set at the end of Phase 3.
    pub initial_set: TestSet,
    /// The test set after Phase 4.
    pub compacted_set: TestSet,
    /// The combinational test set `C` used (kept for baseline runs).
    pub comb_tests: Vec<CombTest>,
    /// What the coverage oracle re-simulated, when [`Pipeline::verify`] was
    /// enabled (`None` otherwise).
    pub oracle: Option<OracleReport>,
}

impl PipelineResult {
    /// Fault coverage of the final set over all collapsed faults.
    pub fn coverage(&self) -> f64 {
        self.final_detected as f64 / self.total_faults as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::synth::{generate, SynthSpec};

    #[test]
    fn s27_full_run_reaches_complete_coverage() {
        let nl = s27();
        let r = Pipeline::new(&nl)
            .t0_source(T0Source::Directed { max_len: 64 })
            .seed(7)
            .run()
            .unwrap();
        assert_eq!(r.total_faults, 32);
        assert_eq!(r.final_detected, 32, "s27 is fully testable");
        assert!(r.tau_seq_detected >= r.t0_detected);
        assert!(r.tau_seq_len <= r.t0_len);
        assert!(r.comp_cycles <= r.init_cycles);
        assert_eq!(
            r.init_cycles,
            (r.initial_set.len() + 1) * 3 + r.initial_set.total_vectors()
        );
    }

    #[test]
    fn random_t0_source_matches_table5_shape() {
        let nl = s27();
        let r = Pipeline::new(&nl)
            .t0_source(T0Source::Random { len: 100 })
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(r.t0_len, 100);
        assert!(r.tau_seq_len <= 100);
        assert!(r.final_detected >= r.tau_seq_detected);
    }

    #[test]
    fn provided_inputs_are_respected() {
        use atspeed_atpg::random_t0 as rt0;
        let nl = s27();
        let t0 = rt0(&nl, 32, 9);
        let r = Pipeline::new(&nl)
            .with_t0(t0.clone())
            .seed(5)
            .run()
            .unwrap();
        assert_eq!(r.t0_len, 32);
    }

    #[test]
    fn phase4_toggle_changes_only_the_compacted_set() {
        let nl = s27();
        let with = Pipeline::new(&nl)
            .t0_source(T0Source::Random { len: 60 })
            .run()
            .unwrap();
        let without = Pipeline::new(&nl)
            .t0_source(T0Source::Random { len: 60 })
            .phase4(false)
            .run()
            .unwrap();
        assert_eq!(with.init_cycles, without.init_cycles);
        assert_eq!(without.init_cycles, without.comp_cycles);
        assert!(with.comp_cycles <= with.init_cycles);
    }

    #[test]
    fn runs_on_synthetic_benchmark() {
        let nl = generate(&SynthSpec::new("pipe", 4, 3, 8, 100, 5)).unwrap();
        let r = Pipeline::new(&nl)
            .t0_source(T0Source::Property { max_len: 128 })
            .run()
            .unwrap();
        // The headline claims of the paper, as invariants:
        // τ_seq detects at least what T0 did, and the final set detects
        // every fault C can cover.
        assert!(r.tau_seq_detected >= r.t0_detected);
        assert!(r.final_detected >= r.tau_seq_detected);
        assert!(r.coverage() > 0.5);
    }

    #[test]
    fn verified_run_matches_unverified_and_reports_oracle_work() {
        let nl = s27();
        let plain = Pipeline::new(&nl).seed(7).run().unwrap();
        assert!(plain.oracle.is_none());
        let verified = Pipeline::new(&nl).seed(7).verify(true).run().unwrap();
        let oracle = verified.oracle.expect("oracle ran");
        assert!(oracle.simulations > 0);
        assert!(oracle.set_faults_checked > 0);
        assert_eq!(plain.initial_set, verified.initial_set);
        assert_eq!(plain.compacted_set, verified.compacted_set);
        assert_eq!(plain.final_detected, verified.final_detected);
    }

    #[test]
    fn memory_budget_keeps_results_sound() {
        let nl = s27();
        let free = Pipeline::new(&nl)
            .t0_source(T0Source::Random { len: 100 })
            .seed(3)
            .run()
            .unwrap();
        let tight = Pipeline::new(&nl)
            .t0_source(T0Source::Random { len: 100 })
            .seed(3)
            .memory_budget(MemoryBudget {
                profile_state_words: 1,
                max_failed_pairs: 2,
            })
            .run()
            .unwrap();
        // Bounded profiles under-claim and the pair-memo cap only forces
        // re-checks, so coverage and compaction quality are unchanged on a
        // circuit this small.
        assert_eq!(tight.final_detected, free.final_detected);
        assert_eq!(tight.compacted_set, free.compacted_set);
    }

    #[test]
    fn is_deterministic() {
        let nl = s27();
        let a = Pipeline::new(&nl).seed(42).run().unwrap();
        let b = Pipeline::new(&nl).seed(42).run().unwrap();
        assert_eq!(a.init_cycles, b.init_cycles);
        assert_eq!(a.comp_cycles, b.comp_cycles);
        assert_eq!(a.initial_set, b.initial_set);
    }

    #[test]
    fn from_config_matches_equivalent_builder() {
        let nl = s27();
        let cfg = PipelineConfig {
            t0_source: T0Source::Random { len: 64 },
            seed: 7,
            phase4: true,
            verify: true,
            ..PipelineConfig::default()
        };
        let a = Pipeline::from_config(&nl, &cfg).run().unwrap();
        let b = Pipeline::new(&nl)
            .t0_source(T0Source::Random { len: 64 })
            .seed(7)
            .verify(true)
            .sim_config(SimConfig::default())
            .run()
            .unwrap();
        assert_eq!(a.initial_set, b.initial_set);
        assert_eq!(a.compacted_set, b.compacted_set);
        assert_eq!(a.final_detected, b.final_detected);
    }

    #[test]
    fn canonical_lines_track_results_not_execution_knobs() {
        let base = PipelineConfig::default();

        // Execution knobs (threads, chunking) never change results, so they
        // must not change the canonical rendering either.
        let mut threaded = base;
        threaded.sim = SimConfig {
            threads: 8,
            chunk_size: 3,
            ..SimConfig::default()
        };
        assert_eq!(base.canonical_lines(), threaded.canonical_lines());

        // Every result-determining field must show up.
        for changed in [
            PipelineConfig { seed: 2, ..base },
            PipelineConfig {
                t0_source: T0Source::Random { len: 1024 },
                ..base
            },
            PipelineConfig {
                t0_source: T0Source::Directed { max_len: 512 },
                ..base
            },
            PipelineConfig {
                phase4: false,
                ..base
            },
            PipelineConfig {
                verify: true,
                ..base
            },
            PipelineConfig {
                memory: MemoryBudget {
                    profile_state_words: 1,
                    max_failed_pairs: 2,
                },
                ..base
            },
        ] {
            assert_ne!(
                base.canonical_lines(),
                changed.canonical_lines(),
                "{changed:?} must fingerprint differently"
            );
        }

        // Stable, line-oriented, `key = value` shape.
        let lines = base.canonical_lines();
        assert!(lines.ends_with('\n'));
        assert!(lines.lines().all(|l| l.contains(" = ")));
    }
}
