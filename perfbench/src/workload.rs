//! The workloads: which problems run, at which options, and how one pass
//! over them is timed.  Every call into the system goes through its public
//! API and is timed from outside it.

use std::path::Path;
use std::time::{Duration, Instant};

use hanoi::json::Json;
use hanoi::{Engine, EngineConfig, Outcome, RunOptions, RunStats};
use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::value::Value;
use hanoi_store::{ChunkLoad, ChunkStore};
use hanoi_synth::arith::ArithBounds;
use hanoi_synth::TermBank;
use hanoi_verifier::pools::{bounded_product, CompiledPredicate};
use hanoi_verifier::{CheckCache, PoolCache, VerifierBounds};

use crate::trace::Tracer;

/// A named workload and the tail percentile it reports.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The tail percentile named for this workload.
    pub tail: f64,
    /// The fewest verdicts one run measures.
    pub min_samples: usize,
    /// Whether `BENCHMARK.json` runs it.  `numeric_cold` is not listed: its
    /// ~20 s runs spread past their bounds on a shared 2-vCPU host, and the
    /// time all runs may take leaves no room to lengthen them, so it runs by
    /// hand (`run.py --workload numeric_cold` or `--report`).
    pub listed: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_suite",
        why: "all 33 problems at paper bounds on fresh engines; the verifier dominates, so pool, filter and tuple-evaluation work shows here",
        tail: 69.0,
        min_samples: 33,
        listed: true,
    },
    Workload {
        name: "warm_restart",
        why: "a new process restores all 33 problems from a saved warm store; check-cache hits, store loads and JSON parsing dominate",
        tail: 69.0,
        min_samples: 33,
        listed: true,
    },
    Workload {
        name: "numeric_cold",
        why: "round-robin over the 5 numeric problems on fresh engines with the numeric grammar; synthesis dominates, so search changes show here",
        tail: 99.0,
        min_samples: 1000,
        listed: false,
    },
    Workload {
        name: "serve",
        why: "an in-process server fed open loop with seeded draws of the 28 ADT sources; the only path through admission, protocol and registry",
        tail: 99.0,
        min_samples: 1000,
        listed: true,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Per-problem wall-clock budget.  The slowest problem at paper bounds
/// reaches its verdict in about 15 s, so no status sits near this edge.
pub const PROBLEM_TIMEOUT: Duration = Duration::from_secs(60);

/// One benchmark input: the problem source and how it is run.
#[derive(Debug, Clone)]
pub struct Input {
    pub id: &'static str,
    pub source: String,
    pub numeric: bool,
}

/// The 28 ADT benchmarks followed by the 5 numeric ones.
pub fn suite() -> Vec<Input> {
    let adt = hanoi_benchmarks::registry().into_iter().map(|b| (b, false));
    let numeric = hanoi_benchmarks::numeric_registry()
        .into_iter()
        .map(|b| (b, true));
    adt.chain(numeric)
        .map(|(b, numeric)| Input {
            id: b.id,
            source: b.source,
            numeric,
        })
        .collect()
}

pub fn numeric_suite() -> Vec<Input> {
    suite().into_iter().filter(|i| i.numeric).collect()
}

pub fn options(numeric: bool, bounds: VerifierBounds) -> RunOptions {
    let options = RunOptions::paper()
        .with_bounds(bounds)
        .with_timeout(Some(PROBLEM_TIMEOUT));
    if numeric {
        options.with_numeric_grammar(&ArithBounds::default())
    } else {
        options
    }
}

/// Elaborates every input (`Problem::from_source`), one span each.
pub fn elaborate(inputs: &[Input], tracer: &Tracer) -> Result<Vec<Problem>, String> {
    inputs
        .iter()
        .map(|input| {
            tracer.span("lang.elaborate", input.id, || {
                Problem::from_source(&input.source)
                    .map(|p| p.with_name(input.id))
                    .map_err(|e| format!("{}: elaboration failed: {e}", input.id))
            })
        })
        .collect()
}

/// How a run ended, as the benchmark classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Invariant,
    SpecViolation,
    SynthesisFailure,
    Timeout,
    Cancelled,
}

impl Status {
    pub fn of(outcome: &Outcome) -> Status {
        match outcome {
            Outcome::Invariant(_) => Status::Invariant,
            Outcome::SpecViolation(_) => Status::SpecViolation,
            Outcome::SynthesisFailure(_) => Status::SynthesisFailure,
            Outcome::Timeout => Status::Timeout,
            Outcome::Cancelled => Status::Cancelled,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Status::Invariant => "invariant",
            Status::SpecViolation => "spec-violation",
            Status::SynthesisFailure => "synthesis-failure",
            Status::Timeout => "timeout",
            Status::Cancelled => "cancelled",
        }
    }

    pub fn from_label(label: &str) -> Option<Status> {
        [
            Status::Invariant,
            Status::SpecViolation,
            Status::SynthesisFailure,
            Status::Timeout,
            Status::Cancelled,
        ]
        .into_iter()
        .find(|s| s.label() == label)
    }

    /// A verdict the program reached on its own (as opposed to a run that
    /// was cut off).
    pub fn is_verdict(self) -> bool {
        !matches!(self, Status::Timeout | Status::Cancelled)
    }
}

/// One verdict, timed from outside the engine.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub id: String,
    /// `Engine::run`, in milliseconds.
    pub ms: f64,
    pub status: Status,
    pub invariant: Option<Expr>,
    pub stats: RunStats,
}

impl Verdict {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("ms", Json::Num(self.ms)),
            ("status", Json::Str(self.status.label().to_string())),
            (
                "invariant",
                Json::opt(self.invariant.as_ref(), |e| Json::Str(e.to_string())),
            ),
            ("stats", self.stats.to_json()),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Verdict> {
        let invariant = match json.get("invariant").and_then(Json::as_str) {
            Some(text) => Some(hanoi_lang::parser::parse_expr(text).ok()?),
            None => None,
        };
        Some(Verdict {
            id: json.get("id")?.as_str()?.to_string(),
            ms: json.get("ms")?.as_f64()?,
            status: Status::from_label(json.get("status")?.as_str()?)?,
            invariant,
            stats: RunStats::from_json_value(json.get("stats")?).ok()?,
        })
    }
}

/// Runs one problem and times the `Engine::run` call.
pub fn run_one(
    engine: &Engine,
    problem: &Problem,
    input: &Input,
    bounds: VerifierBounds,
    tracer: &Tracer,
) -> Verdict {
    let options = options(input.numeric, bounds);
    let start = Instant::now();
    let result = tracer.span("core.run", input.id, || engine.run(problem, &options));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Verdict {
        id: input.id.to_string(),
        ms,
        status: Status::of(&result.outcome),
        invariant: result.outcome.invariant().cloned(),
        stats: result.stats,
    }
}

/// A fresh engine with the default (serial) configuration.
pub fn fresh_engine() -> Engine {
    Engine::new(EngineConfig::default()).expect("the default engine config is valid")
}

/// Re-enacts the verifier's work on one problem through its public
/// functions, so the traced run can split it: pools for the spec's
/// quantifier types built on a fresh `PoolCache`, the verdict's
/// `CompiledPredicate::test` over them, and `Problem::eval_spec` over the
/// capped product of what passes the filter.
pub fn probe_verifier(
    problem: &Problem,
    id: &str,
    invariant: Option<&Expr>,
    bounds: VerifierBounds,
    tracer: &Tracer,
) {
    let spec = &problem.spec;
    let arity = spec.arity();
    let cache = PoolCache::for_problem(problem);
    let pools: Vec<_> = tracer.span("verifier.pool_build", id, || {
        spec.params
            .iter()
            .map(|(_, ty)| {
                let concrete = ty.subst_abstract(problem.concrete_type());
                cache.pool(
                    &concrete,
                    bounds.count_for(arity),
                    bounds.size_for(arity),
                    1,
                )
            })
            .collect()
    });
    let Some(invariant) = invariant else {
        return;
    };
    let Ok(predicate) = CompiledPredicate::compile(problem, invariant, bounds.fuel) else {
        return;
    };
    let filtered: Vec<Vec<Value>> = tracer.span("verifier.filter", id, || {
        pools
            .iter()
            .zip(&spec.params)
            .map(|(pool, (_, ty))| {
                pool.iter()
                    .filter(|v| !ty.mentions_abstract() || predicate.test(v))
                    .cloned()
                    .collect()
            })
            .collect()
    });
    tracer.span("abstraction.spec_eval", id, || {
        let _ = bounded_product(&filtered, bounds.cap_for(arity), |tuple| {
            let args: Vec<Value> = tuple.iter().map(|v| (*v).clone()).collect();
            std::hint::black_box(
                problem
                    .eval_spec_with_fuel(&args, &mut Fuel::new(bounds.fuel))
                    .ok(),
            );
            Ok::<_, ()>(std::ops::ControlFlow::<()>::Continue(()))
        });
    });
}

/// One chunk as the store re-enactment read it.
#[derive(Debug, Clone)]
pub struct ChunkSample {
    pub problem: String,
    pub section: String,
    pub bytes: u64,
    pub load_s: f64,
    pub parse_s: f64,
}

impl ChunkSample {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("problem", Json::Str(self.problem.clone())),
            ("section", Json::Str(self.section.clone())),
            ("bytes", Json::Num(self.bytes as f64)),
            ("load_s", Json::Num(self.load_s)),
            ("parse_s", Json::Num(self.parse_s)),
        ])
    }

    pub fn from_json(json: &Json) -> Option<ChunkSample> {
        Some(ChunkSample {
            problem: json.get("problem")?.as_str()?.to_string(),
            section: json.get("section")?.as_str()?.to_string(),
            bytes: json.get("bytes")?.as_f64()? as u64,
            load_s: json.get("load_s")?.as_f64()?,
            parse_s: json.get("parse_s")?.as_f64()?,
        })
    }
}

/// Re-enacts one problem's restore through the store's public functions:
/// `ChunkStore::load_wrapper`, then per manifest entry `load_chunk` and
/// `hanoi_lang::json::parse` of the chunk's bytes, then the joins
/// (`CheckCache::join_stripes`, `TermBank::join_chunks`).
pub fn probe_store(
    store_dir: &Path,
    problem: &Problem,
    id: &str,
    tracer: &Tracer,
) -> Vec<ChunkSample> {
    let Ok(store) = ChunkStore::open(store_dir) else {
        return Vec::new();
    };
    let fingerprint = problem.fingerprint();
    tracer.span("store.load_wrapper", id, || store.load_wrapper(fingerprint));
    let Some(manifest) = store.manifest(fingerprint) else {
        return Vec::new();
    };
    let mut samples = Vec::new();
    let mut stripes = Vec::new();
    let mut cores: Vec<(String, Json)> = Vec::new();
    let mut parts: Vec<(String, Json)> = Vec::new();
    for entry in &manifest.entries {
        let start = Instant::now();
        let loaded = tracer.span("store.load_chunk", id, || store.load_chunk(entry.chunk));
        let load_s = start.elapsed().as_secs_f64();
        let path = store_dir
            .join("chunks")
            .join(format!("{}.json", entry.chunk.to_hex()));
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let start = Instant::now();
        let parsed = tracer.span("lang.json_parse", id, || hanoi_lang::json::parse(&text));
        let parse_s = start.elapsed().as_secs_f64();
        samples.push(ChunkSample {
            problem: id.to_string(),
            section: entry.section.clone(),
            bytes: entry.bytes,
            load_s,
            parse_s,
        });
        let (ChunkLoad::Loaded(chunk), Ok(_)) = (loaded, parsed) else {
            continue;
        };
        if entry.section == "checks" {
            stripes.push(chunk);
        } else if let Some(label) = entry.section.strip_prefix("bank-core:") {
            cores.push((label.to_string(), chunk));
        } else if let Some(label) = entry.section.strip_prefix("bank-part:") {
            parts.push((label.to_string(), chunk));
        }
    }
    tracer.span("store.join", id, || {
        let _ = CheckCache::join_stripes(stripes.iter());
        for (label, core) in &cores {
            let own = parts.iter().filter(|(l, _)| l == label).map(|(_, p)| p);
            let _ = TermBank::join_chunks(core, own);
        }
    });
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_the_28_adt_plus_5_numeric_problems() {
        let suite = suite();
        assert_eq!(suite.len(), 33);
        assert_eq!(suite.iter().filter(|i| i.numeric).count(), 5);
        assert!(suite
            .iter()
            .filter(|i| i.numeric)
            .all(|i| i.id.starts_with("/numeric/")));
        assert_eq!(numeric_suite().len(), 5);
    }

    #[test]
    fn the_seed_changes_the_schedule_and_the_draws_but_no_input() {
        let inputs: Vec<Input> = suite().into_iter().filter(|i| !i.numeric).collect();
        let plan = |seed| crate::serve::schedule(seed, inputs.len(), 15.0, 1000);
        let draws = |seed| crate::check::draw_indices(seed, inputs[0].id, &[7, 11, 13], 50);
        assert_ne!(plan(1), plan(2));
        assert_ne!(draws(1), draws(2));
        assert_eq!(plan(1), plan(1));
        assert_eq!(draws(1), draws(1));
        // Every seed's schedule sends the same 28 sources, unchanged: the
        // seed picks which source goes when, never what a source says.
        for seed in [1, 2] {
            let mut sent: Vec<usize> = plan(seed).iter().map(|r| r.source).collect();
            sent.sort_unstable();
            sent.dedup();
            assert_eq!(sent, (0..inputs.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_workload_leaves_ten_samples_beyond_its_tail() {
        for w in WORKLOADS {
            assert!(
                crate::stats::beyond(w.min_samples, w.tail) >= 10,
                "{} p{} at {} samples",
                w.name,
                w.tail,
                w.min_samples
            );
        }
    }

    #[test]
    fn verdicts_round_trip_through_json() {
        let input = numeric_suite().remove(0);
        let problem = elaborate(std::slice::from_ref(&input), &Tracer::new(false))
            .unwrap()
            .remove(0);
        let verdict = run_one(
            &fresh_engine(),
            &problem,
            &input,
            VerifierBounds::quick(),
            &Tracer::new(false),
        );
        assert_eq!(verdict.status, Status::Invariant);
        let back = Verdict::from_json(&verdict.to_json()).unwrap();
        assert_eq!(back.invariant, verdict.invariant);
        assert_eq!(back.status, verdict.status);
        assert_eq!(back.stats.iterations, verdict.stats.iterations);
    }
}
