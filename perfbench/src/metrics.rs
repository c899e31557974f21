//! From measured passes to metrics: the verdict check, the end-to-end
//! metrics, the per-layer metrics and the trace file.

use std::collections::BTreeMap;

use hanoi::json::Json;
use hanoi_abstraction::Problem;
use hanoi_verifier::VerifierBounds;

use crate::check;
use crate::serve::RequestRecord;
use crate::stats::{median, percentile};
use crate::trace::{self, Span};
use crate::workload::{ChunkSample, Input, Status, Verdict, Workload};

/// Accepted verdicts the independent check refutes today: `fun x -> True`
/// passes the verifier's capped multi-quantifier product on these three
/// (the verifier never leaves the first few values of the first
/// quantifier).  They are counted in `wrong` like any other refutation; a
/// refutation of any *other* problem makes the run incorrect.
pub const KNOWN_WRONG: [&str; 3] = [
    "/coq/bst-::-set+binfuncs",
    "/coq/maxfirst-list-::-heap+binfuncs",
    "/vfa/tree-::-priqueue+binfuncs",
];

/// One metric: name, unit, which direction is better, and what it should
/// move (per-layer metrics only).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

pub const END_TO_END: [MetricDef; 9] = [
    m("setup_s", "s", "lower", ""),
    m("wall_s", "s", "lower", ""),
    m("verdict_ms.p50", "ms", "lower", ""),
    m("verdict_ms.tail", "ms", "lower", ""),
    m("throughput_per_s", "1/s", "higher", ""),
    m("solved", "count", "higher", ""),
    m("verified", "count", "higher", ""),
    m("ok_frac", "frac", "higher", ""),
    m("peak_rss_mb", "MB", "lower", ""),
];

pub const PER_LAYER: [MetricDef; 43] = [
    m(
        "lang.elaborate_ms",
        "ms",
        "lower",
        "setup_s on every workload",
    ),
    m("lang.json_parse_s", "s", "lower", "warm_restart wall_s"),
    m("abstraction.spec_eval_s", "s", "lower", "cold_suite wall_s"),
    m(
        "verifier.busy_s",
        "s",
        "lower",
        "cold_suite wall_s, verdict_ms.p50",
    ),
    m(
        "verifier.calls",
        "count",
        "lower",
        "cold_suite wall_s, verdict_ms.p50",
    ),
    m("verifier.pool_build_s", "s", "lower", "cold_suite wall_s"),
    m("verifier.filter_s", "s", "lower", "cold_suite wall_s"),
    m(
        "verifier.pool_builds",
        "count",
        "lower",
        "cold_suite wall_s",
    ),
    m(
        "verifier.pool_cache_hits",
        "count",
        "higher",
        "cold_suite wall_s",
    ),
    m(
        "verifier.predicate_evals",
        "count",
        "lower",
        "cold_suite wall_s",
    ),
    m(
        "verifier.check_cache_hit_ratio",
        "frac",
        "higher",
        "warm_restart wall_s",
    ),
    m(
        "synth.busy_s",
        "s",
        "lower",
        "cold_suite wall_s; numeric_cold wall_s, verdict_ms.p50 (by hand)",
    ),
    m(
        "synth.calls",
        "count",
        "lower",
        "cold_suite wall_s; numeric_cold wall_s, verdict_ms.p50 (by hand)",
    ),
    m(
        "synth.terms_enumerated",
        "count",
        "lower",
        "cold_suite wall_s; numeric_cold wall_s, verdict_ms.p50 (by hand)",
    ),
    m(
        "synth.bank_hits",
        "count",
        "higher",
        "cold_suite wall_s; numeric_cold wall_s, verdict_ms.p50 (by hand)",
    ),
    m(
        "synth.guess_memo_hits",
        "count",
        "higher",
        "cold_suite wall_s; numeric_cold wall_s, verdict_ms.p50 (by hand)",
    ),
    m(
        "synth.arith_atoms",
        "count",
        "lower",
        "cold_suite wall_s; numeric_cold wall_s, verdict_ms.p50 (by hand)",
    ),
    m(
        "synth.cache_hits",
        "count",
        "higher",
        "cold_suite wall_s; numeric_cold wall_s, verdict_ms.p50 (by hand)",
    ),
    m("core.run_s", "s", "lower", "wall_s on every workload"),
    m(
        "core.untracked_s",
        "s",
        "lower",
        "warm_restart wall_s, verdict_ms.p69",
    ),
    m("core.iterations", "count", "lower", "cold_suite wall_s"),
    m("store.load_s", "s", "lower", "warm_restart wall_s"),
    m("store.chunk_load_s", "s", "lower", "warm_restart wall_s"),
    m("store.join_s", "s", "lower", "warm_restart wall_s"),
    m("store.save_s", "s", "lower", "warm_restart setup_s"),
    m(
        "store.bytes",
        "bytes",
        "lower",
        "warm_restart wall_s, setup_s",
    ),
    m(
        "store.largest_chunk_bytes",
        "bytes",
        "lower",
        "warm_restart wall_s",
    ),
    m(
        "store.warm_start_loads",
        "count",
        "higher",
        "warm_restart wall_s",
    ),
    m(
        "store.quarantined",
        "count",
        "lower",
        "warm_restart correctness (must be 0)",
    ),
    m(
        "server.queue_wait_ms.p50",
        "ms",
        "lower",
        "serve verdict_ms.tail (p99)",
    ),
    m(
        "server.queue_wait_ms.p99",
        "ms",
        "lower",
        "serve verdict_ms.tail (p99)",
    ),
    m(
        "server.run_ms.p50",
        "ms",
        "lower",
        "serve verdict_ms.tail (p99)",
    ),
    m(
        "server.overhead_ms.p50",
        "ms",
        "lower",
        "serve verdict_ms.tail (p99)",
    ),
    m(
        "server.sheds",
        "count",
        "lower",
        "serve ok_frac (must be 0)",
    ),
    m("self_s.lang", "s", "lower", SELF_MOVES),
    m("self_s.abstraction", "s", "lower", SELF_MOVES),
    m("self_s.verifier", "s", "lower", SELF_MOVES),
    m("self_s.core", "s", "lower", SELF_MOVES),
    m("self_s.store", "s", "lower", SELF_MOVES),
    m("self_s.bench", "s", "lower", SELF_MOVES),
    m(
        "bench.traced_wall_s",
        "s",
        "lower",
        "tracing overhead: mean pass wall, minus wall_s of the untraced run",
    ),
    m("bench.spans", "count", "lower", "tracing overhead"),
    m(
        "bench.gen_late_ms.max",
        "ms",
        "lower",
        "serve validity (the generator kept its schedule)",
    ),
];

/// What the `self_s.*` metrics move.  Synthesis's self time is
/// `synth.busy_s`; with it the six add up to `bench.traced_wall_s`.
const SELF_MOVES: &str = "the layer's share of bench.traced_wall_s (sequential workloads)";

/// One set-up, timed from outside.
#[derive(Debug, Clone, Copy)]
pub struct SetupRun {
    pub seconds: f64,
    pub elaborate_ms: f64,
}

/// Everything one run measured.
pub struct Measured {
    pub bounds: VerifierBounds,
    pub setups: Vec<SetupRun>,
    /// Wall time of each measured pass over the workload's problems.
    pub pass_walls: Vec<f64>,
    pub passes: usize,
    pub verdicts: Vec<Verdict>,
    pub rss_mb: f64,
    /// The workload's inputs, elaborated (for the verdict check).
    pub problems: Vec<(Input, Problem)>,
    /// Set-up spans, one list per process.
    pub setup_spans: Vec<Vec<Span>>,
    /// Spans of the timed passes, one list per process.
    pub spans: Vec<Vec<Span>>,
    /// Spans of the re-enactments that run after each timed pass, outside
    /// its wall time, one list per process.
    pub probe_spans: Vec<Vec<Span>>,
    pub chunks: Vec<ChunkSample>,
    pub store_bytes: u64,
    pub largest_chunk_bytes: u64,
    /// Verdicts computed apart from the measured phase that every measured
    /// verdict must equal: the cold pass a `warm_restart` store was saved
    /// from, or direct engine runs of the sources `serve` answered.
    pub reference: Option<Vec<Verdict>>,
    /// `serve`: what the client saw of every request.
    pub requests: Vec<RequestRecord>,
    /// Requests that got no verdict (shed, or answered with an error).
    pub dropped: usize,
    /// Verdicts overlap in time (`serve`), so the wall time has no split
    /// into layers and the `self_s.*` metrics read 0.
    pub concurrent: bool,
}

impl Measured {
    pub fn new(bounds: VerifierBounds, setups: Vec<SetupRun>) -> Measured {
        Measured {
            bounds,
            setups,
            pass_walls: Vec::new(),
            passes: 0,
            verdicts: Vec::new(),
            rss_mb: 0.0,
            problems: Vec::new(),
            setup_spans: Vec::new(),
            spans: Vec::new(),
            probe_spans: Vec::new(),
            chunks: Vec::new(),
            store_bytes: 0,
            largest_chunk_bytes: 0,
            reference: None,
            requests: Vec::new(),
            dropped: 0,
            concurrent: false,
        }
    }
}

/// The check's finding for one problem.
#[derive(Debug, Clone)]
pub struct ProblemCheck {
    pub id: String,
    pub status: Status,
    pub invariant: Option<String>,
    pub report: Option<check::CheckReport>,
}

/// The evaluated run.
pub struct Report {
    pub attempted: usize,
    /// Runs that ended without a verdict (timeout, cancellation).
    pub failed: usize,
    /// Verdict samples whose accepted invariant the check refuted.
    pub wrong: usize,
    pub wrong_problems: Vec<String>,
    pub solved: usize,
    pub verified: usize,
    pub fail_frac: f64,
    /// Reasons the run is not correct; empty when it is.
    pub problems_found: Vec<String>,
    pub checks: Vec<ProblemCheck>,
}

/// Checks every verdict and computes the outcome counts.
pub fn evaluate(measured: &Measured, workload: Workload, seed: u64) -> Report {
    let mut problems_found = Vec::new();
    // One verdict per problem: every pass must agree.
    let mut first: BTreeMap<&str, &Verdict> = BTreeMap::new();
    for verdict in &measured.verdicts {
        match first.get(verdict.id.as_str()) {
            Some(seen) if !same_answer(seen, verdict) => problems_found.push(format!(
                "{}: passes disagree ({} vs {})",
                verdict.id,
                describe(seen),
                describe(verdict)
            )),
            Some(_) => {}
            None => {
                first.insert(&verdict.id, verdict);
            }
        }
    }
    if let Some(references) = &measured.reference {
        for reference in references {
            if let Some(measured) = first.get(reference.id.as_str()) {
                if !same_answer(reference, measured) {
                    problems_found.push(format!(
                        "{}: measured run answered {}, reference run {}",
                        reference.id,
                        describe(measured),
                        describe(reference)
                    ));
                }
            }
        }
    }

    let mut checks = Vec::new();
    let mut refuted: Vec<String> = Vec::new();
    for (input, problem) in &measured.problems {
        let Some(verdict) = first.get(input.id) else {
            continue;
        };
        let report = verdict.invariant.as_ref().map(|invariant| {
            if input.numeric {
                match check::held_out_worlds(problem, input.id, seed) {
                    Ok(worlds) => {
                        check::check_numeric(problem, invariant, &worlds, measured.bounds.fuel)
                    }
                    Err(e) => {
                        problems_found.push(format!("{}: held-out sampling failed: {e}", input.id));
                        check::CheckReport {
                            drawn: 0,
                            tested: 0,
                            refuted_by: None,
                        }
                    }
                }
            } else {
                let pools = check::quantifier_pools(problem, &measured.bounds);
                check::check_adt(
                    problem,
                    input.id,
                    invariant,
                    &pools,
                    measured.bounds.fuel,
                    seed,
                    check::ADT_DRAWS,
                )
            }
        });
        if report.as_ref().is_some_and(|r| r.refuted_by.is_some()) {
            refuted.push(input.id.to_string());
            if !KNOWN_WRONG.contains(&input.id) {
                problems_found.push(format!(
                    "{}: accepted invariant refuted by the independent check",
                    input.id
                ));
            }
        }
        checks.push(ProblemCheck {
            id: input.id.to_string(),
            status: verdict.status,
            invariant: verdict.invariant.as_ref().map(|e| e.to_string()),
            report,
        });
    }

    let attempted = measured.verdicts.len() + measured.dropped;
    let failed = measured
        .verdicts
        .iter()
        .filter(|v| !v.status.is_verdict())
        .count();
    if failed > 0 {
        problems_found.push(format!("{failed} run(s) ended without a verdict"));
    }
    let failed = failed + measured.dropped;
    let quarantined: u64 = measured
        .verdicts
        .iter()
        .map(|v| v.stats.warm_start_quarantined)
        .sum();
    if quarantined > 0 {
        problems_found.push(format!("{quarantined} warm-store chunk(s) quarantined"));
    }
    if measured.verdicts.len() < workload.min_samples {
        problems_found.push(format!(
            "only {} verdicts measured",
            measured.verdicts.len()
        ));
    }
    let wrong = measured
        .verdicts
        .iter()
        .filter(|v| refuted.contains(&v.id))
        .count();
    let accepted = measured
        .verdicts
        .iter()
        .filter(|v| v.status == Status::Invariant)
        .count();
    let solved = first
        .values()
        .filter(|v| v.status == Status::Invariant)
        .count();
    let verified = solved - refuted.len();
    Report {
        attempted,
        failed,
        wrong,
        wrong_problems: refuted,
        solved,
        verified,
        fail_frac: fail_frac(attempted, accepted, wrong),
        problems_found,
        checks,
    }
}

/// Share of attempted runs that did not end in an accepted, unrefuted
/// invariant: synthesis failures, spec violations, timeouts, cancellations,
/// shed or errored requests and refuted ("wrong") verdicts all count.
pub fn fail_frac(attempted: usize, accepted: usize, wrong: usize) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    (attempted - (accepted - wrong)) as f64 / attempted as f64
}

fn same_answer(a: &Verdict, b: &Verdict) -> bool {
    a.status == b.status
        && a.invariant.as_ref().map(ToString::to_string)
            == b.invariant.as_ref().map(ToString::to_string)
}

fn describe(v: &Verdict) -> String {
    match &v.invariant {
        Some(e) => format!("{} `{e}`", v.status.label()),
        None => v.status.label().to_string(),
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems_found.is_empty()
    }

    /// End-to-end metrics, by name.
    pub fn end_to_end(
        &self,
        measured: &Measured,
        workload: Workload,
    ) -> BTreeMap<&'static str, f64> {
        let ms: Vec<f64> = measured.verdicts.iter().map(|v| v.ms).collect();
        let setup_s: Vec<f64> = measured.setups.iter().map(|s| s.seconds).collect();
        BTreeMap::from([
            ("setup_s", median(&setup_s)),
            ("wall_s", median(&measured.pass_walls)),
            ("verdict_ms.p50", percentile(&ms, 50.0)),
            ("verdict_ms.tail", percentile(&ms, workload.tail)),
            // Verdicts per pass over the median pass, so one slow pass (a
            // stalled process start) moves it no more than it moves `wall_s`.
            (
                "throughput_per_s",
                ms.len() as f64 / measured.passes.max(1) as f64 / median(&measured.pass_walls),
            ),
            ("solved", self.solved as f64),
            ("verified", self.verified as f64),
            ("ok_frac", 1.0 - self.fail_frac),
            ("peak_rss_mb", measured.rss_mb),
        ])
    }

    /// Per-layer metrics, by name, per measured pass.
    pub fn per_layer(&self, measured: &Measured) -> BTreeMap<&'static str, f64> {
        let passes = measured.passes.max(1) as f64;
        let pass_spans: Vec<&[Span]> = measured.spans.iter().map(Vec::as_slice).collect();
        let probe_spans: Vec<&[Span]> = measured.probe_spans.iter().map(Vec::as_slice).collect();
        let pass_s = |name: &str| trace::total_s(pass_spans.iter().copied(), name) / passes;
        let probe_s = |name: &str| trace::total_s(probe_spans.iter().copied(), name) / passes;
        let sum = |f: &dyn Fn(&hanoi::RunStats) -> f64| -> f64 {
            measured.verdicts.iter().map(|v| f(&v.stats)).sum::<f64>() / passes
        };
        let run_s = pass_s("core.run");
        let total_time = sum(&|s| s.total_time.as_secs_f64());
        let calls = sum(&|s| s.verification_calls as f64);
        let check_hits = sum(&|s| s.verification_cache_hits as f64);
        let elaborate_ms: Vec<f64> = measured.setups.iter().map(|s| s.elaborate_ms).collect();
        let requests = |f: &dyn Fn(&RequestRecord) -> Option<f64>| -> Vec<f64> {
            measured.requests.iter().filter_map(f).collect()
        };
        let self_s = self_times(measured);

        BTreeMap::from([
            ("lang.elaborate_ms", median(&elaborate_ms)),
            ("lang.json_parse_s", probe_s("lang.json_parse")),
            ("abstraction.spec_eval_s", probe_s("abstraction.spec_eval")),
            (
                "verifier.busy_s",
                sum(&|s| s.verification_time.as_secs_f64()),
            ),
            ("verifier.calls", calls),
            ("verifier.pool_build_s", probe_s("verifier.pool_build")),
            ("verifier.filter_s", probe_s("verifier.filter")),
            ("verifier.pool_builds", sum(&|s| s.pool_builds as f64)),
            (
                "verifier.pool_cache_hits",
                sum(&|s| s.pool_cache_hits as f64),
            ),
            (
                "verifier.predicate_evals",
                sum(&|s| s.predicate_evals as f64),
            ),
            (
                "verifier.check_cache_hit_ratio",
                if calls > 0.0 { check_hits / calls } else { 0.0 },
            ),
            ("synth.busy_s", sum(&|s| s.synthesis_time.as_secs_f64())),
            ("synth.calls", sum(&|s| s.synthesis_calls as f64)),
            (
                "synth.terms_enumerated",
                sum(&|s| s.synth_terms_enumerated as f64),
            ),
            ("synth.bank_hits", sum(&|s| s.synth_bank_hits as f64)),
            (
                "synth.guess_memo_hits",
                sum(&|s| s.synth_guess_memo_hits as f64),
            ),
            ("synth.arith_atoms", sum(&|s| s.synth_arith_atoms as f64)),
            ("synth.cache_hits", sum(&|s| s.synthesis_cache_hits as f64)),
            ("core.run_s", run_s),
            ("core.untracked_s", run_s - total_time),
            ("core.iterations", sum(&|s| s.iterations as f64)),
            ("store.load_s", probe_s("store.load_wrapper")),
            ("store.chunk_load_s", probe_s("store.load_chunk")),
            ("store.join_s", probe_s("store.join")),
            (
                "store.save_s",
                trace::total_s(measured.setup_spans.iter().map(Vec::as_slice), "store.save"),
            ),
            ("store.bytes", measured.store_bytes as f64),
            (
                "store.largest_chunk_bytes",
                measured.largest_chunk_bytes as f64,
            ),
            (
                "store.warm_start_loads",
                sum(&|s| s.warm_start_loads as f64),
            ),
            (
                "store.quarantined",
                sum(&|s| s.warm_start_quarantined as f64),
            ),
            (
                "server.queue_wait_ms.p50",
                percentile(&requests(&RequestRecord::queue_wait_ms), 50.0),
            ),
            (
                "server.queue_wait_ms.p99",
                percentile(&requests(&RequestRecord::queue_wait_ms), 99.0),
            ),
            (
                "server.run_ms.p50",
                percentile(&requests(&RequestRecord::run_ms), 50.0),
            ),
            (
                "server.overhead_ms.p50",
                percentile(&requests(&RequestRecord::overhead_ms), 50.0),
            ),
            (
                "server.sheds",
                measured
                    .requests
                    .iter()
                    .filter(|r| r.shed.is_some())
                    .count() as f64,
            ),
            ("self_s.lang", self_s.lang),
            ("self_s.abstraction", self_s.abstraction),
            ("self_s.verifier", self_s.verifier),
            ("self_s.core", self_s.core),
            ("self_s.store", self_s.store),
            ("self_s.bench", self_s.bench),
            (
                "bench.traced_wall_s",
                measured.pass_walls.iter().sum::<f64>() / passes,
            ),
            (
                "bench.spans",
                pass_spans
                    .iter()
                    .chain(&probe_spans)
                    .map(|s| s.len())
                    .sum::<usize>() as f64
                    / passes,
            ),
            (
                "bench.gen_late_ms.max",
                measured
                    .requests
                    .iter()
                    .map(|r| (r.sent_s - r.due_s) * 1e3)
                    .fold(0.0, f64::max),
            ),
        ])
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, measured: &Measured, workload: Workload, traced: bool) -> Json {
        let (defs, values) = if traced {
            (&PER_LAYER[..], self.per_layer(measured))
        } else {
            (&END_TO_END[..], self.end_to_end(measured, workload))
        };
        let metrics = defs
            .iter()
            .map(|d| {
                // `+ 0.0` turns the `-0.0` of an empty sum into `0`.
                let value = Json::obj([
                    ("value", Json::Num(values[d.name] + 0.0)),
                    ("unit", Json::Str(d.unit.to_string())),
                ]);
                (d.name.to_string(), value)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The human-readable report, on standard output before the result line.
    pub fn print_human(&self, measured: &Measured, workload: Workload, traced: bool) {
        let samples = measured.verdicts.len();
        println!(
            "workload {} ({}), host_cores {}, {} pass(es), {} verdicts, named tail p{} ({} samples beyond it)",
            workload.name,
            if traced { "traced" } else { "untraced" },
            host_cores(),
            measured.passes,
            samples,
            workload.tail,
            crate::stats::beyond(samples, workload.tail)
        );
        println!("  why: {}", workload.why);
        if !workload.listed {
            println!("  not in BENCHMARK.json: measured by hand only");
        }
        for check in &self.checks {
            let finding = match &check.report {
                None => "not checked (no invariant)".to_string(),
                Some(r) => match &r.refuted_by {
                    Some(by) => format!(
                        "REFUTED `{}` after {} draws ({} tested) by {by}",
                        check.invariant.as_deref().unwrap_or_default(),
                        r.drawn,
                        r.tested
                    ),
                    None => format!("holds on {} tested of {} drawn", r.tested, r.drawn),
                },
            };
            println!(
                "  check {:45} {:18} {finding}",
                check.id,
                check.status.label()
            );
        }
        let counts = [
            ("setup_s", measured.setups.len()),
            ("wall_s", measured.pass_walls.len()),
            ("peak_rss_mb", measured.passes),
        ];
        let n_of = |name: &str| {
            counts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(samples, |(_, n)| *n)
        };
        if traced {
            let self_s = self_times(measured);
            if !measured.concurrent {
                println!(
                    "  self_s.* + synth.busy_s = {:.6} s per pass (bench.traced_wall_s)",
                    self_s.total()
                );
            }
            for (name, value) in self.per_layer(measured) {
                let value = value + 0.0;
                let def = PER_LAYER
                    .iter()
                    .find(|d| d.name == name)
                    .expect("every per-layer metric is defined");
                println!(
                    "  {name:34} {value:>16.6} {:6} per pass, {} is better; moves {}",
                    def.unit, def.better, def.moves
                );
            }
        } else {
            for (name, value) in self.end_to_end(measured, workload) {
                let def = END_TO_END
                    .iter()
                    .find(|d| d.name == name)
                    .expect("every metric is defined");
                let name = match name {
                    "verdict_ms.tail" => format!("verdict_ms.tail (p{})", workload.tail),
                    other => other.to_string(),
                };
                println!(
                    "  {name:34} {value:>16.6} {:6} n={}, {} is better",
                    def.unit,
                    n_of(&name),
                    def.better
                );
            }
        }
        println!(
            "  {:34} {:>16} {:6} n={samples}",
            "wrong", self.wrong, "count"
        );
        println!(
            "  {:34} {:>16.6} {:6} n={samples}",
            "fail_frac", self.fail_frac, "frac"
        );
        if !measured.requests.is_empty() {
            let late = measured
                .requests
                .iter()
                .map(|r| (r.sent_s - r.due_s) * 1e3)
                .fold(0.0, f64::max);
            let mut dropped: BTreeMap<String, usize> = BTreeMap::new();
            for r in &measured.requests {
                if let Some(reason) = &r.shed {
                    *dropped.entry(format!("shed {reason}")).or_default() += 1;
                } else if let Some(error) = &r.error {
                    *dropped.entry(format!("error {error}")).or_default() += 1;
                }
            }
            println!(
                "  requests {}, generator late by at most {late:.3} ms, dropped {dropped:?}",
                measured.requests.len()
            );
        }
        if !self.wrong_problems.is_empty() {
            println!("  wrong verdicts on: {}", self.wrong_problems.join(", "));
        }
        for problem in &self.problems_found {
            println!("  INCORRECT: {problem}");
        }
    }
}

/// Self time per layer inside the timed passes, in seconds per pass.
///
/// Only time inside a timed pass counts, so the seven shares add up to the
/// mean pass wall time.  The engine's own clocks split `Engine::run`:
/// `RunStats::verification_time` is the verifier's and `synthesis_time`
/// synthesis's (reported as `synth.busy_s`).  The re-enactments after each
/// pass split those further, each capped by the time it is carved from:
/// `Problem::eval_spec` (abstraction) out of the verifier's time, and the
/// store restore (`ChunkStore::load_wrapper`, of which `json::parse` is
/// lang's) out of the run time the engine's clocks miss.  What no call into
/// the system covers (process start and exit) is the benchmark's own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTimes {
    pub lang: f64,
    pub abstraction: f64,
    pub verifier: f64,
    pub synth: f64,
    pub core: f64,
    pub store: f64,
    pub bench: f64,
}

impl SelfTimes {
    pub fn total(&self) -> f64 {
        self.lang
            + self.abstraction
            + self.verifier
            + self.synth
            + self.core
            + self.store
            + self.bench
    }
}

pub fn self_times(measured: &Measured) -> SelfTimes {
    if measured.concurrent {
        return SelfTimes::default();
    }
    let passes = measured.passes.max(1) as f64;
    let pass_spans = || measured.spans.iter().map(Vec::as_slice);
    let probe = |name: &str| trace::total_s(measured.probe_spans.iter().map(Vec::as_slice), name);
    let stat = |f: &dyn Fn(&hanoi::RunStats) -> f64| -> f64 {
        measured.verdicts.iter().map(|v| f(&v.stats)).sum()
    };
    let wall: f64 = measured.pass_walls.iter().sum();
    let calls = trace::top_level_s(pass_spans());
    let elaborate = trace::total_s(pass_spans(), "lang.elaborate");
    let run = trace::total_s(pass_spans(), "core.run");
    let verifier = stat(&|s| s.verification_time.as_secs_f64());
    let synth = stat(&|s| s.synthesis_time.as_secs_f64());
    let untracked = (run - stat(&|s| s.total_time.as_secs_f64())).max(0.0);
    let restore = probe("store.load_wrapper").min(untracked);
    let parse = probe("lang.json_parse").min(restore);
    let abstraction = probe("abstraction.spec_eval").min(verifier);
    SelfTimes {
        lang: (elaborate + parse) / passes,
        abstraction: abstraction / passes,
        verifier: (verifier - abstraction) / passes,
        synth: synth / passes,
        core: (calls - elaborate - verifier - synth - restore) / passes,
        store: (restore - parse) / passes,
        bench: (wall - calls) / passes,
    }
}

/// The host's CPU count, regardless of the affinity the benchmark runs
/// under (`run.py` pins it to one CPU).
pub fn host_cores() -> usize {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    match cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
    {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// The trace file: every span, the per-chunk series and the per-problem
/// verifier split.
pub fn trace_file(measured: &Measured, workload: Workload, seed: u64) -> Json {
    let processes = |phase: &str, lists: &[Vec<Span>]| -> Vec<Json> {
        lists
            .iter()
            .map(|spans| {
                Json::obj([
                    ("phase", Json::Str(phase.to_string())),
                    (
                        "spans",
                        Json::Arr(spans.iter().map(Span::to_json).collect()),
                    ),
                ])
            })
            .collect()
    };
    let mut all = processes("setup", &measured.setup_spans);
    all.extend(processes("measure", &measured.spans));
    all.extend(processes("probe", &measured.probe_spans));

    let mut split: BTreeMap<String, BTreeMap<&str, f64>> = BTreeMap::new();
    for span in measured.spans.iter().chain(&measured.probe_spans).flatten() {
        let key = match span.name.as_str() {
            "core.run" => "run_s",
            "verifier.pool_build" => "pool_build_s",
            "verifier.filter" => "filter_s",
            "abstraction.spec_eval" => "spec_eval_s",
            _ => continue,
        };
        let seconds = span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9;
        *split
            .entry(span.subject.clone())
            .or_default()
            .entry(key)
            .or_default() += seconds;
    }
    let per_problem = split
        .into_iter()
        .map(|(id, fields)| {
            let fields = fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v)))
                .collect();
            (id, Json::Obj(fields))
        })
        .collect();

    Json::obj([
        ("workload", Json::Str(workload.name.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("passes", Json::Num(measured.passes as f64)),
        ("processes", Json::Arr(all)),
        (
            "chunks",
            Json::Arr(measured.chunks.iter().map(ChunkSample::to_json).collect()),
        ),
        ("per_problem", Json::Obj(per_problem)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_frac_counts_every_kind_of_failure() {
        // 10 attempted: 6 accepted of which 2 refuted, plus 4 runs that
        // timed out, failed synthesis or were shed.
        assert_eq!(fail_frac(10, 6, 2), 0.6);
        assert_eq!(fail_frac(10, 10, 0), 0.0);
        assert_eq!(fail_frac(10, 0, 0), 1.0);
        assert_eq!(fail_frac(0, 0, 0), 1.0);
    }

    fn verdict(id: &str, status: Status, invariant: Option<&str>) -> Verdict {
        Verdict {
            id: id.to_string(),
            ms: 1.0,
            status,
            invariant: invariant.map(|text| hanoi_lang::parser::parse_expr(text).unwrap()),
            stats: hanoi::RunStats::default(),
        }
    }

    #[test]
    fn evaluate_counts_wrong_timeouts_synthesis_failures_and_sheds() {
        let workload = crate::workload::workload("cold_suite").unwrap();
        let mut measured = Measured::new(VerifierBounds::quick(), Vec::new());
        let input = crate::workload::suite()
            .into_iter()
            .find(|i| i.id == "/coq/bst-::-set+binfuncs")
            .unwrap();
        let problem = Problem::from_source(&input.source).unwrap();
        measured.problems = vec![(input, problem)];
        measured.verdicts = vec![
            verdict(
                "/coq/bst-::-set+binfuncs",
                Status::Invariant,
                Some("fun (x : tree) -> True"),
            ),
            verdict("/other/cache", Status::SynthesisFailure, None),
            verdict("/other/rational", Status::Timeout, None),
            verdict(
                "/other/sized-list",
                Status::Invariant,
                Some("fun (x : sized) -> True"),
            ),
        ];
        // One more request was shed by the server.
        measured.dropped = 1;
        measured.passes = 1;
        let report = evaluate(&measured, workload, 1);
        assert_eq!((report.attempted, report.failed, report.wrong), (5, 2, 1));
        assert_eq!((report.solved, report.verified), (2, 1));
        assert_eq!(report.fail_frac, 0.8);
        // The timeout makes the run incorrect; the known-wrong verdict does not.
        assert_eq!(
            report.problems_found.len(),
            2,
            "{:?}",
            report.problems_found
        );
    }

    fn span(id: usize, name: &str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: name.to_string(),
            subject: "p".to_string(),
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            parent,
        }
    }

    #[test]
    fn self_times_split_the_pass_wall_time_and_nothing_else() {
        use std::time::Duration;
        let mut measured = Measured::new(VerifierBounds::quick(), Vec::new());
        measured.passes = 2;
        measured.pass_walls = vec![1.3, 1.5];
        // Two processes, each: elaborate 100 ms, engine 10 ms, run 1000 ms.
        let process = vec![
            span(0, "lang.elaborate", 0, 100, None),
            span(1, "core.new", 100, 110, None),
            span(2, "core.run", 110, 1110, None),
        ];
        measured.spans = vec![process.clone(), process];
        // Re-enactments after the passes: far more spec evaluation than the
        // verifier spent, so it is capped by the verifier's time.
        let probe = vec![
            span(0, "store.load_wrapper", 0, 500, None),
            span(1, "lang.json_parse", 500, 800, None),
            span(2, "abstraction.spec_eval", 800, 2800, None),
        ];
        measured.probe_spans = vec![probe.clone(), probe];
        let mut stats = hanoi::RunStats::default();
        stats.verification_time = Duration::from_millis(300);
        stats.synthesis_time = Duration::from_millis(200);
        stats.total_time = Duration::from_millis(550);
        measured.verdicts = vec![verdict("p", Status::Invariant, None); 2];
        for v in &mut measured.verdicts {
            v.stats = stats.clone();
        }
        let times = self_times(&measured);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Untracked run time is 450 ms; the restore takes 450 of its 500.
        assert!(close(times.store, 0.45 - 0.3), "{times:?}");
        assert!(close(times.lang, 0.1 + 0.3), "{times:?}");
        assert!(close(times.abstraction, 0.3), "{times:?}");
        assert!(close(times.verifier, 0.0), "{times:?}");
        assert!(close(times.synth, 0.2), "{times:?}");
        assert!(
            close(times.core, 0.01 + 1.0 - 0.3 - 0.2 - 0.45),
            "{times:?}"
        );
        assert!(close(times.bench, 1.4 - 1.11), "{times:?}");
        let report = evaluate(
            &measured,
            crate::workload::workload("warm_restart").unwrap(),
            1,
        );
        let layers = report.per_layer(&measured);
        assert!(close(times.total(), layers["bench.traced_wall_s"]));
        assert!(close(layers["synth.busy_s"], times.synth));
        measured.concurrent = true;
        assert_eq!(self_times(&measured), SelfTimes::default());
    }

    #[test]
    fn passes_that_disagree_make_the_run_incorrect() {
        let workload = crate::workload::workload("numeric_cold").unwrap();
        let mut measured = Measured::new(VerifierBounds::quick(), Vec::new());
        measured.verdicts = vec![
            verdict("/other/cache", Status::SynthesisFailure, None),
            verdict(
                "/other/cache",
                Status::Invariant,
                Some("fun (x : cache) -> True"),
            ),
        ];
        let report = evaluate(&measured, workload, 1);
        assert!(report
            .problems_found
            .iter()
            .any(|p| p.contains("passes disagree")));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = hanoi_lang::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let defined: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .filter(|w| w.listed)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, defined);
    }

    #[test]
    fn metric_tables_have_unique_names_within_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }
}
