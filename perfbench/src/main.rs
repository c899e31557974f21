//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//! ```
//!
//! Runs one workload (see [`workload::WORKLOADS`]), checks every verdict
//! with the independent check of [`check`], prints a human-readable report
//! and, as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the workload runs with
//! span tracing and the metrics are the per-layer ones, and the spans are
//! written to `<work>/trace-<workload>-<seed>.json`.
//!
//! `warm_restart` runs its set-up and each restart in child processes (the
//! `warm-setup` / `warm-restore` subcommands), so every restore happens in a
//! process that did not run the cold pass.  `serve` runs a server in this
//! process and drives it over a loopback connection (see [`serve`]).

mod check;
mod metrics;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use hanoi::json::Json;
use hanoi_abstraction::Problem;
use hanoi_store::ChunkStore;
use hanoi_verifier::VerifierBounds;

use crate::metrics::{Measured, SetupRun};
use crate::trace::{Span, Tracer};
use crate::workload::{
    elaborate, fresh_engine, run_one, suite, ChunkSample, Input, Status, Verdict, Workload,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Elaborations of the inputs in one set-up sample, which reports their
/// mean.  One elaboration of the suite takes ~6 ms, and on a shared 2-vCPU
/// VM the speed of one CPU shifts by up to a third between phases of a few
/// hundred milliseconds; 40 elaborations (~0.25 s) span several phases
/// instead of landing in one.
const ELABORATIONS_PER_SAMPLE: usize = 40;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    store: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let command = match raw.first() {
        Some(first) if !first.starts_with("--") => raw.remove(0),
        _ => "run".to_string(),
    };
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_work"),
        store: None,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--work" => args.work = PathBuf::from(value),
            "--store" => args.store = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "run" => run(&args),
        "warm-setup" => child(&args, warm_setup),
        "warm-restore" => child(&args, warm_restore),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = workload::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let measured = match workload.name {
        "cold_suite" => in_process(args, workload, &suite(), VerifierBounds::paper(), false)?,
        "numeric_cold" => in_process(
            args,
            workload,
            &workload::numeric_suite(),
            VerifierBounds::paper(),
            true,
        )?,
        "warm_restart" => warm_restart(args, workload)?,
        "serve" => serve_workload(args, workload)?,
        _ => unreachable!("every listed workload is handled above"),
    };
    let start = Instant::now();
    let report = metrics::evaluate(&measured, workload, args.seed);
    let check_s = start.elapsed().as_secs_f64();
    report.print_human(&measured, workload, args.trace);
    println!("  the verdict check took {check_s:.3} s, outside every timed region");
    if args.trace {
        let path = args
            .work
            .join(format!("trace-{}-{}.json", workload.name, args.seed));
        let text = metrics::trace_file(&measured, workload, args.seed).render_pretty();
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }
    println!(
        "{}",
        report.result_json(&measured, workload, args.trace).render()
    );
    Ok(())
}

/// One set-up sample: elaborates the inputs [`ELABORATIONS_PER_SAMPLE`]
/// times; returns the problems and the mean seconds per elaboration.
fn setup_sample(inputs: &[Input], tracer: &Tracer) -> Result<(Vec<Problem>, f64), String> {
    let start = Instant::now();
    let mut problems = Vec::new();
    for _ in 0..ELABORATIONS_PER_SAMPLE {
        problems = elaborate(inputs, tracer)?;
    }
    Ok((
        problems,
        start.elapsed().as_secs_f64() / ELABORATIONS_PER_SAMPLE as f64,
    ))
}

/// `cold_suite` and `numeric_cold`: each set-up sample elaborates the
/// inputs and, with `warm_up`, runs one round of them; each measured pass
/// runs every problem once on a fresh engine, serially, until `--seconds`
/// have passed and the workload's sample minimum is met.
fn in_process(
    args: &Args,
    workload: Workload,
    inputs: &[Input],
    bounds: VerifierBounds,
    warm_up: bool,
) -> Result<Measured, String> {
    let setup_tracer = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (elaborated, elaborate_s) = setup_sample(inputs, &setup_tracer)?;
        problems = elaborated;
        let start = Instant::now();
        if warm_up {
            // Fills the process-wide lazy caches (memoized synthesis
            // compositions, interned symbols), which users pay once per
            // process rather than once per verdict.
            for (input, problem) in inputs.iter().zip(&problems) {
                run_one(&fresh_engine(), problem, input, bounds, &Tracer::new(false));
            }
        }
        setups.push(SetupRun {
            seconds: elaborate_s + start.elapsed().as_secs_f64(),
            elaborate_ms: elaborate_s * 1e3,
        });
    }

    // The pass tracer sees only the timed calls; the re-enactments after
    // each problem go to the probe tracer and stay out of the pass time.
    let tracer = Tracer::new(args.trace);
    let probes = Tracer::new(args.trace);
    let mut measured = Measured::new(bounds, setups);
    let started = Instant::now();
    while measured.passes == 0
        || started.elapsed().as_secs_f64() < args.seconds
        || measured.verdicts.len() < workload.min_samples
    {
        let mut pass_s = 0.0;
        for (input, problem) in inputs.iter().zip(&problems) {
            let start = Instant::now();
            let engine = tracer.span("core.new", input.id, fresh_engine);
            let verdict = run_one(&engine, problem, input, bounds, &tracer);
            pass_s += start.elapsed().as_secs_f64();
            if probes.enabled() {
                workload::probe_verifier(
                    problem,
                    input.id,
                    verdict.invariant.as_ref(),
                    bounds,
                    &probes,
                );
            }
            measured.verdicts.push(verdict);
        }
        measured.pass_walls.push(pass_s);
        measured.passes += 1;
    }
    measured.rss_mb = stats::peak_rss_mb();
    measured.problems = inputs.iter().cloned().zip(problems).collect();
    measured.setup_spans = vec![setup_tracer.spans()];
    measured.spans = vec![tracer.spans()];
    measured.probe_spans = vec![probes.spans()];
    Ok(measured)
}

/// `serve`: each set-up sample elaborates the 28 ADT sources (the check
/// needs them) and boots a server; the last one stays up and serves the
/// measured phase, one open-loop schedule of `serve::schedule` requests.
fn serve_workload(args: &Args, workload: Workload) -> Result<Measured, String> {
    let inputs: Vec<Input> = suite().into_iter().filter(|i| !i.numeric).collect();
    let setup_tracer = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    let mut booted: Option<serve::Booted> = None;
    for _ in 0..SETUP_SAMPLES {
        let (elaborated, elaborate_s) = setup_sample(&inputs, &setup_tracer)?;
        problems = elaborated;
        if let Some(previous) = booted.take() {
            previous.shut_down()?;
        }
        let start = Instant::now();
        booted = Some(setup_tracer.span("server.boot", "serve", serve::boot)?);
        setups.push(SetupRun {
            seconds: elaborate_s + start.elapsed().as_secs_f64(),
            elaborate_ms: elaborate_s * 1e3,
        });
    }
    let mut server = booted.ok_or("no set-up ran")?;
    let sources: Vec<String> = inputs.iter().map(|i| i.source.clone()).collect();
    let plan = serve::schedule(args.seed, inputs.len(), args.seconds, workload.min_samples);
    let tracer = Tracer::new(args.trace);
    let driven = server.drive(&sources, &plan);
    let rss_mb = stats::peak_rss_mb();
    server.shut_down()?;
    let (origin, records) = driven?;

    let bounds = VerifierBounds::quick();
    let mut measured = Measured::new(bounds, setups);
    measured.concurrent = true;
    measured.passes = 1;
    measured.rss_mb = rss_mb;
    let wall = records.iter().filter_map(|r| r.done_s).fold(0.0, f64::max);
    measured.pass_walls.push(wall);
    let at = |s: f64| origin + Duration::from_secs_f64(s.max(0.0));
    for (record, request) in records.iter().zip(&plan) {
        let id = inputs[request.source].id;
        match record.verdict(id) {
            Some(verdict) => measured.verdicts.push(verdict),
            None => measured.dropped += 1,
        }
        let Some(done) = record.done_s else { continue };
        let parent = tracer.record("server.submit", id, at(record.due_s), at(done), None);
        if let Some(started) = record.started_s {
            if let Some(accepted) = record.accepted_s.filter(|&a| a < started) {
                tracer.record("server.queue", id, at(accepted), at(started), parent);
            }
            tracer.record("core.run", id, at(started), at(done), parent);
        }
    }
    measured.spans = vec![tracer.spans()];
    measured.setup_spans = vec![setup_tracer.spans()];
    measured.requests = records;
    // Every answer must equal a direct run of the same source at the
    // server's default options, on a fresh engine, outside the timing.
    measured.reference = Some(
        inputs
            .iter()
            .zip(&problems)
            .map(|(input, problem)| {
                let start = Instant::now();
                let result = fresh_engine().run(problem, &hanoi::RunOptions::quick());
                Verdict {
                    id: input.id.to_string(),
                    ms: start.elapsed().as_secs_f64() * 1e3,
                    status: Status::of(&result.outcome),
                    invariant: result.outcome.invariant().cloned(),
                    stats: result.stats,
                }
            })
            .collect(),
    );
    measured.problems = inputs.into_iter().zip(problems).collect();
    Ok(measured)
}

/// `warm_restart`: each set-up runs the cold pass in a child process and
/// saves every engine into a fresh store; each measured pass is a new child
/// process that restores from the last store and re-runs all 33 problems.
fn warm_restart(args: &Args, workload: Workload) -> Result<Measured, String> {
    let bounds = VerifierBounds::quick();
    let mut setups = Vec::new();
    let mut setup_outputs = Vec::new();
    let mut store = PathBuf::new();
    for rep in 0..3 {
        store = args.work.join(format!("warm-store-{rep}"));
        if store.exists() {
            std::fs::remove_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        }
        let (output, seconds) = spawn_child("warm-setup", &store, args)?;
        let elaborate_ms = output
            .get("elaborate_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        setups.push(SetupRun {
            seconds,
            elaborate_ms,
        });
        setup_outputs.push(output);
    }
    let last_setup = setup_outputs.last().expect("three set-ups ran");
    let mut measured = Measured::new(bounds, setups);
    measured.reference = Some(verdicts_of(last_setup)?);
    measured.setup_spans = vec![spans_of(last_setup, "spans")];
    let inventory = ChunkStore::open(&store).map_err(|e| e.to_string())?.stats();
    measured.store_bytes = inventory.total_bytes();
    measured.largest_chunk_bytes = largest_file(&store.join("chunks"));

    let started = Instant::now();
    while measured.passes == 0
        || started.elapsed().as_secs_f64() < args.seconds
        || measured.verdicts.len() < workload.min_samples
    {
        let (output, wall) = spawn_child("warm-restore", &store, args)?;
        // Probes run after the timed runs in the traced child; their time is
        // not part of the restart.
        let probe_s = output.get("probe_s").and_then(Json::as_f64).unwrap_or(0.0);
        measured.pass_walls.push(wall - probe_s);
        measured.verdicts.extend(verdicts_of(&output)?);
        measured.spans.push(spans_of(&output, "spans"));
        measured.probe_spans.push(spans_of(&output, "probe_spans"));
        if let Some(chunks) = output.get("chunks").and_then(Json::as_arr) {
            measured
                .chunks
                .extend(chunks.iter().filter_map(ChunkSample::from_json));
        }
        let rss = output.get("rss_mb").and_then(Json::as_f64).unwrap_or(0.0);
        measured.rss_mb = measured.rss_mb.max(rss);
        measured.passes += 1;
    }
    measured.problems = suite()
        .into_iter()
        .map(|input| {
            let problem = elaborate(std::slice::from_ref(&input), &Tracer::new(false))?.remove(0);
            Ok((input, problem))
        })
        .collect::<Result<_, String>>()?;
    Ok(measured)
}

fn largest_file(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// Runs this binary as a child process; returns its parsed JSON output and
/// how long the process ran (spawn to exit, not counting the parse).
fn spawn_child(command: &str, store: &Path, args: &Args) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let output = Command::new(exe)
        .arg(command)
        .arg("--store")
        .arg(store)
        .arg("--trace")
        .arg(if args.trace { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{command}: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("{command} exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let json =
        hanoi_lang::json::parse(text.trim()).map_err(|e| format!("{command} output: {e}"))?;
    Ok((json, seconds))
}

fn verdicts_of(output: &Json) -> Result<Vec<Verdict>, String> {
    output
        .get("verdicts")
        .and_then(Json::as_arr)
        .ok_or("child output has no verdicts")?
        .iter()
        .map(|v| {
            Verdict::from_json(v).ok_or_else(|| "malformed verdict in child output".to_string())
        })
        .collect()
}

fn spans_of(output: &Json, key: &str) -> Vec<Span> {
    output
        .get(key)
        .and_then(Json::as_arr)
        .map(|spans| spans.iter().filter_map(Span::from_json).collect())
        .unwrap_or_default()
}

/// A child subcommand: works on the store with a tracer for its timed
/// calls and one for its re-enactments, returns its result fields.
type ChildBody = fn(&Path, &Tracer, &Tracer) -> Result<Vec<(&'static str, Json)>, String>;

/// Runs a child subcommand and prints its JSON result on one line.
fn child(args: &Args, body: ChildBody) -> Result<(), String> {
    let store = args.store.as_deref().ok_or("--store is required")?;
    let tracer = Tracer::new(args.trace);
    let probes = Tracer::new(args.trace);
    let mut fields = body(store, &tracer, &probes)?;
    fields.push(("rss_mb", Json::Num(stats::peak_rss_mb())));
    let render = |t: &Tracer| Json::Arr(t.spans().iter().map(Span::to_json).collect());
    fields.push(("spans", render(&tracer)));
    fields.push(("probe_spans", render(&probes)));
    println!("{}", Json::obj(fields).render());
    Ok(())
}

/// The cold pass at quick bounds, one fresh engine per problem, each engine
/// saved into the store.
fn warm_setup(
    store: &Path,
    tracer: &Tracer,
    _: &Tracer,
) -> Result<Vec<(&'static str, Json)>, String> {
    let inputs = suite();
    let start = Instant::now();
    let problems = elaborate(&inputs, tracer)?;
    let elaborate_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut verdicts = Vec::new();
    for (input, problem) in inputs.iter().zip(&problems) {
        let engine = fresh_engine();
        verdicts.push(run_one(&engine, problem, input, VerifierBounds::quick(), tracer).to_json());
        tracer
            .span("store.save", input.id, || engine.save_state(store))
            .map_err(|e| format!("save_state: {e}"))?;
    }
    Ok(vec![
        ("elaborate_ms", Json::Num(elaborate_ms)),
        ("verdicts", Json::Arr(verdicts)),
    ])
}

/// A restart: a new engine attached to the store re-runs every problem.
fn warm_restore(
    store: &Path,
    tracer: &Tracer,
    probes: &Tracer,
) -> Result<Vec<(&'static str, Json)>, String> {
    let inputs = suite();
    let problems = elaborate(&inputs, tracer)?;
    let config = hanoi::EngineConfig::default().with_warm_start_dir(store);
    let engine = tracer
        .span("core.new", "warm_restart", || hanoi::Engine::new(config))
        .map_err(|e| e.to_string())?;
    let bounds = VerifierBounds::quick();
    let verdicts: Vec<Verdict> = inputs
        .iter()
        .zip(&problems)
        .map(|(input, problem)| run_one(&engine, problem, input, bounds, tracer))
        .collect();
    let start = Instant::now();
    let mut chunks = Vec::new();
    if probes.enabled() {
        for ((input, problem), verdict) in inputs.iter().zip(&problems).zip(&verdicts) {
            chunks.extend(workload::probe_store(store, problem, input.id, probes));
            workload::probe_verifier(
                problem,
                input.id,
                verdict.invariant.as_ref(),
                bounds,
                probes,
            );
        }
    }
    let probe_s = start.elapsed().as_secs_f64();
    Ok(vec![
        (
            "verdicts",
            Json::Arr(verdicts.iter().map(Verdict::to_json).collect()),
        ),
        (
            "chunks",
            Json::Arr(chunks.iter().map(ChunkSample::to_json).collect()),
        ),
        ("probe_s", Json::Num(probe_s)),
    ])
}
