//! The `serve` workload: an in-process `hanoi_server::Server` with its
//! default configuration, fed over one loopback connection by an open-loop
//! generator at a fixed rate well below capacity.
//!
//! Each request is a seeded draw of one of the 28 ADT sources, submitted
//! with the server's default (quick) options.  The server's engine starts
//! empty, so the first submit of each problem is cold.  New problems enter
//! the schedule at every [`COLD_EVERY`]-th slot, in reverse suite order, so
//! at most one worker runs a cold problem while the other answers the warm
//! ones, and neither the queue nor the per-client quota of 8 in flight fills
//! up.  The other slots carry seeded draws among the problems whose cold
//! submit is at least one such interval old, without replacement: each
//! round sends every such problem once, in a seeded order.  So the mix of
//! problems over time, and with it the latency distribution, is the same for
//! every seed; the seed changes only the order.
//!
//! Problems introduced early get the most warm requests.  Warm answers come
//! in two clusters, ~1.3 ms and ~4 ms (the `/coq/` sets of bst, sorted and
//! unique lists); in suite order those come first, the two clusters are
//! about equally large, and the median fell in the gap between them, moving
//! by 15% between seeds.  In reverse order they are under a tenth of the
//! warm requests and the median lies inside the fast cluster.
//!
//! Latency is timed from when a request was due, not from when it was
//! sent, and the generator reports how late it ran.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hanoi::json::Json;
use hanoi::RunStats;
use hanoi_benchmarks::trace::SplitMix64;
use hanoi_server::{Server, ServerConfig, ServerHandle};

use crate::workload::{Status, Verdict};

/// Requests per second the generator offers.  Warm requests take about a
/// millisecond, so this is a small fraction of what the server can answer.
pub const RATE_PER_S: f64 = 72.0;

/// A problem not yet seen by the server enters the schedule at every
/// `COLD_EVERY`-th slot: one every 0.625 s at [`RATE_PER_S`], longer than
/// the slowest cold run takes beside the warm traffic (~0.57 s; ~0.4 s
/// alone), so two cold runs do not overlap.
pub const COLD_EVERY: usize = 45;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// Seconds after the start of the measured phase.
    pub due_s: f64,
    /// Index into the workload's sources.
    pub source: usize,
}

/// The request schedule: at least `max(min_requests, RATE_PER_S *
/// seconds)` requests in slots `1 / RATE_PER_S` apart, and as many more as
/// it takes to send every source once; a function of the seed only.  Slots
/// before the first warm problem exists stay empty.
pub fn schedule(seed: u64, sources: usize, seconds: f64, min_requests: usize) -> Vec<Scheduled> {
    let count = ((RATE_PER_S * seconds).ceil() as usize).max(min_requests);
    let mut rng = SplitMix64::new(seed ^ 0x5e12_7e5e_12ab_cdef);
    let mut round: Vec<usize> = Vec::new();
    let mut plan = Vec::with_capacity(count);
    for slot in 0.. {
        if plan.len() >= count && slot > (sources.max(1) - 1) * COLD_EVERY {
            break;
        }
        let cold = slot / COLD_EVERY;
        // The position of the problem in the order of introduction.
        let position = if slot % COLD_EVERY == 0 && cold < sources {
            cold
        } else {
            // Problems introduced at an earlier cold slot.
            let warm = cold.min(sources);
            if warm == 0 {
                continue;
            }
            if round.is_empty() {
                round = (0..warm).collect();
                for i in (1..warm).rev() {
                    round.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            round
                .pop()
                .expect("a round is refilled before it is drawn from")
        };
        plan.push(Scheduled {
            due_s: slot as f64 / RATE_PER_S,
            source: sources - 1 - position,
        });
    }
    plan
}

/// What the client saw of one request, in seconds after the start of the
/// measured phase.
#[derive(Debug, Clone, Default)]
pub struct RequestRecord {
    pub due_s: f64,
    pub sent_s: f64,
    pub accepted_s: Option<f64>,
    /// The first run event (`run-started`).
    pub started_s: Option<f64>,
    /// The terminal frame: `result`, `shed` or `error`.
    pub done_s: Option<f64>,
    /// The reason the server gave for shedding the request.
    pub shed: Option<String>,
    pub error: Option<String>,
    pub status: Option<Status>,
    pub invariant: Option<String>,
    pub stats: Option<RunStats>,
}

impl RequestRecord {
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_s.map(|done| (done - self.due_s) * 1e3)
    }

    /// From the `accepted` frame to the first run event; 0 when a free
    /// worker's first event, or even its result, overtook the `accepted`
    /// frame.
    pub fn queue_wait_ms(&self) -> Option<f64> {
        let started = self.started_s?;
        Some(
            self.accepted_s
                .map_or(0.0, |accepted| ((started - accepted) * 1e3).max(0.0)),
        )
    }

    /// From the first run event to the result.
    pub fn run_ms(&self) -> Option<f64> {
        Some((self.done_s? - self.started_s?) * 1e3)
    }

    /// Latency minus queue wait minus run time: generator lateness, the
    /// protocol, admission and per-submit elaboration.
    pub fn overhead_ms(&self) -> Option<f64> {
        Some(self.latency_ms()? - self.queue_wait_ms()? - self.run_ms()?)
    }

    /// The answer as a verdict, when the request got one.
    pub fn verdict(&self, id: &str) -> Option<Verdict> {
        let status = self.status?;
        let invariant = match &self.invariant {
            Some(text) => Some(hanoi_lang::parser::parse_expr(text).ok()?),
            None => None,
        };
        Some(Verdict {
            id: id.to_string(),
            ms: self.latency_ms()?,
            status,
            invariant,
            stats: self.stats.clone().unwrap_or_default(),
        })
    }
}

/// A running server and the client's connection to it.
pub struct Booted {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<usize>>,
    stream: TcpStream,
}

/// Binds a server with the default configuration on a loopback port,
/// connects, starts serving, and waits for the answer to a ping.
pub fn boot() -> Result<Booted, String> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server bind: {e}"))?;
    let handle = server.handle();
    // Connecting before `serve` starts puts the connection in the listen
    // backlog, so the accept loop takes it at once rather than after its
    // next poll interval.
    let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    let thread = std::thread::spawn(move || server.serve());
    let mut booted = Booted {
        handle,
        thread,
        stream,
    };
    let ping = Json::obj([("op", Json::Str("ping".to_string()))]);
    hanoi_lang::json::write_frame(&mut booted.stream, &ping).map_err(|e| format!("ping: {e}"))?;
    let mut reader = BufReader::new(booted.stream.try_clone().map_err(|e| e.to_string())?);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("pong: {e}"))?;
    if !line.contains("pong") {
        return Err(format!("expected a pong, got `{}`", line.trim()));
    }
    Ok(booted)
}

impl Booted {
    /// Drains the server and waits until its threads have ended.
    pub fn shut_down(self) -> Result<(), String> {
        self.handle.drain();
        drop(self.stream);
        self.handle
            .wait_drained(Duration::from_secs(60))
            .ok_or("the server did not drain within 60 s")?;
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map(|_| ())
            .map_err(|e| format!("serve: {e}"))
    }

    /// Sends every scheduled request at its due time and collects the
    /// replies; returns the start of the schedule and one record per
    /// request, in schedule order.
    pub fn drive(
        &mut self,
        sources: &[String],
        schedule: &[Scheduled],
    ) -> Result<(Instant, Vec<RequestRecord>), String> {
        let origin = Instant::now();
        let reader_stream = self.stream.try_clone().map_err(|e| e.to_string())?;
        let expected = schedule.len();
        let reader = std::thread::spawn(move || read_replies(reader_stream, origin, expected));
        let mut sent = Vec::with_capacity(expected);
        for (i, request) in schedule.iter().enumerate() {
            let due = origin + Duration::from_secs_f64(request.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let frame = Json::obj([
                ("op", Json::Str("submit".to_string())),
                ("id", Json::Str(format!("r{i}"))),
                ("source", Json::Str(sources[request.source].clone())),
                ("events", Json::Bool(true)),
            ]);
            sent.push(origin.elapsed().as_secs_f64());
            if let Err(e) = hanoi_lang::json::write_frame(&mut self.stream, &frame) {
                // Unblock the reader before reporting.
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                let _ = reader.join();
                return Err(format!("submit r{i}: {e}"));
            }
        }
        let mut records = reader
            .join()
            .map_err(|_| "the reply reader panicked".to_string())??;
        for ((record, request), sent_s) in records.iter_mut().zip(schedule).zip(sent) {
            record.due_s = request.due_s;
            record.sent_s = sent_s;
        }
        Ok((origin, records))
    }
}

/// Reads reply frames until every request has a terminal frame.
fn read_replies(
    stream: TcpStream,
    origin: Instant,
    expected: usize,
) -> Result<Vec<RequestRecord>, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let mut records = vec![RequestRecord::default(); expected];
    let mut open = expected;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while open > 0 {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                return Err(format!(
                    "the server closed the connection with {open} request(s) open"
                ))
            }
            Ok(_) => {}
            Err(e) => return Err(format!("reading replies: {e}")),
        }
        let now = origin.elapsed().as_secs_f64();
        let frame = hanoi_lang::json::parse(line.trim()).map_err(|e| format!("reply: {e}"))?;
        let Some(index) = frame
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix('r'))
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&n| n < expected)
        else {
            continue;
        };
        let record = &mut records[index];
        match frame.get("reply").and_then(Json::as_str) {
            Some("accepted") => record.accepted_s = Some(now),
            Some("event") => {
                record.started_s.get_or_insert(now);
            }
            Some("result") => {
                record.started_s.get_or_insert(now);
                record.status = frame
                    .get("status")
                    .and_then(Json::as_str)
                    .and_then(Status::from_label);
                record.invariant = frame
                    .get("invariant")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                record.stats = frame
                    .get("stats")
                    .and_then(|s| RunStats::from_json_value(s).ok());
                record.done_s = Some(now);
                open -= 1;
            }
            Some("shed") => {
                record.shed = Some(
                    frame
                        .get("reason")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                );
                record.done_s = Some(now);
                open -= 1;
            }
            Some("error") => {
                record.error = Some(frame.render());
                record.done_s = Some(now);
                open -= 1;
            }
            _ => {}
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sends_each_source_cold_once_before_drawing_it_warm() {
        let plan = schedule(3, 28, 15.0, 1000);
        assert!(plan.len() >= 1080);
        let mut introduced: Vec<(usize, usize)> = Vec::new();
        for request in &plan {
            let slot = (request.due_s * RATE_PER_S).round() as usize;
            assert!((request.due_s - slot as f64 / RATE_PER_S).abs() < 1e-9);
            match introduced
                .iter()
                .find(|(source, _)| *source == request.source)
            {
                Some(&(_, at)) => assert!(slot >= at + COLD_EVERY, "warm too soon"),
                None => {
                    assert_eq!(slot % COLD_EVERY, 0, "a new problem off the cold slots");
                    introduced.push((request.source, slot));
                }
            }
        }
        assert_eq!(introduced.len(), 28);
        assert_eq!(schedule(3, 2, 1.0, 1000).len(), 1000);
    }

    #[test]
    fn a_few_requests_round_trip_through_a_real_server() {
        let sources: Vec<String> = hanoi_benchmarks::registry()
            .into_iter()
            .filter(|b| b.id == "/other/rational" || b.id == "/other/sized-list")
            .map(|b| b.source)
            .collect();
        let plan: Vec<Scheduled> = [0, 1, 0, 1]
            .iter()
            .enumerate()
            .map(|(i, &source)| Scheduled {
                due_s: i as f64 * 0.01,
                source,
            })
            .collect();
        let mut booted = boot().unwrap();
        let (_, records) = booted.drive(&sources, &plan).unwrap();
        booted.shut_down().unwrap();
        assert_eq!(records.len(), 4);
        for record in &records {
            assert_eq!(record.status, Some(Status::Invariant), "{record:?}");
            assert!(record.queue_wait_ms().unwrap() >= 0.0);
            assert!(record.run_ms().unwrap() >= 0.0);
            assert!(record.latency_ms().unwrap() >= record.run_ms().unwrap());
        }
        assert_eq!(records[0].invariant, records[2].invariant);
    }
}
