//! In-memory span tracing around calls into the system's public API.
//!
//! A span records the call's name (`<layer>.<call>`), the problem it served,
//! its start and end (nanoseconds since the tracer was created), and the
//! span that was open when it started (its cause).  Spans are kept in memory
//! and written out once, when the run ends.  A disabled tracer only runs the
//! closure, so untraced runs pay nothing.

use std::cell::RefCell;
use std::time::Instant;

use hanoi_lang::json::Json;

/// One finished call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Process-local id (index in the tracer).
    pub id: usize,
    /// `<layer>.<call>`, e.g. `store.load_chunk`.
    pub name: String,
    /// The benchmark problem the call served.
    pub subject: String,
    /// Start, in nanoseconds since the tracer origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer origin.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("name", Json::Str(self.name.clone())),
            ("subject", Json::Str(self.subject.clone())),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("parent", Json::opt(self.parent, |p| Json::Num(p as f64))),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Span> {
        Some(Span {
            id: json.get("id")?.as_usize()?,
            name: json.get("name")?.as_str()?.to_string(),
            subject: json.get("subject")?.as_str()?.to_string(),
            start_ns: json.get("start_ns")?.as_f64()? as u64,
            end_ns: json.get("end_ns")?.as_f64()? as u64,
            parent: json.get("parent").and_then(Json::as_usize),
        })
    }
}

/// Records spans for one process.
pub struct Tracer {
    origin: Option<Instant>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Runs `f` inside a span named `name` for `subject`.
    pub fn span<R>(&self, name: &str, subject: &str, f: impl FnOnce() -> R) -> R {
        let Some(origin) = self.origin else {
            return f();
        };
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                name: name.to_string(),
                subject: subject.to_string(),
                start_ns: origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            id
        };
        self.open.borrow_mut().push(id);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = origin.elapsed().as_nanos() as u64;
        result
    }

    /// Records a span whose start and end were observed elsewhere (the
    /// `serve` workload's reply reader); returns its id.
    pub fn record(
        &self,
        name: &str,
        subject: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        let origin = self.origin?;
        let ns = |at: Instant| at.saturating_duration_since(origin).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            name: name.to_string(),
            subject: subject.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        Some(id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Summed duration of the spans no other span caused, in seconds.
pub fn top_level_s<'a>(processes: impl IntoIterator<Item = &'a [Span]>) -> f64 {
    processes
        .into_iter()
        .flatten()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_s)
        .sum()
}

/// Summed duration of every span named `name`, in seconds.
pub fn total_s<'a>(processes: impl IntoIterator<Item = &'a [Span]>, name: &str) -> f64 {
    processes
        .into_iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("core.run", "p", || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_totals() {
        let tracer = Tracer::new(true);
        tracer.span("store.load_wrapper", "p", || {
            tracer.span("lang.json_parse", "p", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let round_trip: Vec<Span> = spans
            .iter()
            .map(|s| Span::from_json(&s.to_json()).unwrap())
            .collect();
        assert_eq!(round_trip, spans);
        let parse = total_s([spans.as_slice()], "lang.json_parse");
        assert!(parse >= 0.005);
        let top = top_level_s([spans.as_slice()]);
        assert_eq!(top, total_s([spans.as_slice()], "store.load_wrapper"));
        assert!(top >= parse);
    }
}
