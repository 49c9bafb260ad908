//! In-memory spans for the traced run.
//!
//! The benchmark may not edit the program, so spans are recorded from the
//! outside: the same request prefix is replayed at successive depths
//! (tables call, engine call, direct TCP, routed TCP, …) on quiescent
//! instances, one span per request per depth, and the span of the deeper
//! call becomes the child of the shallower one **for the same request
//! id**. A layer's self time is its span's duration minus the durations
//! of its children, exactly as with nested spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::write_str;

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `op` and records it as a span of request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u32, op: impl FnOnce() -> T) -> (T, SpanId) {
        let start = self.now_ns();
        let out = op();
        let end = self.now_ns();
        (out, self.push(name, req, start, end))
    }

    /// Nanoseconds since the trace began — for spans whose name is only
    /// known once the call has returned (cache hit or miss).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn push(&mut self, name: &'static str, req: u32, start_ns: u64, end_ns: u64) -> SpanId {
        assert!(end_ns >= start_ns, "span ends before it starts");
        self.spans.push(Span {
            name,
            req,
            parent: None,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Declares `parent` the cause of `child`. Both must belong to the
    /// same request.
    pub fn link(&mut self, child: SpanId, parent: SpanId) {
        assert_eq!(
            self.spans[child as usize].req, self.spans[parent as usize].req,
            "a span's parent must belong to the same request"
        );
        self.spans[child as usize].parent = Some(parent);
    }

    pub fn dur_ns(&self, id: SpanId) -> u64 {
        self.spans[id as usize].dur_ns()
    }

    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self times of every span called `name`: duration minus the summed
    /// durations of its children, floored at zero (a child replayed on
    /// its own can come out a few ns slower than inside its parent).
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_sum)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write_file(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut name = String::new();
        write_str(workload, &mut name);
        writeln!(
            w,
            "{{\"workload\": {name}, \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            name.clear();
            write_str(s.name, &mut name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": {name}, \"req\": {}, \"parent\": {parent}, \
                 \"start\": {}, \"end\": {}}}{comma}",
                s.req, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_is_duration_minus_children_of_the_same_request() {
        let mut t = Trace::new();
        // Request 0: a 100 ns round trip whose engine call (replayed on
        // its own) took 30 ns, of which the tables call took 20 ns; parse
        // and render are siblings of the engine call under the round trip.
        let rtt = t.push("server", 0, 1000, 1100);
        let engine = t.push("engine", 0, 5000, 5030);
        let tables = t.push("tables", 0, 9000, 9020);
        let parse = t.push("parse", 0, 7000, 7005);
        let render = t.push("render", 0, 7100, 7115);
        t.link(tables, engine);
        for child in [engine, parse, render] {
            t.link(child, rtt);
        }
        // Request 1: a cache hit — the engine span has no tables child.
        let rtt1 = t.push("server", 1, 2000, 2060);
        let engine1 = t.push("engine", 1, 6000, 6008);
        t.link(engine1, rtt1);

        assert_eq!(t.self_times("server"), [100 - 30 - 5 - 15, 60 - 8]);
        assert_eq!(t.self_times("engine"), [10, 8]);
        assert_eq!(t.self_times("tables"), [20]);
        assert_eq!(t.durations("engine"), [30, 8]);
        // Self times of one request telescope back to its outermost span.
        let total: u64 = ["server", "engine", "tables", "parse", "render"]
            .iter()
            .map(|n| t.self_times(n)[0])
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn a_child_slower_than_its_parent_floors_self_time_at_zero() {
        let mut t = Trace::new();
        let p = t.push("outer", 0, 0, 10);
        let c = t.push("inner", 0, 100, 112);
        t.link(c, p);
        assert_eq!(t.self_times("outer"), [0]);
    }

    #[test]
    #[should_panic(expected = "same request")]
    fn linking_across_requests_is_refused() {
        let mut t = Trace::new();
        let a = t.push("a", 0, 0, 1);
        let b = t.push("b", 1, 0, 1);
        t.link(a, b);
    }

    #[test]
    fn the_trace_file_is_valid_json_with_every_span() {
        let mut t = Trace::new();
        let (v, outer) = t.span("outer", 7, || 42);
        assert_eq!(v, 42);
        let inner = t.push("inner \"quoted\"", 7, 3, 9);
        t.link(inner, outer);
        let path =
            std::env::temp_dir().join(format!("graphaug-trace-test-{}.json", std::process::id()));
        t.write_file(&path, "rec_cold", 3).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("rec_cold"));
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            spans[1].get("name").unwrap().as_str(),
            Some("inner \"quoted\"")
        );
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("req").unwrap().as_f64(), Some(7.0));
    }
}
