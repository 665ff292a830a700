//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written at exit as Chrome trace-event JSON (loadable in
//! `chrome://tracing` or Perfetto).
//!
//! Spans nest strictly (the benchmark's driving thread opens and closes
//! them), so a stack gives every span its parent. Per-name totals and self
//! times are accumulated as spans close and stay exact however many spans
//! the bounded store had to drop.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the store was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Unique id (from 1).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Aggregate over all closed spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the time their child spans cover.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    child_ns: u64,
}

/// A bounded in-memory span recorder. A disabled store ignores every call
/// without reading the clock, so untraced runs pay one branch per span.
pub struct SpanStore {
    enabled: bool,
    capacity: usize,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl SpanStore {
    /// A recording store keeping at most `capacity` spans for the trace
    /// file.
    pub fn new(capacity: usize) -> Self {
        SpanStore {
            enabled: true,
            capacity,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// A store that records nothing.
    pub fn disabled() -> Self {
        SpanStore {
            enabled: false,
            ..SpanStore::new(0)
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            id,
            parent,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - open.start_ns;
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Aggregates per span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, Totals> {
        &self.totals
    }

    /// Total duration of all spans named `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e9)
    }

    /// Spans closed after the store was full (absent from the trace file,
    /// present in the totals).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stored spans as Chrome trace-event JSON: one complete (`"X"`)
    /// event per span, times in microseconds with nanosecond digits, id and
    /// parent under `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {}.{:03}, \"dur\": {}.{:03}, \
                 \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                s.name,
                s.start_ns / 1_000,
                s.start_ns % 1_000,
                dur / 1_000,
                dur % 1_000,
                s.id,
                s.parent
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(
            out,
            "], \"displayTimeUnit\": \"ns\", \"otherData\": {{\"dropped_spans\": {}}}}}",
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value after `"key": ` in one serialized event.
    fn field<'a>(event: &'a str, key: &str) -> &'a str {
        let tag = format!("\"{key}\": ");
        let at = event
            .find(&tag)
            .unwrap_or_else(|| panic!("{key} in {event}"))
            + tag.len();
        let rest = &event[at..];
        let end = rest.find([',', '}']).expect("value ends");
        rest[..end].trim_matches('"')
    }

    /// Microseconds with three decimals back to whole nanoseconds.
    fn ns(us: &str) -> u64 {
        let (whole, frac) = us.split_once('.').expect("three decimals");
        whole.parse::<u64>().unwrap() * 1_000 + frac.parse::<u64>().unwrap()
    }

    /// Reads back the events written by [`SpanStore::to_chrome_json`].
    fn parse(json: &str) -> Vec<(String, u64, u64, u64, u64)> {
        json.lines()
            .filter(|l| l.starts_with("{\"name\""))
            .map(|e| {
                let start = ns(field(e, "ts"));
                (
                    field(e, "name").to_owned(),
                    field(e, "id").parse().unwrap(),
                    field(e, "parent").parse().unwrap(),
                    start,
                    start + ns(field(e, "dur")),
                )
            })
            .collect()
    }

    fn busy(iters: u64) {
        let mut x = 0u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_add(i));
        }
    }

    #[test]
    fn chrome_json_round_trips() {
        let mut s = SpanStore::new(16);
        s.enter("workload");
        for _ in 0..2 {
            s.enter("cell");
            busy(1_000);
            s.exit();
        }
        s.exit();
        let json = s.to_chrome_json();
        let back = parse(&json);
        let want: Vec<_> = s
            .spans
            .iter()
            .map(|x| (x.name.to_owned(), x.id, x.parent, x.start_ns, x.end_ns))
            .collect();
        assert_eq!(back, want);
        assert_eq!(back.len(), 3);
        // Children close first and point at the workload span.
        assert_eq!((back[0].2, back[1].2, back[2].2), (1, 1, 0));
        assert!(json.ends_with("\"dropped_spans\": 0}}\n"));
    }

    #[test]
    fn self_time_excludes_children_and_survives_the_bound() {
        let mut s = SpanStore::new(1);
        s.enter("outer");
        s.enter("inner");
        busy(100_000);
        s.exit();
        s.exit();
        let t = s.totals();
        let (inner, outer) = (t["inner"].total_ns, t["outer"].total_ns);
        assert!(inner > 0 && outer >= inner);
        assert_eq!(t["inner"].self_ns, inner);
        assert_eq!(t["outer"].self_ns, outer - inner);
        // The store keeps one span (the inner one, which closed first); the
        // outer one is dropped from the file but counted in the totals.
        assert_eq!((s.spans.len(), s.dropped()), (1, 1));
        assert_eq!(s.spans[0].name, "inner");
    }

    #[test]
    fn disabled_store_records_nothing() {
        let mut s = SpanStore::disabled();
        s.enter("x");
        s.exit();
        assert!(s.totals().is_empty());
        assert_eq!(s.seconds("x"), 0.0);
    }
}
