//! The benchmark's own spans, recorded from outside the program.
//!
//! Every layer call the benchmark makes is wrapped in a span (name, start,
//! end, parent, workload, seed). Nothing is instrumented inside the
//! simulator: a span's layer is the prefix of its name before the first `.`,
//! which is the workspace crate the wrapped call belongs to. Spans stay in
//! memory and are written as JSON Lines when the traced child exits.
//!
//! The ledger law checked over them: no span's children sum past the span
//! itself, and the top-level spans under a root never sum past the root
//! (the root of the timed calls is the workload's `wall_s`).

use ntier_trace::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Slack allowed by the ledger law, in seconds: clock reads around nested
/// calls are not simultaneous, so a child can appear to outlast its parent
/// by a few hundred nanoseconds.
pub const LEDGER_EPSILON_S: f64 = 1e-5;

/// Handle of an open span (index into the recorder). The disabled recorder
/// hands out a dummy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One closed (or still open) span. Times are seconds since the recorder
/// was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder. `Spans::off()` records nothing and reads no
/// clock, so the untimed path pays nothing for the calls that would open
/// spans.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn on() -> Self {
        Spans {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span. Spans close in LIFO order; closing out of order is a
    /// bug in the benchmark, not in the program it measures.
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the first root span with this name.
    pub fn root(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == name)
    }

    /// Sum of the durations of `parent`'s direct children.
    fn children_secs(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Whether `i` lies under `root` (or is it).
    fn under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Self seconds per layer over the spans under `root`: each span's
    /// duration minus the part its direct children cover.
    pub fn self_secs(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.under(i, root) {
                *out.entry(s.layer()).or_insert(0.0) += s.secs() - self.children_secs(i);
            }
        }
        out
    }

    /// Total seconds of the spans under `root` whose name is `name`.
    pub fn total(&self, root: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.under(*i, root))
            .fold(0.0, |acc, (_, s)| acc + s.secs())
    }

    /// Check the ledger law over every span and return the root's gap:
    /// `root − Σ top-level children`, which must be ≥ −ε.
    pub fn ledger(&self, root: usize) -> Result<f64, String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span '{}' ends before it starts", s.name));
            }
            let children = self.children_secs(i);
            if children > s.secs() + LEDGER_EPSILON_S {
                return Err(format!(
                    "children of '{}' sum to {children:.6}s, past its {:.6}s",
                    s.name,
                    s.secs()
                ));
            }
        }
        Ok(self.spans[root].secs() - self.children_secs(root))
    }

    /// The spans as JSON Lines, tagged with the workload and seed.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Json::from(i)),
                ("name", s.name.into()),
                ("start_s", s.start.into()),
                ("end_s", s.end.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("workload", workload.into()),
                ("seed", seed.into()),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_keep_the_ledger() {
        let mut s = Spans::on();
        let root = s.enter("bench.workload");
        s.time("lab.expand", || spin(std::time::Duration::from_micros(200)));
        s.time("report.render", || {
            spin(std::time::Duration::from_micros(100));
        });
        s.exit(root);
        let gap = s.ledger(0).expect("ledger holds");
        assert!(gap >= -LEDGER_EPSILON_S);
        let selfs = s.self_secs(0);
        let total: f64 = selfs.values().sum();
        assert!((total - s.spans()[0].secs()).abs() < 1e-9);
        assert!(selfs["lab"] >= 200e-6);
    }

    #[test]
    fn ledger_rejects_children_past_their_parent() {
        let mut s = Spans::on();
        let root = s.enter("bench.workload");
        let child = s.enter("lab.sweep");
        s.exit(child);
        s.exit(root);
        // Forge a child that outlasts its parent.
        let forged = Spans {
            spans: vec![
                Span {
                    end: 1.0,
                    ..s.spans()[0].clone()
                },
                Span {
                    end: 2.0,
                    ..s.spans()[1].clone()
                },
            ],
            ..Spans::on()
        };
        assert!(forged.ledger(0).is_err());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        let id = s.enter("lab.sweep");
        s.exit(id);
        assert!(s.spans().is_empty());
    }
}
