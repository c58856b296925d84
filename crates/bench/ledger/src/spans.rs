//! In-memory spans for the traced run: a name, a start, an end and the
//! span that caused it, written out once the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

/// One closed (or still open) interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span recorder with an implicit stack: a span opened while another
/// is open is its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close matches an open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Spans open right now.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until only `depth` remain (after an early
    /// return left some open).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Runs `work` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = work();
        self.close();
        out
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        child_ns
    }

    /// Self time per span name, ns: each span's duration minus the
    /// part its children cover (children never overlap here: one
    /// thread records them in sequence). With `root`, only spans below
    /// the first top-level span of that name count.
    pub fn self_ns(&self, root: Option<&str>) -> BTreeMap<&'static str, u64> {
        let root_id = root.map(|name| {
            self.spans
                .iter()
                .position(|s| s.name == name && s.parent.is_none())
        });
        let below_root = |mut id: usize| match root_id {
            None => true,
            Some(None) => false,
            Some(Some(r)) => loop {
                match self.spans[id].parent {
                    Some(p) if p == r => return true,
                    Some(p) => id = p,
                    None => return false,
                }
            },
        };
        let child_ns = self.child_ns();
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if below_root(id) {
                *out.entry(span.name).or_insert(0) += (span.end_ns - span.start_ns) - child_ns[id];
            }
        }
        out
    }

    /// Total duration of every span named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as JSON: `{"spans": [{"name", "start_ns",
    /// "end_ns", "parent"}], "self_ns": {name: ns}}`.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let int = |n: u64| Value::Int(i128::from(n));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("start_ns".to_owned(), int(s.start_ns)),
                    ("end_ns".to_owned(), int(s.end_ns)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, |p| int(p as u64)),
                    ),
                ])
            })
            .collect();
        let self_ns = self
            .self_ns(None)
            .into_iter()
            .map(|(name, ns)| (name.to_owned(), int(ns)))
            .collect();
        let doc = Value::Object(vec![
            ("spans".to_owned(), Value::Array(spans)),
            ("self_ns".to_owned(), Value::Object(self_ns)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_string(&doc).expect("serialises"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let start = Instant::now();
        while start.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.open("root");
        spans.open("case");
        spans.time("layer", || spin(20));
        spin(10);
        spans.close();
        spans.close();
        spans.time("outside", || spin(1));
        let own = spans.self_ns(None);
        assert!(own["layer"] >= 20_000_000);
        assert!(own["case"] >= 10_000_000 && own["case"] < 20_000_000);
        assert!(own["root"] < 5_000_000);
        let total = spans.total_ns("root") + spans.total_ns("outside");
        assert_eq!(own.values().sum::<u64>(), total);
        let below = spans.self_ns(Some("root"));
        assert_eq!(below.keys().copied().collect::<Vec<_>>(), ["case", "layer"]);
        assert_eq!(below["layer"], own["layer"]);
        assert!(spans.self_ns(Some("missing")).is_empty());
        spans.open("a");
        spans.open("b");
        spans.close_to(0);
        assert_eq!(spans.depth(), 0);
    }
}
