//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it (its
//! parent). Spans are kept in memory and only summarized when the run
//! ends. A layer's *self time* is its span's duration minus the part its
//! child spans cover. With recording off, [`Spans::span`] just calls the
//! closure, so untraced runs pay nothing for the instrumentation.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder; disabled recorders keep nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// For every root span named `root`, in order: its duration and the
    /// self time of each span name in its tree (the root included), in
    /// nanoseconds.
    pub fn trees(&self, root: &str) -> Vec<(u64, BTreeMap<&'static str, u64>)> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut root_of = vec![0usize; self.spans.len()];
        let mut trees: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
        // Parents always precede their children, so one forward pass
        // resolves every span's root.
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            let r = root_of[i];
            if self.spans[r].name != root {
                continue;
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children_ns[i]);
            *trees.entry(r).or_default().entry(s.name).or_default() += self_ns;
        }
        trees
            .into_iter()
            .map(|(r, by_name)| (self.spans[r].end_ns - self.spans[r].start_ns, by_name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.span("pass", |s| {
            s.span("simulate", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.span("verify", |_| {});
        });
        spans.span("setup", |_| {});
        let trees = spans.trees("pass");
        assert_eq!(trees.len(), 1);
        let (total, by_name) = &trees[0];
        let sum: u64 = by_name.values().sum();
        assert_eq!(sum, *total, "self times partition the root's duration");
        assert!(by_name["simulate"] >= 2_000_000);
        assert_eq!(spans.trees("setup").len(), 1);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("pass", |_| 7), 7);
        assert!(spans.trees("pass").is_empty());
    }
}
