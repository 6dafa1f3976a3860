//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer — never inside the library. The real call of a step is timed
//! in place; the layer replays behind it run afterwards on shadow state and
//! are linked to it through `parent`, so the tree is *logical*: a child's
//! interval lies after its parent's, and a layer's self time is its
//! duration minus the summed durations of its direct children.

use std::time::Instant;

use crate::json::Json;

/// One recorded span. `parent` indexes into the tracer's span list; spans
/// of one driver step share `step`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub step: u32,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-6
    }
}

/// Span store: appended to during the run, summarised and written at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose end is set later by [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, step: u32) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            step,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` as one span and returns its id with `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        step: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let id = self.open(name, parent, step);
        let result = f();
        self.close(id);
        (id, result)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Self times (ms) of every span called `name` that has at least one
    /// child: duration minus the direct children's durations. Negative when
    /// the replayed children cost more than the parent did (they run later,
    /// on shadow state with colder caches) — a closure line must show that,
    /// not hide it. Spans without children are skipped: on steps without
    /// layer replays the whole duration would be misread as self time.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent as usize] += span.duration_ms();
                has_child[parent as usize] = true;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && has_child[*i])
            .map(|(i, s)| s.duration_ms() - child_ms[i])
            .collect()
    }

    /// The whole store as `{name, start_ns, end_ns, parent, step}` rows.
    pub fn to_json(&self) -> Json {
        Json::seq(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::int(s.start_ns)),
                        ("end_ns", Json::int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::null(), |p| Json::int(u64::from(p))),
                        ),
                        ("step", Json::int(u64::from(s.step))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        // frame 10 ms → interpolate 6 ms → (kdtree 1 ms, knn 3 ms); refine 2 ms.
        t.spans = vec![
            fixed("pipeline.frame", 0, 10_000_000, None),
            fixed("interpolate.frame", 20_000_000, 26_000_000, Some(0)),
            fixed("kdtree.build", 30_000_000, 31_000_000, Some(1)),
            fixed("knn.self_join", 40_000_000, 43_000_000, Some(1)),
            fixed("refine.batch", 50_000_000, 52_000_000, Some(0)),
        ];
        assert_eq!(t.self_times_ms("pipeline.frame"), vec![2.0]);
        assert_eq!(t.self_times_ms("interpolate.frame"), vec![2.0]);
        // Grandchildren are not subtracted twice; leaves have no self row.
        assert!(t.self_times_ms("kdtree.build").is_empty());
        assert_eq!(t.durations_ms("knn.self_join"), vec![3.0]);
    }

    #[test]
    fn self_time_keeps_its_sign_and_skips_childless_spans() {
        let mut t = Tracer::new();
        t.spans = vec![
            fixed("client.frame", 0, 1_000_000, None),
            fixed("pipeline.frame", 0, 3_000_000, Some(0)),
            fixed("client.frame", 5_000_000, 9_000_000, None),
        ];
        // A replay slower than the real call reads negative; the second
        // client.frame has no replay behind it and contributes nothing.
        assert_eq!(t.self_times_ms("client.frame"), vec![-2.0]);
    }

    #[test]
    fn open_close_and_span_nest_by_parent_id() {
        let mut t = Tracer::new();
        let step = t.open("step", None, 3);
        let (real, value) = t.span("client.frame", Some(step), 3, || 41 + 1);
        t.close(step);
        assert_eq!(value, 42);
        assert_eq!(t.spans()[real as usize].parent, Some(step));
        assert_eq!(t.spans()[real as usize].step, 3);
        assert!(t.spans()[step as usize].end_ns >= t.spans()[real as usize].end_ns);
    }
}
