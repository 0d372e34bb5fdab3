//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark around calls into the library's
//! public functions; nothing inside the library is instrumented. A span's
//! self time is its duration minus the durations of its children (children
//! of one span never overlap here: every caller is sequential).

use crate::measure::Timing;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    /// Identifier shared by the spans of one timed unit.
    req: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Host slowdown of each unit, by request id, so span durations are
    /// normalised like every other timing.
    slowdown: BTreeMap<u64, f64>,
}

/// The recorder. A disabled recorder records nothing and costs a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer state poisoned")
    }

    /// Opens a span; `None` when disabled.
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.epoch.elapsed().as_secs_f64();
        Some(self.record(name, start, f64::NAN, parent, req))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.epoch.elapsed().as_secs_f64();
            self.state().spans[id].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose bounds are known; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let mut st = self.state();
        st.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        st.spans.len() - 1
    }

    /// Bounds of a closed span.
    pub fn bounds(&self, id: usize) -> (f64, f64) {
        let st = self.state();
        (st.spans[id].start, st.spans[id].end)
    }

    /// Remembers the host slowdown measured around unit `req`.
    pub fn set_slowdown(&self, req: u64, slowdown: f64) {
        if self.enabled {
            self.state().slowdown.insert(req, slowdown);
        }
    }

    /// `(req, duration)` of every span named `name`: its self time when
    /// `self_only`, else its whole duration.
    fn durations(&self, name: &str, self_only: bool) -> Vec<(u64, f64)> {
        let st = self.state();
        let mut child = vec![0.0; st.spans.len()];
        if self_only {
            for s in &st.spans {
                if let Some(p) = s.parent {
                    child[p] += s.end - s.start;
                }
            }
        }
        st.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.req, s.end - s.start - child[i]))
            .collect()
    }

    /// Host slowdown recorded for unit `req`.
    pub fn slowdown_of(&self, req: u64) -> f64 {
        *self
            .state()
            .slowdown
            .get(&req)
            .expect("every traced unit records its slowdown")
    }

    /// Durations of the spans named `name`, one sample per span.
    pub fn timing(&self, name: &str, self_only: bool) -> Timing {
        let mut t = Timing::default();
        for (req, d) in self.durations(name, self_only) {
            t.push(d, self.slowdown_of(req));
        }
        t
    }

    /// Total duration of the spans named `name`, one sample per unit.
    pub fn timing_per_req(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut sums = BTreeMap::new();
        for (req, d) in self.durations(name, false) {
            *sums.entry(req).or_insert(0.0) += d;
        }
        sums
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.state();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}
