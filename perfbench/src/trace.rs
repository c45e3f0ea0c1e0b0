//! In-memory span recorder for the traced run.
//!
//! Every public library call the benchmark makes is wrapped in a span
//! named after the module it enters (`core.pipeline`, `sketch.arena`,
//! ...). Spans carry a start, an end, their parent and the id of the job
//! repetition they belong to; they stay in memory until the run ends and
//! are then written out as one JSON document. With tracing off, `span`
//! is a plain call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: Cell<bool>,
    run: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            on: Cell::new(false),
            run: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switch recording on or off and tag the following spans with `run`.
    pub fn set(&self, on: bool, run: u32) {
        self.on.set(on);
        self.run.set(run);
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Run `f` inside a span called `name` (a plain call when off).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start: self.epoch.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: open.last().copied(),
                run: self.run.get(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let r = f();
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.borrow_mut()[id].end = end;
        self.open.borrow_mut().pop();
        r
    }

    /// Self time per span name within repetition `run`: each span's
    /// duration minus the part its children cover.
    pub fn self_times(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_time = vec![0f64; spans.len()];
        for s in spans.iter().filter(|s| s.run == run) {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            *out.entry(s.name).or_insert(0.0) += s.end - s.start - child_time[i];
        }
        out
    }

    /// Total duration of the spans called `name` within repetition `run`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start))
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.borrow().is_empty()
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}, \"run\": {}}}{sep}",
                s.name, s.start, s.end, s.run
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
