//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's own
//! code: name, start, end, the span that caused it, and the request it
//! belongs to. With tracing off [`Spans::start`] returns `None` and
//! nothing is read or stored, so the untraced run pays one branch per
//! call site.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the causing span (0 = none). Ids are 1-based indices.
    pub parent: u32,
    pub req: u64,
}

pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, on: bool) -> Spans {
        Spans {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new(Instant::now(), false)
    }

    /// A recorder on the same clock (for another thread).
    pub fn sibling(&self) -> Spans {
        Spans::new(self.epoch, self.on)
    }

    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Open a span that will parent others; returns its id (0 when off).
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        match self.start() {
            Some(t) => self.push(name, t, t, parent, req),
            None => 0,
        }
    }

    /// Set the end of a span returned by [`Spans::open`].
    pub fn close(&mut self, id: u32) {
        if id != 0 {
            let end = self.epoch.elapsed().as_nanos() as u64;
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Close the span opened by `start`; returns its id (0 when off).
    pub fn end(
        &mut self,
        start: Option<Instant>,
        name: &'static str,
        parent: u32,
        req: u64,
    ) -> u32 {
        match start {
            Some(t) => {
                let end = Instant::now();
                self.push(name, t, end, parent, req)
            }
            None => 0,
        }
    }

    /// Record a span whose bounds were taken elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Append another recorder's spans, renumbering their parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// (count, total ns) of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns)))
    }

    /// Durations (ns) of the spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: id, name, start/end ns since the run's
    /// epoch, parent id, request id.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        Ok(())
    }
}
