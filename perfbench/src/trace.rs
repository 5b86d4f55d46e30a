//! The span recorder. Each span records a name, start, end, parent and
//! optionally the process counters around it. Spans stay in memory and
//! are written as JSON when the run ends. A disabled recorder only runs
//! the wrapped closure, so the untimed path and the timed one share
//! their code.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::probe::{Counters, Scope};

/// Index of a recorded span.
pub type SpanId = usize;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    /// Seconds since the recorder started.
    pub start_s: f64,
    pub end_s: f64,
    /// Counter increase over the span, when it was read.
    pub counters: Option<Counters>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, reading the
    /// counters of `scope` around it when `scope` is given. `f` receives
    /// the new span's id, to parent its own spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        scope: Option<Scope>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("a span writer panicked");
            spans.push(Span {
                name: name.to_owned(),
                parent,
                start_s: 0.0,
                end_s: 0.0,
                counters: None,
            });
            spans.len() - 1
        };
        let before = scope.map(Counters::read);
        let start = self.origin.elapsed().as_secs_f64();
        let value = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        let counters = scope.zip(before).map(|(s, b)| Counters::read(s).since(&b));
        let mut spans = self.spans.lock().expect("a span writer panicked");
        let span = &mut spans[id];
        span.start_s = start;
        span.end_s = end;
        span.counters = counters;
        value
    }

    /// All spans recorded so far, in start order of their creation.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_s;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_s));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

/// The spans as a JSON array, one object per span with its self time.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "null".into(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {self_s}",
            s.name, s.start_s, s.end_s
        );
        if let Some(c) = &s.counters {
            let num = |v: Option<String>| v.unwrap_or_else(|| "null".into());
            let _ = write!(
                out,
                ", \"user_s\": {}, \"sys_s\": {}, \"rchar\": {}, \"wchar\": {}",
                num(c.user_s.map(|v| v.to_string())),
                num(c.sys_s.map(|v| v.to_string())),
                num(c.rchar.map(|v| v.to_string())),
                num(c.wchar.map(|v| v.to_string())),
            );
        }
        out.push('}');
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Aggregates over the spans that share one name.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    pub count: usize,
    pub wall_s: f64,
    pub user_s: Option<f64>,
    pub sys_s: Option<f64>,
    pub rchar: Option<u64>,
    pub wchar: Option<u64>,
}

impl Totals {
    pub fn of(spans: &[Span], name: &str) -> Totals {
        let mut t = Totals::default();
        for s in spans.iter().filter(|s| s.name == name) {
            t.count += 1;
            t.wall_s += s.duration_s();
            let c = s.counters.unwrap_or_default();
            t.user_s = add(t.user_s, c.user_s, t.count);
            t.sys_s = add(t.sys_s, c.sys_s, t.count);
            t.rchar = add(t.rchar, c.rchar, t.count);
            t.wchar = add(t.wchar, c.wchar, t.count);
        }
        t
    }

    /// Mean wall seconds per span (0 when none ran).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.wall_s / self.count as f64
        }
    }

    /// Mean of a summed counter per span; `None` when a probe failed,
    /// 0 when no span ran.
    pub fn mean_of(&self, total: Option<f64>) -> Option<f64> {
        if self.count == 0 {
            Some(0.0)
        } else {
            total.map(|t| t / self.count as f64)
        }
    }
}

/// Sums a counter across spans; one missing reading makes the sum
/// missing.
fn add<T: std::ops::Add<Output = T>>(acc: Option<T>, v: Option<T>, count: usize) -> Option<T> {
    if count == 1 {
        v
    } else {
        Some(acc? + v?)
    }
}
