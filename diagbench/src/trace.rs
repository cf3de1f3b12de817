//! Spans around calls into the program's layers, process CPU and memory
//! from `/proc`, and the small statistics every workload shares.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer. Times are nanoseconds since the run's
/// epoch; `parent` indexes the enclosing span of the same recorder.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An in-memory span recorder. When off, every call is one branch, so the
/// untraced run times the program and nothing else.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// A span opened by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// A recorder that records nothing, for untimed reference work.
    pub fn fork_off(&self) -> Tracer {
        Tracer::new(false, self.epoch)
    }

    /// Tag the spans that follow with op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Append another recorder's spans (a client thread's), keeping their
    /// parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time (span duration minus the time its direct children cover)
    /// and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            let entry = out.entry(s.name).or_default();
            entry.0 += own as f64 / 1e6;
            entry.1 += 1;
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every architecture the kernel supports for `/proc`.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in seconds, from fields
/// 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces and parentheses; fields resume after
    // the last `)`, starting at field 3 (state).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size in MiB, from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

/// Wall and CPU time accumulated over the timed parts of a phase only, so
/// the untimed correctness checks between ops stay out of every metric.
#[derive(Default)]
pub struct Stopwatch {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Stopwatch {
    /// Run `f`, add its wall and CPU time, and return its wall time in ms.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        self.cpu_s += cpu_seconds() - cpu0;
        self.wall_s += wall;
        (out, wall * 1e3)
    }
}

/// The `q`-quantile of sorted `values`, interpolating linearly between
/// closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// FNV-1a over `bytes`: a dependency-free fingerprint of generated inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}
