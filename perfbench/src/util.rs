//! Shared plumbing: the seeded generator, percentiles, the metric sheet,
//! in-memory span tracing, and the gate's verifier shape.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xcv_core::VerifierConfig;
use xcv_functionals::Functional;
use xcv_serve::Policy;
use xcv_solver::SolveBudget;

/// SplitMix64: a tiny, fully deterministic generator. Every input a
/// workload builds is drawn from one of these, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes (the digest of the gate's marks table).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median cost in microseconds of one `f()` call, over `samples` timings of
/// `reps` back-to-back calls each (batched so the timer resolution does not
/// dominate sub-microsecond kernels).
pub fn per_call_us(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.push(t0.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    median(&t)
}

/// The `xcverify` gate's verifier shape (`Policy::Gate` at the CI gate's
/// 50 ms per box) with a per-box node budget in place of the wall budget
/// and no pair deadline. Marks and node counts are then a function of the
/// matrix alone, not of machine load.
pub fn gate_config(f: &dyn Functional) -> VerifierConfig {
    let mut config = Policy::Gate {
        budget_ms: 50,
        threshold: 0.3,
    }
    .verifier_config(f);
    config.solver.budget = SolveBudget::nodes(GATE_NODES_PER_BOX);
    config.pair_deadline_ms = None;
    config
}

/// Node budget per box for the gate matrix (see the README for how it was
/// chosen against the wall-budgeted gate).
pub const GATE_NODES_PER_BOX: u64 = 200;

/// Named metrics in insertion order, with units.
#[derive(Default)]
pub struct Sheet(Vec<(&'static str, f64, &'static str)>);

impl Sheet {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Everything one run reports: the correctness tally and the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Sheet,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Sheet::default(),
        }
    }

    /// Count one operation, failed or not.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// A failed check that is not one operation's (a digest, a node total).
    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: FAILED CHECK: {what}");
        self.failed += 1;
    }
}

/// One recorded span: a named interval, the span that caused it, and the
/// id of the request or pair it belongs to.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u64,
}

/// In-memory span recorder for traced runs; spans are written out once,
/// when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that has already ended; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            run,
        };
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span now (closed by [`Tracer::close`]); returns its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, run)
    }

    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span list poisoned")[id].end_ns = end;
    }

    /// Write every span as one JSON line; returns how many were written.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
