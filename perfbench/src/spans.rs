//! In-memory call-site spans, recorded by the benchmark around each call
//! it makes into a layer's public API and written out when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    /// See [`thread_index`].
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A small index unique to the calling thread. The executor spawns fresh
/// workers per sweep, so indices tell apart the workers of one sweep.
fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static INDEX: u32 = NEXT.fetch_add(1, Relaxed));
    INDEX.with(|i| *i)
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, returning its result.
    pub fn span<R>(&self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        self.span_id(name, parent, |_| f())
    }

    /// [`Self::span`] that also hands `f` the span's id, for children.
    pub fn span_id<R>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        let thread = thread_index();
        let id = {
            let mut spans = self.spans.lock().expect("span log");
            spans.push(Span {
                name,
                parent,
                thread,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() as u32 - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span log")[id as usize].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log"))
    }
}

/// Total duration of the spans named `name`, in milliseconds.
pub fn busy_ms(spans: &[Span], name: &str) -> f64 {
    named(spans, name).map(|s| s.ns() as f64).sum::<f64>() / 1e6
}

pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Durations (µs) of the spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    named(spans, name).map(|s| s.ns() as f64 / 1e3).collect()
}

/// Writes `spans` as tab-separated lines (`id parent thread name start_ns
/// end_ns`) under `.bench_out/` in the working directory.
pub fn write_out(file: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let f = std::fs::File::create(format!(".bench_out/{file}"))?;
    let mut w = std::io::BufWriter::new(f);
    writeln!(w, "id\tparent\tthread\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
