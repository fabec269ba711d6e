//! Tracing for the `--trace 1` run: in-memory spans recorded around
//! every call the benchmark makes into a layer, plus a counting global
//! allocator. Both are off in the untraced run, which pays one branch
//! per span and one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// System allocator that counts allocations and requested bytes while
/// counting is switched on. The counters are statistics that publish
/// no other data, so relaxed atomics suffice.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn record(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is an atomic counter update, which neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Process-wide `(allocations, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// Process-wide counters read at layer boundaries: allocations (only
/// advancing while counting is on), worker-pool regions, and hot-path
/// scratch growths.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub pool_chunks: u64,
    pub pool_serial_regions: u64,
    pub scratch_grows: u64,
}

impl Counters {
    pub fn read() -> Self {
        static POOL: OnceLock<(telemetry::Counter, telemetry::Counter)> = OnceLock::new();
        let (chunks, serial) = POOL.get_or_init(|| {
            let global = telemetry::global();
            (
                global.counter("pool_chunks_total", "Chunks executed"),
                global.counter("pool_serial_regions_total", "Parallel regions run serially inline"),
            )
        });
        let (allocs, alloc_bytes) = alloc_counts();
        Counters {
            allocs,
            alloc_bytes,
            pool_chunks: chunks.get(),
            pool_serial_regions: serial.get(),
            scratch_grows: nn::workspace::grow_count(),
        }
    }

    /// Counts read around `f`.
    pub fn around<R>(f: impl FnOnce() -> R) -> (R, Counters) {
        let before = Counters::read();
        let out = f();
        (out, Counters::read().since(before))
    }

    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            allocs: self.allocs + other.allocs,
            alloc_bytes: self.alloc_bytes + other.alloc_bytes,
            pool_chunks: self.pool_chunks + other.pool_chunks,
            pool_serial_regions: self.pool_serial_regions + other.pool_serial_regions,
            scratch_grows: self.scratch_grows + other.scratch_grows,
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            pool_chunks: self.pool_chunks - earlier.pool_chunks,
            pool_serial_regions: self.pool_serial_regions - earlier.pool_serial_regions,
            scratch_grows: self.scratch_grows - earlier.scratch_grows,
        }
    }
}

/// One recorded call into a layer. The layer is the name's prefix up
/// to the first `.`.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Span recorder. Spans nest through [`Trace::scope`]; spans opened
/// while a request is current carry its id.
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    requests: u64,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            requests: 0,
        }
    }

    /// Switch span recording and allocation counting on or off.
    pub fn enable(&mut self, on: bool) {
        self.on = on;
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// Start a new request: spans opened until the next call share its id.
    pub fn begin_request(&mut self) {
        self.requests += 1;
        self.request = self.requests;
    }

    /// Leave request context (spans opened afterwards carry id 0).
    pub fn end_request(&mut self) {
        self.request = 0;
    }

    /// Run `f` inside a span called `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self time in seconds summed per layer: each span's duration
    /// minus the part covered by its direct children.
    pub fn self_seconds_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(&child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(*covered) as f64 * 1e-9;
            match layers.iter_mut().find(|(name, _)| *name == layer) {
                Some((_, total)) => *total += own,
                None => layers.push((layer, own)),
            }
        }
        layers
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
