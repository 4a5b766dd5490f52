//! Spans around the calls the benchmark makes into each layer.
//!
//! A [`Tracer`] belongs to one thread and keeps its spans in memory; the
//! run writes them out when it ends. A span has a start, an end, the
//! index of its parent span on the same thread, and the id of the request
//! it serves (shared by every span of that request). A disabled tracer
//! records nothing and reads no clock.

use adhoc_service::Endpoint;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// The layer call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// One whole benchmark operation (the root of a service request).
    Request,
    /// `Service::offer`.
    Offer,
    /// `Service::run_tick`.
    RunTick,
    /// One application handler call.
    App(Endpoint),
    /// One `Database::run` commit.
    StorageRun,
    /// `restart_from`: WAL replay into a fresh database.
    RestartFrom,
    /// An app's `recover_on_boot` fsck pass.
    RecoverOnBoot,
}

impl Layer {
    /// The span's name as written out.
    pub fn name(self) -> String {
        match self {
            Layer::Request => "request".into(),
            Layer::Offer => "service.offer".into(),
            Layer::RunTick => "service.run_tick".into(),
            Layer::App(e) => format!("apps.{}", e.label()),
            Layer::StorageRun => "storage.run".into(),
            Layer::RestartFrom => "storage.restart_from".into(),
            Layer::RecoverOnBoot => "apps.recover_on_boot".into(),
        }
    }
}

/// Index of a span in its tracer, or [`NO_SPAN`].
pub type SpanId = u32;
/// The parent of a root span, and the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call.
    pub layer: Layer,
    /// Request id, shared by all spans of one request.
    pub request: u64,
    /// Parent span on the same tracer, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// A recording tracer with room for `capacity` spans reserved up
    /// front, so recording does not allocate in the timed loop.
    pub fn on(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(capacity),
            enabled: true,
        }
    }

    /// Open a span now.
    #[inline]
    pub fn enter(&mut self, layer: Layer, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span now.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        layer: Layer,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(layer, request, parent);
        let r = f();
        self.exit(id);
        r
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Total and self time of one layer over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans of this layer.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their children cover.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean duration per span (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Per-layer total and self time over one thread's spans. Spans of one
/// thread nest without overlapping siblings, so a parent's covered time
/// is the sum of its children's durations.
pub fn layer_times(spans: &[Span]) -> HashMap<Layer, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            covered[s.parent as usize] += s.duration_ns();
        }
    }
    let mut out: HashMap<Layer, LayerTime> = HashMap::new();
    for (s, c) in spans.iter().zip(&covered) {
        let t = out.entry(s.layer).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(*c);
    }
    out
}

/// Write spans as tab-separated lines: thread, span index, name, request
/// id, parent index (`-` for a root), start and end in ns.
pub fn write_spans(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tspan\tname\trequest\tparent\tstart_ns\tend_ns")?;
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{thread}\t{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer.name(),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                layer: Layer::Request,
                request: 1,
                parent: NO_SPAN,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: Layer::Offer,
                request: 1,
                parent: 0,
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                layer: Layer::RunTick,
                request: 1,
                parent: 0,
                start_ns: 40,
                end_ns: 90,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t[&Layer::Request].self_ns, 30);
        assert_eq!(t[&Layer::Offer].self_ns, 20);
        assert_eq!(t[&Layer::RunTick].total_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter(Layer::Request, 0, NO_SPAN);
        t.exit(id);
        assert_eq!(id, NO_SPAN);
        assert!(t.take().is_empty());
    }
}
