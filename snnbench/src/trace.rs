//! In-memory span recording for the traced run. Each thread owns a
//! [`Tracer`]; spans are merged and written out once the run ends, so
//! recording costs a clock read and a push.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `item` of a span that works on no single image or request.
pub const NO_ITEM: u64 = u64::MAX;

/// One timed call: `parent` is the enclosing span's id (0 for a root) and
/// `item` the image or request it worked on.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started: its id is reserved so children can name it.
pub struct Open {
    pub id: u64,
    pub start_ns: u64,
}

/// A per-thread span recorder. Ids are `thread << 40 | counter`, so spans
/// from different threads never collide.
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Tracer {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self) -> Open {
        self.next += 1;
        Open {
            id: self.thread << 40 | self.next,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&mut self, open: Open, name: &'static str, parent: u64, item: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent,
            name,
            item,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Records a span whose start was taken earlier (e.g. by another
    /// callback of the same source).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        item: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.open().id;
        self.spans.push(Span {
            id,
            parent,
            name,
            item,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, item);
        out
    }

    /// Durations in ns of the spans called `name`.
    pub fn durations(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::ns)
    }
}

/// Writes every span as one JSON object per line.
pub fn write_spans<'a>(
    path: &Path,
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in tracers.into_iter().flat_map(|t| &t.spans) {
        let item = if s.item == NO_ITEM {
            "null".to_string()
        } else {
            s.item.to_string()
        };
        writeln!(
            file,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, item, s.start_ns, s.end_ns
        )?;
    }
    file.flush()
}
