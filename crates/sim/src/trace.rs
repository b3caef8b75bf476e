//! Structured decision-trace observability.
//!
//! Every tiering decision the runtimes make — Tier-1 hits and misses,
//! evictions with their predicted and actual destination, Tier-2
//! placements and wasteful lookups, SSD submissions with instantaneous
//! queue depth, PCIe batch transfers — can be recorded as a typed
//! [`TraceEvent`] stamped with the virtual clock ([`Time`]) and the
//! runtime's global virtual-timestamp counter (`vt`).
//!
//! The collector is a [`TraceSink`]: a cheaply cloneable handle to a
//! bounded ring buffer. A disabled sink (the default) stores nothing and
//! makes [`TraceSink::emit`] a single branch on `None`, so instrumented
//! hot paths cost nothing when tracing is off. All components of one
//! runtime share clones of the same sink, which keeps the record stream
//! globally ordered exactly as decisions were made. The ring is one
//! contiguous `VecDeque`, so [`TraceSink::drain`] hands its allocation
//! over as the returned `Vec` instead of copying the records out.
//!
//! Records export to line-oriented JSON ([`to_jsonl`]) and CSV
//! ([`to_csv`]). Both writers render each event from one per-variant
//! field list, over integers and fixed strings only, so identical
//! configurations and seeds produce byte-identical files — the property
//! the golden-trace regression tests rely on. A long trace is rendered
//! on every core: one pass counts each part's bytes, one buffer of
//! exactly the total is cut into a slice per part, and each part renders
//! into its own slice through the same code the count ran. The bytes do
//! not depend on the part count.
//!
//! # Examples
//!
//! ```
//! use gmt_sim::trace::{TraceEvent, TraceSink, TierTag};
//! use gmt_sim::Time;
//!
//! let sink = TraceSink::bounded(16);
//! sink.set_vt(1);
//! sink.emit(Time::from_nanos(130), TraceEvent::Tier1Hit { page: 7 });
//! sink.emit(
//!     Time::from_nanos(260),
//!     TraceEvent::Tier1Miss { page: 9, resident: TierTag::Ssd },
//! );
//! let jsonl = gmt_sim::trace::to_jsonl(&sink.snapshot());
//! assert!(jsonl.starts_with(r#"{"t":130,"vt":1,"ev":"t1_hit","page":7}"#));
//! ```

use std::collections::VecDeque;
use std::fmt;
#[expect(
    clippy::disallowed_types,
    reason = "the shared trace ring; see `TraceSink`"
)]
use std::{cell::RefCell, rc::Rc};

use crate::parts::{even_ranges, in_parts, part_count};
use crate::Time;

/// The tier a page lives in (or moves to), as named by the paper:
/// Tier-1 is GPU memory, Tier-2 host memory, Tier-3 the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierTag {
    /// Tier-1: GPU HBM.
    Gpu,
    /// Tier-2: host DRAM.
    Host,
    /// Tier-3: NVMe SSD.
    Ssd,
}

impl TierTag {
    /// Short stable label used by the exporters (`t1`/`t2`/`t3`).
    pub fn label(self) -> &'static str {
        match self {
            TierTag::Gpu => "t1",
            TierTag::Host => "t2",
            TierTag::Ssd => "t3",
        }
    }
}

impl fmt::Display for TierTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Service-level objective class of a serving tenant, ordered from most
/// to least latency-sensitive. The front-end stamps every admission
/// decision and completion with the class so per-class latency
/// distributions can be rebuilt from the trace alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SloClass {
    /// User-facing requests with a tight p99 target.
    Interactive,
    /// Ordinary online traffic.
    Standard,
    /// Throughput-oriented background work; absorbs deferrals first.
    Batch,
}

impl SloClass {
    /// Every class, most latency-sensitive first.
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];

    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// The class's target p99 request latency in nanoseconds.
    ///
    /// Calibrated against the modeled hierarchy: an Interactive request
    /// that stays in Tier-1/Tier-2 completes in tens of microseconds, so
    /// 2 ms absorbs batching delay but not sustained SSD queueing;
    /// Batch tolerates two orders of magnitude more.
    pub fn target_p99_ns(self) -> u64 {
        match self {
            SloClass::Interactive => 2_000_000,
            SloClass::Standard => 20_000_000,
            SloClass::Batch => 200_000_000,
        }
    }
}

impl fmt::Display for SloClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why the front-end batcher flushed a pending per-tenant batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// The batch reached the Fig. 6 crossover size.
    Size,
    /// The class's max-delay timer expired first.
    Timer,
    /// End-of-run drain of whatever was still pending.
    Drain,
}

impl FlushReason {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Timer => "timer",
            FlushReason::Drain => "drain",
        }
    }
}

impl fmt::Display for FlushReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Direction of a PCIe batch relative to the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// GPU → host (evictions, write-backs).
    ToHost,
    /// Host → GPU (fills).
    ToGpu,
}

impl LinkDir {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            LinkDir::ToHost => "to_host",
            LinkDir::ToGpu => "to_gpu",
        }
    }
}

/// One traced decision or hardware interaction.
///
/// Pages are raw `u64` frame numbers (the numeric value of the owning
/// crate's `PageId`): this crate sits below the memory model in the
/// dependency graph, so it cannot name that type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The accessed page was already resident in Tier-1.
    Tier1Hit {
        /// Accessed page.
        page: u64,
    },
    /// The accessed page missed Tier-1; `resident` is where the lookup
    /// ultimately found it.
    Tier1Miss {
        /// Accessed page.
        page: u64,
        /// Tier the page was fetched from (`Host` or `Ssd`).
        resident: TierTag,
    },
    /// A page was installed into Tier-1.
    Tier1Fill {
        /// Filled page.
        page: u64,
        /// Tier the data came from.
        source: TierTag,
        /// Virtual instant the fill's data transfer completes, in ns.
        ready_ns: u64,
    },
    /// A Tier-1 victim was selected for eviction. `target` is the
    /// placement the policy *intended*; the outcome is recorded
    /// separately ([`TraceEvent::Tier2Place`], [`TraceEvent::EvictDiscard`],
    /// [`TraceEvent::SsdWriteBack`]) because a full Tier-2 can overrule
    /// the intent.
    Eviction {
        /// Evicted page.
        page: u64,
        /// The reuse predictor's forecast tier, when a predictor ran.
        predicted: Option<TierTag>,
        /// Tier the policy chose to send the victim to.
        target: TierTag,
        /// Whether the victim held dirty data.
        dirty: bool,
    },
    /// An evicted page actually entered Tier-2.
    Tier2Place {
        /// Placed page.
        page: u64,
        /// Whether the page carried dirty data into Tier-2.
        dirty: bool,
    },
    /// Tier-2 spilled a resident page to make room (FIFO/clock/random
    /// insertion modes).
    Tier2Spill {
        /// Spilled page.
        page: u64,
        /// Whether the spilled page had to be written to the SSD.
        dirty: bool,
    },
    /// A clean Tier-1 victim was dropped without any data movement.
    EvictDiscard {
        /// Discarded page.
        page: u64,
    },
    /// A dirty Tier-1 victim was written straight back to the SSD.
    SsdWriteBack {
        /// Written-back page.
        page: u64,
    },
    /// A Tier-1 miss was served from Tier-2.
    Tier2Hit {
        /// Hit page.
        page: u64,
    },
    /// A Tier-1 miss probed Tier-2 and found nothing (paper §2.1's
    /// "wasteful lookup").
    WastefulLookup {
        /// Probed page.
        page: u64,
    },
    /// A past tier prediction was graded on the page's next touch.
    PredictionGraded {
        /// Re-touched page.
        page: u64,
        /// Tier the predictor had forecast.
        predicted: TierTag,
        /// Tier that would have been optimal in hindsight.
        actual: TierTag,
        /// Whether the forecast matched.
        correct: bool,
    },
    /// A page fetch was issued by the sequential prefetcher, not demand.
    Prefetch {
        /// Prefetched page.
        page: u64,
    },
    /// A command entered an SSD device.
    SsdSubmit {
        /// Index of the device within its array.
        device: u32,
        /// `true` for writes, `false` for reads.
        write: bool,
        /// Payload size in bytes.
        bytes: u64,
        /// Commands in flight on this device *including* this one.
        queue_depth: u32,
    },
    /// A previously submitted SSD command finished.
    SsdComplete {
        /// Index of the device within its array.
        device: u32,
        /// `true` for writes, `false` for reads.
        write: bool,
        /// Commands still in flight on this device after this completion.
        queue_depth: u32,
    },
    /// A command was pushed onto an NVMe submission ring.
    RingSubmit {
        /// Command identifier assigned by the ring.
        cid: u16,
        /// `true` for writes, `false` for reads.
        write: bool,
        /// Ring occupancy *including* this command.
        queue_depth: u32,
    },
    /// A completion was reaped from an NVMe completion ring.
    RingComplete {
        /// Command identifier being completed.
        cid: u16,
        /// Ring occupancy after reaping this completion.
        queue_depth: u32,
    },
    /// A batch of pages crossed the PCIe link.
    PcieBatch {
        /// Transfer direction.
        direction: LinkDir,
        /// Number of 4 KiB pages in the batch.
        pages: u32,
        /// Total payload bytes.
        bytes: u64,
        /// `true` when moved by zero-copy mapped stores rather than DMA.
        zero_copy: bool,
        /// End-to-end batch latency in ns.
        latency_ns: u64,
    },
    /// A warp-level access entered the runtime.
    WarpAccess {
        /// First page of the access.
        page: u64,
        /// `true` for stores.
        write: bool,
    },
    /// The front-end admitted a decoded request into the batcher.
    FrontAdmit {
        /// Originating connection.
        conn: u32,
        /// SLO class of the owning tenant.
        class: SloClass,
        /// Requests still waiting in the defer queue after this
        /// admission (non-zero only while draining a backlog).
        queued: u32,
    },
    /// Backpressure queued a request instead of admitting it.
    FrontDefer {
        /// Originating connection.
        conn: u32,
        /// SLO class of the owning tenant.
        class: SloClass,
        /// Defer-queue occupancy *including* this request.
        queued: u32,
    },
    /// Backpressure dropped a request outright.
    FrontShed {
        /// Originating connection.
        conn: u32,
        /// SLO class of the owning tenant.
        class: SloClass,
        /// Defer-queue occupancy at the moment of the drop.
        queued: u32,
    },
    /// The batcher flushed a per-tenant batch into the hierarchy.
    FrontFlush {
        /// SLO class of the flushed tenant.
        class: SloClass,
        /// What triggered the flush.
        reason: FlushReason,
        /// Distinct pages in the flushed batch.
        pages: u32,
        /// Total payload bytes.
        bytes: u64,
        /// Fig. 6 engine choice for this batch size: `true` when the
        /// link model would move it by zero-copy mapped stores.
        zero_copy: bool,
    },
    /// A front-end request completed; latency is arrival → data ready.
    FrontComplete {
        /// Originating connection.
        conn: u32,
        /// SLO class of the owning tenant.
        class: SloClass,
        /// End-to-end request latency in ns.
        latency_ns: u64,
    },
}

impl TraceEvent {
    /// The exporters' stable event name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Tier1Hit { .. } => "t1_hit",
            TraceEvent::Tier1Miss { .. } => "t1_miss",
            TraceEvent::Tier1Fill { .. } => "t1_fill",
            TraceEvent::Eviction { .. } => "evict",
            TraceEvent::Tier2Place { .. } => "t2_place",
            TraceEvent::Tier2Spill { .. } => "t2_spill",
            TraceEvent::EvictDiscard { .. } => "evict_discard",
            TraceEvent::SsdWriteBack { .. } => "ssd_writeback",
            TraceEvent::Tier2Hit { .. } => "t2_hit",
            TraceEvent::WastefulLookup { .. } => "wasteful_lookup",
            TraceEvent::PredictionGraded { .. } => "prediction",
            TraceEvent::Prefetch { .. } => "prefetch",
            TraceEvent::SsdSubmit { .. } => "ssd_submit",
            TraceEvent::SsdComplete { .. } => "ssd_complete",
            TraceEvent::RingSubmit { .. } => "ring_submit",
            TraceEvent::RingComplete { .. } => "ring_complete",
            TraceEvent::PcieBatch { .. } => "pcie_batch",
            TraceEvent::WarpAccess { .. } => "warp_access",
            TraceEvent::FrontAdmit { .. } => "front_admit",
            TraceEvent::FrontDefer { .. } => "front_defer",
            TraceEvent::FrontShed { .. } => "front_shed",
            TraceEvent::FrontFlush { .. } => "front_flush",
            TraceEvent::FrontComplete { .. } => "front_complete",
        }
    }
}

/// One trace record: an event plus its two timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual instant the event was recorded.
    pub at: Time,
    /// The runtime's global virtual-timestamp counter (one tick per
    /// coalesced memory transaction) at recording time.
    pub vt: u64,
    /// The tenant on whose behalf the event happened, when the recording
    /// runtime serves more than one workload stream (`gmt-serve`).
    /// Single-tenant runtimes never set it, and the exporters omit it
    /// when absent, so their output is unchanged from the pre-tenant
    /// schema.
    pub tenant: Option<u32>,
    /// The event itself.
    pub event: TraceEvent,
}

/// An exported field's value.
#[derive(Clone, Copy)]
enum Value {
    Int(u64),
    Bool(bool),
    /// A fixed label: quoted in JSON, bare in CSV.
    Label(&'static str),
    /// No value: `null` in JSON, an empty CSV cell.
    Null,
}

impl Value {
    /// Writes the value as a CSV cell.
    fn write_csv(self, out: &mut impl Out) {
        match self {
            Value::Int(n) => out.int(n),
            Value::Bool(b) => out.str(if b { "true" } else { "false" }),
            Value::Label(l) => out.str(l),
            Value::Null => {}
        }
    }

    /// Writes the value as JSON; integers and booleans read as in CSV.
    fn write_json(self, out: &mut impl Out) {
        match self {
            Value::Label(l) => {
                out.str("\"");
                out.str(l);
                out.str("\"");
            }
            Value::Null => out.str("null"),
            Value::Int(_) | Value::Bool(_) => self.write_csv(out),
        }
    }
}

/// Where a record renders to. The exporters run every record through the
/// same renderer twice: into a [`Count`] to size the output, then into a
/// [`Cursor`] over exactly that many bytes, so the two passes cannot
/// disagree on a length.
trait Out {
    /// Appends `s`.
    fn str(&mut self, s: &str);
    /// Appends `n` in decimal.
    fn int(&mut self, n: u64);
}

/// Counts the bytes a render would write.
struct Count(usize);

impl Out for Count {
    fn str(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn int(&mut self, n: u64) {
        self.0 += decimal_len(n);
    }
}

/// Writes into a slice sized by a [`Count`] pass, front to back.
struct Cursor<'a>(&'a mut [u8]);

impl<'a> Cursor<'a> {
    /// The next `len` bytes of the slice, consumed.
    fn take(&mut self, len: usize) -> &'a mut [u8] {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(len);
        self.0 = tail;
        head
    }
}

/// `"00"` to `"99"`: an integer is rendered two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

impl Out for Cursor<'_> {
    fn str(&mut self, s: &str) {
        self.take(s.len()).copy_from_slice(s.as_bytes());
    }

    fn int(&mut self, mut n: u64) {
        // The length is known up front, so the digits go straight into
        // place, last pair first.
        let digits = self.take(decimal_len(n));
        let mut end = digits.len();
        while n >= 10 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            digits[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            end -= 2;
        }
        if end == 1 {
            digits[0] = b'0' + n as u8;
        }
    }
}

/// Decimal digits of `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// The event-specific [`CSV_HEADER`] columns, in header order.
#[derive(Clone, Copy)]
enum Col {
    Id,
    Tier,
    Tier2,
    Flag,
    Depth,
    Bytes,
    Latency,
}

/// One exported field: its JSON key, its CSV column and its value.
#[derive(Clone, Copy)]
struct Field(&'static str, Col, Value);

impl TraceEvent {
    /// Calls `render` with the event's exported fields, in JSON key
    /// order. This is the only place a variant's export schema is
    /// declared; [`to_jsonl`] and [`to_csv`] both render from it.
    fn with_fields(&self, render: impl FnOnce(&[Field])) {
        use Col::*;
        use Value::{Bool, Int, Label};
        match *self {
            TraceEvent::Tier1Hit { page }
            | TraceEvent::EvictDiscard { page }
            | TraceEvent::SsdWriteBack { page }
            | TraceEvent::Tier2Hit { page }
            | TraceEvent::WastefulLookup { page }
            | TraceEvent::Prefetch { page } => render(&[Field("page", Id, Int(page))]),
            TraceEvent::Tier1Miss { page, resident } => render(&[
                Field("page", Id, Int(page)),
                Field("resident", Tier, Label(resident.label())),
            ]),
            TraceEvent::Tier1Fill {
                page,
                source,
                ready_ns,
            } => render(&[
                Field("page", Id, Int(page)),
                Field("source", Tier, Label(source.label())),
                Field("ready", Latency, Int(ready_ns)),
            ]),
            TraceEvent::Eviction {
                page,
                predicted,
                target,
                dirty,
            } => render(&[
                Field("page", Id, Int(page)),
                Field(
                    "predicted",
                    Tier2,
                    predicted.map_or(Value::Null, |p| Label(p.label())),
                ),
                Field("target", Tier, Label(target.label())),
                Field("dirty", Flag, Bool(dirty)),
            ]),
            TraceEvent::Tier2Place { page, dirty } | TraceEvent::Tier2Spill { page, dirty } => {
                render(&[
                    Field("page", Id, Int(page)),
                    Field("dirty", Flag, Bool(dirty)),
                ])
            }
            TraceEvent::PredictionGraded {
                page,
                predicted,
                actual,
                correct,
            } => render(&[
                Field("page", Id, Int(page)),
                Field("predicted", Tier2, Label(predicted.label())),
                Field("actual", Tier, Label(actual.label())),
                Field("correct", Flag, Bool(correct)),
            ]),
            TraceEvent::SsdSubmit {
                device,
                write,
                bytes,
                queue_depth,
            } => render(&[
                Field("device", Id, Int(device.into())),
                Field("write", Flag, Bool(write)),
                Field("bytes", Bytes, Int(bytes)),
                Field("depth", Depth, Int(queue_depth.into())),
            ]),
            TraceEvent::SsdComplete {
                device,
                write,
                queue_depth,
            } => render(&[
                Field("device", Id, Int(device.into())),
                Field("write", Flag, Bool(write)),
                Field("depth", Depth, Int(queue_depth.into())),
            ]),
            TraceEvent::RingSubmit {
                cid,
                write,
                queue_depth,
            } => render(&[
                Field("cid", Id, Int(cid.into())),
                Field("write", Flag, Bool(write)),
                Field("depth", Depth, Int(queue_depth.into())),
            ]),
            TraceEvent::RingComplete { cid, queue_depth } => render(&[
                Field("cid", Id, Int(cid.into())),
                Field("depth", Depth, Int(queue_depth.into())),
            ]),
            TraceEvent::PcieBatch {
                direction,
                pages,
                bytes,
                zero_copy,
                latency_ns,
            } => render(&[
                Field("dir", Tier, Label(direction.label())),
                Field("pages", Id, Int(pages.into())),
                Field("bytes", Bytes, Int(bytes)),
                Field("zero_copy", Flag, Bool(zero_copy)),
                Field("latency", Latency, Int(latency_ns)),
            ]),
            TraceEvent::WarpAccess { page, write } => render(&[
                Field("page", Id, Int(page)),
                Field("write", Flag, Bool(write)),
            ]),
            TraceEvent::FrontAdmit {
                conn,
                class,
                queued,
            }
            | TraceEvent::FrontDefer {
                conn,
                class,
                queued,
            }
            | TraceEvent::FrontShed {
                conn,
                class,
                queued,
            } => render(&[
                Field("conn", Id, Int(conn.into())),
                Field("class", Tier, Label(class.label())),
                Field("queued", Depth, Int(queued.into())),
            ]),
            TraceEvent::FrontFlush {
                class,
                reason,
                pages,
                bytes,
                zero_copy,
            } => render(&[
                Field("class", Tier, Label(class.label())),
                Field("reason", Tier2, Label(reason.label())),
                Field("pages", Id, Int(pages.into())),
                Field("bytes", Bytes, Int(bytes)),
                Field("zero_copy", Flag, Bool(zero_copy)),
            ]),
            TraceEvent::FrontComplete {
                conn,
                class,
                latency_ns,
            } => render(&[
                Field("conn", Id, Int(conn.into())),
                Field("class", Tier, Label(class.label())),
                Field("latency", Latency, Int(latency_ns)),
            ]),
        }
    }
}

impl TraceRecord {
    /// Writes the record as one line of JSON, newline included.
    fn write_json(&self, out: &mut impl Out) {
        out.str("{\"t\":");
        out.int(self.at.as_nanos());
        out.str(",\"vt\":");
        out.int(self.vt);
        if let Some(tenant) = self.tenant {
            out.str(",\"tenant\":");
            out.int(tenant.into());
        }
        out.str(",\"ev\":\"");
        out.str(self.event.name());
        out.str("\"");
        self.event.with_fields(|fields| {
            for &Field(key, _, value) in fields {
                out.str(",\"");
                out.str(key);
                out.str("\":");
                value.write_json(out);
            }
        });
        out.str("}\n");
    }

    /// Writes the record as one CSV row, newline included.
    fn write_csv(&self, out: &mut impl Out) {
        out.int(self.at.as_nanos());
        out.str(",");
        out.int(self.vt);
        out.str(",");
        out.str(self.event.name());
        // One cell per `Col`, in header order.
        let mut cells = [Value::Null; 7];
        self.event.with_fields(|fields| {
            for &Field(_, col, value) in fields {
                cells[col as usize] = value;
            }
        });
        for cell in cells {
            out.str(",");
            cell.write_csv(out);
        }
        out.str(",");
        if let Some(tenant) = self.tenant {
            out.int(tenant.into());
        }
        out.str("\n");
    }
}

/// An export format: what precedes the records, and one record's bytes.
#[derive(Clone, Copy)]
enum Format {
    Jsonl,
    Csv,
}

impl Format {
    fn write_header(self, out: &mut impl Out) {
        if let Format::Csv = self {
            out.str(CSV_HEADER);
            out.str("\n");
        }
    }

    fn write_records(self, records: &[TraceRecord], out: &mut impl Out) {
        match self {
            Format::Jsonl => records.iter().for_each(|r| r.write_json(out)),
            Format::Csv => records.iter().for_each(|r| r.write_csv(out)),
        }
    }
}

/// Fewest records worth a thread of their own when exporting: about
/// 6 MB of JSONL, several milliseconds of rendering against tens of
/// microseconds to start a thread.
const MIN_PART_RECORDS: usize = 1 << 16;

/// Renders `records` in `parts` contiguous runs, each on its own thread,
/// into one buffer of exactly the output's size. A first pass counts
/// each run's bytes, which fixes where every run starts; the second
/// renders each run into its own slice of the buffer. The part count
/// never changes the output.
fn render(records: &[TraceRecord], format: Format, parts: usize) -> String {
    let ranges = even_ranges(records.len(), parts);
    let lens = in_parts(ranges.iter().cloned(), |range| {
        let mut count = Count(0);
        format.write_records(&records[range], &mut count);
        count.0
    });
    let mut header = Count(0);
    format.write_header(&mut header);
    let mut buf = vec![0; header.0 + lens.iter().sum::<usize>()];
    let mut out = Cursor(&mut buf);
    format.write_header(&mut out);
    let slices: Vec<_> = ranges
        .into_iter()
        .zip(lens)
        .map(|(range, len)| (range, Cursor(out.take(len))))
        .collect();
    in_parts(slices, |(range, mut out)| {
        format.write_records(&records[range], &mut out)
    });
    // Every byte rendered is ASCII, so the conversion never falls back.
    String::from_utf8(buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// [`render`] split across the cores, in parts of at least
/// [`MIN_PART_RECORDS`].
fn render_on_every_core(records: &[TraceRecord], format: Format) -> String {
    render(records, format, part_count(records.len(), MIN_PART_RECORDS))
}

/// Renders records as line-delimited JSON, one record per line.
///
/// Field order is fixed and all values are integers, booleans or fixed
/// strings, so the output is byte-identical for identical record
/// sequences, across runs, platforms and core counts. It ends with a
/// newline when `records` is non-empty.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    render_on_every_core(records, Format::Jsonl)
}

/// CSV column header matching [`to_csv`]'s rows.
///
/// `id` is the event's primary identifier (page, device index, ring
/// command id, connection id, or batch page count for `pcie_batch` and
/// `front_flush`); `tier`/`tier2` carry the event's tier labels (target
/// and predicted, respectively, for evictions; actual and predicted for
/// prediction grades; link direction for PCIe batches; SLO class and
/// flush reason for front-end events); `flag` is the event's boolean
/// (dirty, write, zero-copy or correct); `depth`, `bytes` and
/// `latency_ns` are filled where the event defines them (`depth` is the
/// defer-queue occupancy for front-end admission events, `latency_ns`
/// the ready instant for fills); `tenant` is the serving tenant id,
/// empty for single-tenant runtimes.
pub const CSV_HEADER: &str = "t_ns,vt,event,id,tier,tier2,flag,depth,bytes,latency_ns,tenant";

/// Renders records as CSV with the [`CSV_HEADER`] columns.
///
/// Absent fields are left empty. Like [`to_jsonl`], the output is
/// byte-stable for identical record sequences.
pub fn to_csv(records: &[TraceRecord]) -> String {
    render_on_every_core(records, Format::Csv)
}

/// The records of a [`TraceSink`]: the most recent ones, oldest first.
struct Ring {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    vt: u64,
    tenant: Option<u32>,
    last_at: Time,
}

/// A cheaply cloneable handle to a bounded trace ring buffer.
///
/// The default sink is *disabled*: it holds no buffer, every [`emit`]
/// returns after one branch, and cloning it is free. An enabled sink
/// ([`TraceSink::bounded`]) shares one ring between all of its clones,
/// so every component of a runtime appends to the same globally ordered
/// stream. When the ring is full the *oldest* record is dropped and
/// counted in [`dropped`].
///
/// [`emit`]: TraceSink::emit
/// [`dropped`]: TraceSink::dropped
#[derive(Clone, Default)]
pub struct TraceSink {
    #[expect(
        clippy::disallowed_types,
        reason = "the one sanctioned shared-mutable cell: every component appends to one \
                  ordered ring; the deferred sharded DES (ROADMAP, Deferred) would replace \
                  it with per-shard sinks"
    )]
    inner: Option<Rc<RefCell<Ring>>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("TraceSink(disabled)"),
            Some(ring) => {
                let ring = ring.borrow();
                write!(
                    f,
                    "TraceSink(len={}, cap={}, dropped={})",
                    ring.records.len(),
                    ring.capacity,
                    ring.dropped
                )
            }
        }
    }
}

impl TraceSink {
    /// A sink that records nothing (the default).
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// A sink retaining the most recent `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[expect(clippy::disallowed_types, reason = "builds the shared trace ring")]
    pub fn bounded(capacity: usize) -> TraceSink {
        assert!(capacity > 0, "trace ring capacity must be non-zero");
        TraceSink {
            inner: Some(Rc::new(RefCell::new(Ring {
                records: VecDeque::new(),
                capacity,
                dropped: 0,
                vt: 0,
                tenant: None,
                last_at: Time::ZERO,
            }))),
        }
    }

    /// Whether this sink records events.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Updates the virtual-timestamp counter stamped onto subsequent
    /// records. The owning runtime calls this once per coalesced memory
    /// transaction.
    #[inline]
    pub fn set_vt(&self, vt: u64) {
        if let Some(ring) = &self.inner {
            ring.borrow_mut().vt = vt;
        }
    }

    /// The most recently set virtual timestamp (0 when disabled).
    pub fn vt(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.borrow().vt)
    }

    /// Sets the tenant id stamped onto subsequent records, or clears it
    /// with `None`. Multi-tenant runtimes call this when they switch to
    /// servicing a different workload stream; single-tenant runtimes
    /// never call it, keeping their exported traces on the pre-tenant
    /// schema byte-for-byte.
    pub fn set_tenant(&self, tenant: Option<u32>) {
        if let Some(ring) = &self.inner {
            ring.borrow_mut().tenant = tenant;
        }
    }

    /// The most recently set tenant id (`None` when disabled or unset).
    pub fn tenant(&self) -> Option<u32> {
        self.inner.as_ref().and_then(|r| r.borrow().tenant)
    }

    /// Records `event` at instant `at`, dropping the oldest record if
    /// the ring is full. No-op on a disabled sink.
    ///
    /// The stream is a *linearization*: components model parallel
    /// hardware, so a causally-later event can carry an earlier submit
    /// instant (e.g. an SSD fetch issued while a PCIe batch is already in
    /// flight). The sink clamps each record's clock to be monotone, which
    /// keeps the exported trace time-ordered while preserving decision
    /// order exactly.
    #[inline]
    pub fn emit(&self, at: Time, event: TraceEvent) {
        let Some(ring) = &self.inner else { return };
        let mut ring = ring.borrow_mut();
        if ring.records.len() == ring.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        let at = at.max(ring.last_at);
        ring.last_at = at;
        let vt = ring.vt;
        let tenant = ring.tenant;
        ring.records.push_back(TraceRecord {
            at,
            vt,
            tenant,
            event,
        });
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.borrow().records.len())
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records lost to ring overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.borrow().dropped)
    }

    /// Removes and returns all buffered records, oldest first.
    ///
    /// The records are handed over in the ring's own allocation, not
    /// copied: when the ring has never overflowed they already sit in
    /// order at its start, and after an overflow they are rotated into
    /// order in place.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |r| {
            Vec::from(std::mem::take(&mut r.borrow_mut().records))
        })
    }

    /// Calls `f` on every buffered record, oldest first, without
    /// copying or clearing — the zero-allocation way to fold a large
    /// trace into a summary.
    pub fn visit(&self, f: impl FnMut(&TraceRecord)) {
        if let Some(ring) = &self.inner {
            ring.borrow().records.iter().for_each(f);
        }
    }

    /// Returns a copy of the buffered records without clearing them.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().records.iter().cloned().collect())
    }
}

/// Checks the orderings every well-formed trace must satisfy: the
/// virtual-timestamp counter never decreases and neither does the clock.
///
/// Returns the index and reason of the first violation.
pub fn validate(records: &[TraceRecord]) -> Result<(), String> {
    for (i, pair) in records.windows(2).enumerate() {
        if pair[1].vt < pair[0].vt {
            return Err(format!(
                "record {}: vt went backwards ({} -> {})",
                i + 1,
                pair[0].vt,
                pair[1].vt
            ));
        }
        if pair[1].at < pair[0].at {
            return Err(format!(
                "record {}: clock went backwards ({} -> {})",
                i + 1,
                pair[0].at.as_nanos(),
                pair[1].at.as_nanos()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, vt: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Time::from_nanos(t),
            vt,
            tenant: None,
            event,
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.set_vt(9);
        sink.set_tenant(Some(1));
        assert_eq!(sink.tenant(), None);
        sink.emit(Time::ZERO, TraceEvent::Tier1Hit { page: 1 });
        assert!(sink.is_empty());
        assert!(sink.drain().is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn clones_share_one_ring() {
        let sink = TraceSink::bounded(8);
        let clone = sink.clone();
        sink.set_vt(3);
        clone.emit(Time::from_nanos(5), TraceEvent::Tier1Hit { page: 2 });
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.snapshot()[0].vt, 3);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let sink = TraceSink::bounded(2);
        for page in 0..5u64 {
            sink.emit(Time::from_nanos(page), TraceEvent::Tier1Hit { page });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let pages: Vec<u64> = sink
            .drain()
            .into_iter()
            .map(|r| match r.event {
                TraceEvent::Tier1Hit { page } => page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, vec![3, 4]);
        assert!(sink.is_empty());
    }

    #[test]
    fn drain_after_wrapping_returns_oldest_first() {
        let sink = TraceSink::bounded(5);
        for page in 0..20u64 {
            sink.emit(Time::from_nanos(page), TraceEvent::Tier1Hit { page });
        }
        let wrapped = |sink: &TraceSink| {
            let ring = sink.inner.as_ref().map(|r| r.borrow());
            ring.is_some_and(|r| !r.records.as_slices().1.is_empty())
        };
        assert!(wrapped(&sink), "the records run past the deque's end");
        let pages: Vec<u64> = sink
            .drain()
            .into_iter()
            .map(|r| match r.event {
                TraceEvent::Tier1Hit { page } => page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, [15, 16, 17, 18, 19]);
        assert_eq!(sink.dropped(), 15);
        assert!(sink.is_empty());
        sink.emit(Time::from_nanos(30), TraceEvent::Tier1Hit { page: 30 });
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 15);
    }

    #[test]
    fn jsonl_is_stable_and_one_line_per_record() {
        let records = vec![
            rec(130, 1, TraceEvent::Tier1Hit { page: 7 }),
            rec(
                260,
                2,
                TraceEvent::Eviction {
                    page: 9,
                    predicted: Some(TierTag::Host),
                    target: TierTag::Ssd,
                    dirty: true,
                },
            ),
            rec(
                300,
                2,
                TraceEvent::PcieBatch {
                    direction: LinkDir::ToGpu,
                    pages: 4,
                    bytes: 16384,
                    zero_copy: false,
                    latency_ns: 2100,
                },
            ),
        ];
        let a = to_jsonl(&records);
        let b = to_jsonl(&records);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 3);
        assert_eq!(
            a.lines().next().unwrap(),
            r#"{"t":130,"vt":1,"ev":"t1_hit","page":7}"#
        );
        assert_eq!(
            a.lines().nth(1).unwrap(),
            r#"{"t":260,"vt":2,"ev":"evict","page":9,"predicted":"t2","target":"t3","dirty":true}"#
        );
        assert_eq!(
            a.lines().nth(2).unwrap(),
            r#"{"t":300,"vt":2,"ev":"pcie_batch","dir":"to_gpu","pages":4,"bytes":16384,"zero_copy":false,"latency":2100}"#
        );
    }

    #[test]
    fn tenant_stamp_reaches_records_and_exporters() {
        let sink = TraceSink::bounded(8);
        sink.emit(Time::from_nanos(1), TraceEvent::Tier1Hit { page: 0 });
        sink.set_tenant(Some(3));
        assert_eq!(sink.tenant(), Some(3));
        sink.emit(Time::from_nanos(2), TraceEvent::Tier1Hit { page: 1 });
        sink.set_tenant(None);
        sink.emit(Time::from_nanos(3), TraceEvent::Tier1Hit { page: 2 });
        let records = sink.snapshot();
        assert_eq!(
            records.iter().map(|r| r.tenant).collect::<Vec<_>>(),
            vec![None, Some(3), None]
        );
        let jsonl = to_jsonl(&records);
        assert_eq!(
            jsonl.lines().next().unwrap(),
            r#"{"t":1,"vt":0,"ev":"t1_hit","page":0}"#,
            "untagged records keep the pre-tenant schema"
        );
        assert_eq!(
            jsonl.lines().nth(1).unwrap(),
            r#"{"t":2,"vt":0,"tenant":3,"ev":"t1_hit","page":1}"#
        );
        let csv = to_csv(&records);
        assert_eq!(csv.lines().nth(1).unwrap(), "1,0,t1_hit,0,,,,,,,");
        assert_eq!(csv.lines().nth(2).unwrap(), "2,0,t1_hit,1,,,,,,,3");
    }

    #[test]
    fn unpredicted_eviction_serialises_null() {
        let records = [rec(
            1,
            1,
            TraceEvent::Eviction {
                page: 3,
                predicted: None,
                target: TierTag::Host,
                dirty: false,
            },
        )];
        assert_eq!(
            to_jsonl(&records),
            concat!(
                r#"{"t":1,"vt":1,"ev":"evict","page":3,"predicted":null,"target":"t2","dirty":false}"#,
                "\n"
            )
        );
        assert_eq!(
            to_csv(&records).lines().nth(1),
            Some("1,1,evict,3,t2,,false,,,,")
        );
    }

    #[test]
    fn csv_has_header_and_fixed_columns() {
        let records = vec![
            rec(
                10,
                1,
                TraceEvent::SsdSubmit {
                    device: 0,
                    write: false,
                    bytes: 4096,
                    queue_depth: 1,
                },
            ),
            rec(
                20,
                1,
                TraceEvent::Tier1Miss {
                    page: 5,
                    resident: TierTag::Ssd,
                },
            ),
        ];
        let csv = to_csv(&records);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), CSV_HEADER);
        assert_eq!(lines.next().unwrap(), "10,1,ssd_submit,0,,,false,1,4096,,");
        assert_eq!(lines.next().unwrap(), "20,1,t1_miss,5,t3,,,,,,");
        for line in csv.lines() {
            assert_eq!(line.matches(',').count(), CSV_HEADER.matches(',').count());
        }
    }

    #[test]
    fn validate_accepts_ordered_and_rejects_regressions() {
        let good = vec![
            rec(1, 1, TraceEvent::Tier1Hit { page: 0 }),
            rec(1, 1, TraceEvent::Tier1Hit { page: 1 }),
            rec(5, 2, TraceEvent::Tier1Hit { page: 2 }),
        ];
        assert!(validate(&good).is_ok());

        let vt_back = vec![
            rec(1, 2, TraceEvent::Tier1Hit { page: 0 }),
            rec(2, 1, TraceEvent::Tier1Hit { page: 1 }),
        ];
        assert!(validate(&vt_back)
            .unwrap_err()
            .contains("vt went backwards"));

        let clock_back = vec![
            rec(9, 1, TraceEvent::Tier1Hit { page: 0 }),
            rec(3, 1, TraceEvent::Tier1Hit { page: 1 }),
        ];
        assert!(validate(&clock_back)
            .unwrap_err()
            .contains("clock went backwards"));
    }

    /// One record of every `TraceEvent` variant, with multi-digit
    /// stamps and the integer extremes the exporters must render.
    fn every_variant(tenant: impl Fn(u32) -> Option<u32>) -> Vec<TraceRecord> {
        let all = vec![
            TraceEvent::Tier1Hit { page: u64::MAX },
            TraceEvent::Tier1Miss {
                page: 2,
                resident: TierTag::Host,
            },
            TraceEvent::Tier1Fill {
                page: 3,
                source: TierTag::Ssd,
                ready_ns: 77,
            },
            TraceEvent::Eviction {
                page: 4,
                predicted: Some(TierTag::Gpu),
                target: TierTag::Host,
                dirty: false,
            },
            TraceEvent::Tier2Place {
                page: 5,
                dirty: true,
            },
            TraceEvent::Tier2Spill {
                page: 6,
                dirty: false,
            },
            TraceEvent::EvictDiscard { page: 7 },
            TraceEvent::SsdWriteBack { page: 8 },
            TraceEvent::Tier2Hit { page: 9 },
            TraceEvent::WastefulLookup { page: 10 },
            TraceEvent::PredictionGraded {
                page: 11,
                predicted: TierTag::Host,
                actual: TierTag::Ssd,
                correct: false,
            },
            TraceEvent::Prefetch { page: 12 },
            TraceEvent::SsdSubmit {
                device: 0,
                write: true,
                bytes: 4096,
                queue_depth: 2,
            },
            TraceEvent::SsdComplete {
                device: 0,
                write: true,
                queue_depth: 1,
            },
            TraceEvent::RingSubmit {
                cid: u16::MAX,
                write: false,
                queue_depth: 3,
            },
            TraceEvent::RingComplete {
                cid: 4,
                queue_depth: 2,
            },
            TraceEvent::PcieBatch {
                direction: LinkDir::ToHost,
                pages: 32,
                bytes: 131072,
                zero_copy: true,
                latency_ns: 999,
            },
            TraceEvent::WarpAccess {
                page: 13,
                write: true,
            },
            TraceEvent::FrontAdmit {
                conn: 1,
                class: SloClass::Interactive,
                queued: 0,
            },
            TraceEvent::FrontDefer {
                conn: 2,
                class: SloClass::Batch,
                queued: 5,
            },
            TraceEvent::FrontShed {
                conn: 3,
                class: SloClass::Standard,
                queued: 9,
            },
            TraceEvent::FrontFlush {
                class: SloClass::Interactive,
                reason: FlushReason::Timer,
                pages: 4,
                bytes: 16384,
                zero_copy: false,
            },
            TraceEvent::FrontComplete {
                conn: 1,
                class: SloClass::Interactive,
                latency_ns: 123_456,
            },
        ];
        all.into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                at: Time::from_nanos(i as u64 * 1_000_003),
                vt: i as u64 * 17,
                tenant: tenant(i as u32),
                event,
            })
            .collect()
    }

    /// Both exporters' bytes for [`every_variant`] without tenant stamps.
    const EVERY_VARIANT_JSONL: &str = r#"{"t":0,"vt":0,"ev":"t1_hit","page":18446744073709551615}
{"t":1000003,"vt":17,"ev":"t1_miss","page":2,"resident":"t2"}
{"t":2000006,"vt":34,"ev":"t1_fill","page":3,"source":"t3","ready":77}
{"t":3000009,"vt":51,"ev":"evict","page":4,"predicted":"t1","target":"t2","dirty":false}
{"t":4000012,"vt":68,"ev":"t2_place","page":5,"dirty":true}
{"t":5000015,"vt":85,"ev":"t2_spill","page":6,"dirty":false}
{"t":6000018,"vt":102,"ev":"evict_discard","page":7}
{"t":7000021,"vt":119,"ev":"ssd_writeback","page":8}
{"t":8000024,"vt":136,"ev":"t2_hit","page":9}
{"t":9000027,"vt":153,"ev":"wasteful_lookup","page":10}
{"t":10000030,"vt":170,"ev":"prediction","page":11,"predicted":"t2","actual":"t3","correct":false}
{"t":11000033,"vt":187,"ev":"prefetch","page":12}
{"t":12000036,"vt":204,"ev":"ssd_submit","device":0,"write":true,"bytes":4096,"depth":2}
{"t":13000039,"vt":221,"ev":"ssd_complete","device":0,"write":true,"depth":1}
{"t":14000042,"vt":238,"ev":"ring_submit","cid":65535,"write":false,"depth":3}
{"t":15000045,"vt":255,"ev":"ring_complete","cid":4,"depth":2}
{"t":16000048,"vt":272,"ev":"pcie_batch","dir":"to_host","pages":32,"bytes":131072,"zero_copy":true,"latency":999}
{"t":17000051,"vt":289,"ev":"warp_access","page":13,"write":true}
{"t":18000054,"vt":306,"ev":"front_admit","conn":1,"class":"interactive","queued":0}
{"t":19000057,"vt":323,"ev":"front_defer","conn":2,"class":"batch","queued":5}
{"t":20000060,"vt":340,"ev":"front_shed","conn":3,"class":"standard","queued":9}
{"t":21000063,"vt":357,"ev":"front_flush","class":"interactive","reason":"timer","pages":4,"bytes":16384,"zero_copy":false}
{"t":22000066,"vt":374,"ev":"front_complete","conn":1,"class":"interactive","latency":123456}
"#;
    const EVERY_VARIANT_CSV: &str = "t_ns,vt,event,id,tier,tier2,flag,depth,bytes,latency_ns,tenant
0,0,t1_hit,18446744073709551615,,,,,,,
1000003,17,t1_miss,2,t2,,,,,,
2000006,34,t1_fill,3,t3,,,,,77,
3000009,51,evict,4,t2,t1,false,,,,
4000012,68,t2_place,5,,,true,,,,
5000015,85,t2_spill,6,,,false,,,,
6000018,102,evict_discard,7,,,,,,,
7000021,119,ssd_writeback,8,,,,,,,
8000024,136,t2_hit,9,,,,,,,
9000027,153,wasteful_lookup,10,,,,,,,
10000030,170,prediction,11,t3,t2,false,,,,
11000033,187,prefetch,12,,,,,,,
12000036,204,ssd_submit,0,,,true,2,4096,,
13000039,221,ssd_complete,0,,,true,1,,,
14000042,238,ring_submit,65535,,,false,3,,,
15000045,255,ring_complete,4,,,,2,,,
16000048,272,pcie_batch,32,to_host,,true,,131072,999,
17000051,289,warp_access,13,,,true,,,,
18000054,306,front_admit,1,interactive,,,0,,,
19000057,323,front_defer,2,batch,,,5,,,
20000060,340,front_shed,3,standard,,,9,,,
21000063,357,front_flush,4,interactive,timer,false,,16384,,
22000066,374,front_complete,1,interactive,,,,,123456,
";
    /// The same records stamped with tenant `1000 * index`.
    const EVERY_VARIANT_TENANT_JSONL: &str = r#"{"t":0,"vt":0,"tenant":0,"ev":"t1_hit","page":18446744073709551615}
{"t":1000003,"vt":17,"tenant":1000,"ev":"t1_miss","page":2,"resident":"t2"}
{"t":2000006,"vt":34,"tenant":2000,"ev":"t1_fill","page":3,"source":"t3","ready":77}
{"t":3000009,"vt":51,"tenant":3000,"ev":"evict","page":4,"predicted":"t1","target":"t2","dirty":false}
{"t":4000012,"vt":68,"tenant":4000,"ev":"t2_place","page":5,"dirty":true}
{"t":5000015,"vt":85,"tenant":5000,"ev":"t2_spill","page":6,"dirty":false}
{"t":6000018,"vt":102,"tenant":6000,"ev":"evict_discard","page":7}
{"t":7000021,"vt":119,"tenant":7000,"ev":"ssd_writeback","page":8}
{"t":8000024,"vt":136,"tenant":8000,"ev":"t2_hit","page":9}
{"t":9000027,"vt":153,"tenant":9000,"ev":"wasteful_lookup","page":10}
{"t":10000030,"vt":170,"tenant":10000,"ev":"prediction","page":11,"predicted":"t2","actual":"t3","correct":false}
{"t":11000033,"vt":187,"tenant":11000,"ev":"prefetch","page":12}
{"t":12000036,"vt":204,"tenant":12000,"ev":"ssd_submit","device":0,"write":true,"bytes":4096,"depth":2}
{"t":13000039,"vt":221,"tenant":13000,"ev":"ssd_complete","device":0,"write":true,"depth":1}
{"t":14000042,"vt":238,"tenant":14000,"ev":"ring_submit","cid":65535,"write":false,"depth":3}
{"t":15000045,"vt":255,"tenant":15000,"ev":"ring_complete","cid":4,"depth":2}
{"t":16000048,"vt":272,"tenant":16000,"ev":"pcie_batch","dir":"to_host","pages":32,"bytes":131072,"zero_copy":true,"latency":999}
{"t":17000051,"vt":289,"tenant":17000,"ev":"warp_access","page":13,"write":true}
{"t":18000054,"vt":306,"tenant":18000,"ev":"front_admit","conn":1,"class":"interactive","queued":0}
{"t":19000057,"vt":323,"tenant":19000,"ev":"front_defer","conn":2,"class":"batch","queued":5}
{"t":20000060,"vt":340,"tenant":20000,"ev":"front_shed","conn":3,"class":"standard","queued":9}
{"t":21000063,"vt":357,"tenant":21000,"ev":"front_flush","class":"interactive","reason":"timer","pages":4,"bytes":16384,"zero_copy":false}
{"t":22000066,"vt":374,"tenant":22000,"ev":"front_complete","conn":1,"class":"interactive","latency":123456}
"#;
    const EVERY_VARIANT_TENANT_CSV: &str =
        "t_ns,vt,event,id,tier,tier2,flag,depth,bytes,latency_ns,tenant
0,0,t1_hit,18446744073709551615,,,,,,,0
1000003,17,t1_miss,2,t2,,,,,,1000
2000006,34,t1_fill,3,t3,,,,,77,2000
3000009,51,evict,4,t2,t1,false,,,,3000
4000012,68,t2_place,5,,,true,,,,4000
5000015,85,t2_spill,6,,,false,,,,5000
6000018,102,evict_discard,7,,,,,,,6000
7000021,119,ssd_writeback,8,,,,,,,7000
8000024,136,t2_hit,9,,,,,,,8000
9000027,153,wasteful_lookup,10,,,,,,,9000
10000030,170,prediction,11,t3,t2,false,,,,10000
11000033,187,prefetch,12,,,,,,,11000
12000036,204,ssd_submit,0,,,true,2,4096,,12000
13000039,221,ssd_complete,0,,,true,1,,,13000
14000042,238,ring_submit,65535,,,false,3,,,14000
15000045,255,ring_complete,4,,,,2,,,15000
16000048,272,pcie_batch,32,to_host,,true,,131072,999,16000
17000051,289,warp_access,13,,,true,,,,17000
18000054,306,front_admit,1,interactive,,,0,,,18000
19000057,323,front_defer,2,batch,,,5,,,19000
20000060,340,front_shed,3,standard,,,9,,,20000
21000063,357,front_flush,4,interactive,timer,false,,16384,,21000
22000066,374,front_complete,1,interactive,,,,,123456,22000
";

    #[test]
    fn every_event_round_trips_through_both_exporters() {
        let records = every_variant(|_| None);
        assert_eq!(to_jsonl(&records), EVERY_VARIANT_JSONL);
        assert_eq!(to_csv(&records), EVERY_VARIANT_CSV);
        let stamped = every_variant(|i| Some(i * 1000));
        assert_eq!(to_jsonl(&stamped), EVERY_VARIANT_TENANT_JSONL);
        assert_eq!(to_csv(&stamped), EVERY_VARIANT_TENANT_CSV);
        for line in EVERY_VARIANT_TENANT_CSV.lines() {
            assert_eq!(line.matches(',').count(), CSV_HEADER.matches(',').count());
        }
    }

    /// Every variant with and without a tenant stamp, then the integers
    /// at the digit-count edges in every integer field a record has.
    fn mixed_records() -> Vec<TraceRecord> {
        let mut records = every_variant(|_| None);
        records.extend(every_variant(|i| Some(i * 1000)));
        for n in [0, 9, 10, 99, 100, u64::MAX] {
            records.push(TraceRecord {
                at: Time::from_nanos(n),
                vt: n,
                tenant: Some(u32::try_from(n).unwrap_or(u32::MAX)),
                event: TraceEvent::Tier1Fill {
                    page: n,
                    source: TierTag::Gpu,
                    ready_ns: n,
                },
            });
        }
        records
    }

    #[test]
    fn every_part_count_renders_the_same_bytes() {
        let records = mixed_records();
        for format in [Format::Jsonl, Format::Csv] {
            let whole = render(&records, format, 1);
            for parts in [2, 3, 7] {
                assert_eq!(render(&records, format, parts), whole, "{parts} parts");
            }
        }
        let jsonl = to_jsonl(&records);
        assert!(jsonl.ends_with(concat!(
            r#"{"t":18446744073709551615,"vt":18446744073709551615,"tenant":4294967295,"#,
            r#""ev":"t1_fill","page":18446744073709551615,"source":"t1","ready":18446744073709551615}"#,
            "\n"
        )));
        assert!(to_csv(&records).contains("\n100,100,t1_fill,100,t1,,,,,100,100\n"));
    }

    #[test]
    fn exporters_split_a_long_trace_into_the_same_bytes() {
        let records = mixed_records();
        let long: Vec<TraceRecord> = records
            .iter()
            .cycle()
            .take(3 * MIN_PART_RECORDS)
            .cloned()
            .collect();
        assert_eq!(to_jsonl(&long), render(&long, Format::Jsonl, 1));
        assert_eq!(to_csv(&long), render(&long, Format::Csv, 1));
    }

    #[test]
    fn count_equals_rendered_length() {
        for record in mixed_records() {
            let one = std::slice::from_ref(&record);
            for format in [Format::Jsonl, Format::Csv] {
                let mut count = Count(0);
                format.write_records(one, &mut count);
                let mut header = Count(0);
                format.write_header(&mut header);
                assert_eq!(header.0 + count.0, render(one, format, 1).len());
            }
        }
    }

    #[test]
    fn integers_render_as_display_does() {
        let mut ns: Vec<u64> = (0..=1000).collect();
        for k in 1..20 {
            let p = 10u64.pow(k);
            ns.extend([p - 1, p, p + 1]);
        }
        ns.extend([u64::MAX - 1, u64::MAX]);
        for n in ns {
            let mut buf = vec![0; decimal_len(n)];
            Cursor(&mut buf).int(n);
            assert_eq!(buf, n.to_string().into_bytes(), "{n}");
        }
    }

    #[test]
    fn frontend_events_export_stable_lines() {
        let records = vec![
            rec(
                100,
                1,
                TraceEvent::FrontAdmit {
                    conn: 7,
                    class: SloClass::Interactive,
                    queued: 0,
                },
            ),
            rec(
                200,
                1,
                TraceEvent::FrontDefer {
                    conn: 8,
                    class: SloClass::Batch,
                    queued: 3,
                },
            ),
            rec(
                300,
                2,
                TraceEvent::FrontFlush {
                    class: SloClass::Standard,
                    reason: FlushReason::Size,
                    pages: 8,
                    bytes: 32768,
                    zero_copy: true,
                },
            ),
            rec(
                400,
                2,
                TraceEvent::FrontComplete {
                    conn: 7,
                    class: SloClass::Interactive,
                    latency_ns: 4100,
                },
            ),
        ];
        let jsonl = to_jsonl(&records);
        assert_eq!(
            jsonl.lines().next().unwrap(),
            r#"{"t":100,"vt":1,"ev":"front_admit","conn":7,"class":"interactive","queued":0}"#
        );
        assert_eq!(
            jsonl.lines().nth(1).unwrap(),
            r#"{"t":200,"vt":1,"ev":"front_defer","conn":8,"class":"batch","queued":3}"#
        );
        assert_eq!(
            jsonl.lines().nth(2).unwrap(),
            r#"{"t":300,"vt":2,"ev":"front_flush","class":"standard","reason":"size","pages":8,"bytes":32768,"zero_copy":true}"#
        );
        assert_eq!(
            jsonl.lines().nth(3).unwrap(),
            r#"{"t":400,"vt":2,"ev":"front_complete","conn":7,"class":"interactive","latency":4100}"#
        );
        let csv = to_csv(&records);
        assert_eq!(
            csv.lines().nth(1).unwrap(),
            "100,1,front_admit,7,interactive,,,0,,,"
        );
        assert_eq!(
            csv.lines().nth(3).unwrap(),
            "300,2,front_flush,8,standard,size,true,,32768,,"
        );
        assert_eq!(
            csv.lines().nth(4).unwrap(),
            "400,2,front_complete,7,interactive,,,,,4100,"
        );
    }

    #[test]
    fn slo_classes_are_ordered_and_targets_widen() {
        assert!(SloClass::Interactive < SloClass::Standard);
        assert!(SloClass::Standard < SloClass::Batch);
        let mut last = 0;
        for class in SloClass::ALL {
            assert!(class.target_p99_ns() > last, "{class}");
            last = class.target_p99_ns();
        }
    }
}
