//! The observability plane: one virtual-clock event stream per thread.
//!
//! Instrumentation emits spans, instants, async command lifetimes,
//! counters, histogram observations — and typed ledger records
//! ([`crate::obs::EventKind`], emitted with [`crate::obs::emit`]), which
//! are one more [`EventKind`] of the same stream. One thread-local
//! recording state receives all of it, behind one [`enabled`] gate, and
//! feeds two projections:
//!
//! * the **trace**: whatever [`TraceSink`] is installed — the in-memory
//!   [`Recorder`] of [`start_recording`], or a custom sink from
//!   [`install`]. It sees every span and instant, every counter, and
//!   each record as an instant plus the counter the record implies;
//! * the **ledger** ([`crate::obs::start_recording`]): the records
//!   alone, numbered in emission order.
//!
//! Either projection can be on without the other, and both can be on
//! at once. With neither, [`enabled`] is false and every emit helper
//! returns before touching a sink, so instrumentation sites guard any
//! argument construction with `if telemetry::enabled() { ... }` and pay
//! nearly nothing.
//!
//! Every timestamp is a [`SimTime`] — the simulation's virtual clock —
//! so two identical runs produce *byte-identical* traces and ledgers,
//! and recording never advances a clock.
//!
//! Event coordinates follow the Chrome trace-event model: a [`Track`]
//! is a `(pid, tid)` pair. The simulation maps its own notions onto
//! them — a simulated process is a `pid`, `tid 0` is the process's CPU
//! timeline, and each OpenCL command queue gets its own `tid` so
//! device-side command lifetimes render as parallel async rows under
//! the owning process.
//!
//! [`export_chrome_trace`] serializes a recording into the Chrome
//! trace-event JSON array format, loadable in Perfetto or
//! `chrome://tracing`. [`validate`] checks structural invariants (span
//! balance and nesting per track, async begin/end pairing) plus the
//! CheCL checkpoint-quiescence invariant: between the end of the
//! checkpoint `sync` phase and the start of the BLCR `write` phase, no
//! application-facing API-call span may open anywhere in the trace.

use crate::obs::{self, Ledger};
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------

/// A timeline in the trace: a simulated process (`pid`) and a row
/// within it (`tid`). `tid 0` is the process's own CPU timeline;
/// nonzero tids are device-side rows (command queues).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// Simulated process id.
    pub pid: u64,
    /// Row within the process; 0 = the process timeline itself.
    pub tid: u64,
}

impl Track {
    /// The cluster-wide track (pid 0) used for events that belong to no
    /// single process, e.g. migration stages and global snapshots.
    pub const CLUSTER: Track = Track { pid: 0, tid: 0 };

    /// The CPU timeline of a simulated process.
    pub fn process(pid: u64) -> Track {
        Track { pid, tid: 0 }
    }

    /// A device-side row under the same process.
    pub fn with_tid(self, tid: u64) -> Track {
        Track { pid: self.pid, tid }
    }
}

/// A typed span/instant argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (byte counts, handle counts, ids).
    U64(u64),
    /// Floating point (ratios, bandwidths, seconds).
    F64(f64),
    /// Free-form text (paths, vendor names, modes).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<SimDuration> for ArgValue {
    fn from(v: SimDuration) -> Self {
        ArgValue::U64(v.as_nanos())
    }
}

/// Ordered key/value arguments attached to an event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// What an event marks on its track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Open a synchronous span (stack discipline per track).
    SpanBegin,
    /// Close the innermost open span of the same name on the track.
    SpanEnd,
    /// A point event.
    Instant,
    /// Open an async operation identified by `TraceEvent::id` — used
    /// for device command lifetimes that overlap on one queue row.
    AsyncBegin,
    /// Close the async operation with the same id.
    AsyncEnd,
    /// A typed ledger record: `cat` is the emitting component, `name`
    /// the record kind, `args` its fields. Rendered as an instant.
    Record,
}

/// One trace event. Ordering within a recording is emission order,
/// which for a single-threaded simulation is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual timestamp.
    pub t: SimTime,
    /// Timeline the event belongs to.
    pub track: Track,
    /// Event kind.
    pub kind: EventKind,
    /// Category, e.g. `"api"`, `"cpr"`, `"queue"`, `"ipc"`, `"mpi"`; a
    /// record's emitting component.
    pub cat: &'static str,
    /// Event name (span name / instant label / record kind).
    pub name: String,
    /// Pairing id for async events; 0 for everything else.
    pub id: u64,
    /// Attached arguments.
    pub args: Args,
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// A power-of-two-bucketed histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// `buckets[i]` counts observations `v` with `floor(log2(v)) == i`
    /// (`v == 0` lands in bucket 0).
    pub buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `p`-quantile (`0.0 ≤ p ≤ 1.0`), or `None` when the
    /// histogram is empty.
    ///
    /// Walks the power-of-two buckets to the one holding the target
    /// rank and interpolates linearly inside it, clamped to the
    /// observed `[min, max]` range so the estimate never leaves the
    /// data. Deterministic: integer bucket walk plus one fixed-point
    /// interpolation, so merged and replayed histograms agree exactly.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, in [1, count].
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Interpolate within bucket i: values span
                // [2^i, 2^(i+1)) (bucket 0 also holds v == 0).
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let width = if i == 0 { 1u64 } else { 1u64 << i };
                let into = rank - seen; // 1..=n
                let est = lo + width.saturating_mul(into - 1) / n;
                return Some(est.clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Fold another histogram into this one. Merging is commutative
    /// and associative (all fields are sums, mins or maxes), so
    /// per-shard digests can be combined in any order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// The counters/histograms registry accumulated by a [`Recorder`].
/// `BTreeMap` keys give deterministic iteration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Histograms of `u64` observations (typically nanoseconds or bytes).
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Counter value, 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Receiver for the trace projection. The simulation emits through free
/// functions ([`span_begin`], [`counter_add`], [`crate::obs::emit`], …)
/// which forward to the sink installed on the current thread — or do
/// nothing when none is.
pub trait TraceSink {
    /// Receive one trace event.
    fn event(&mut self, ev: TraceEvent);
    /// Add to a monotonic counter.
    fn counter_add(&mut self, _name: &str, _delta: u64) {}
    /// Record a histogram observation.
    fn observe(&mut self, _name: &str, _value: u64) {}
    /// Name a process track.
    fn name_process(&mut self, _pid: u64, _name: &str) {}
    /// Name a thread (row) within a process track.
    fn name_thread(&mut self, _pid: u64, _tid: u64, _name: &str) {}
}

/// In-memory sink: retains every event in order plus the metrics
/// registry and track names. This is what `--trace` and the tests use.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recorder {
    /// All events in emission order.
    pub events: Vec<TraceEvent>,
    /// Accumulated metrics.
    pub metrics: Metrics,
    /// Process display names.
    pub process_names: BTreeMap<u64, String>,
    /// Row display names, keyed by `(pid, tid)`.
    pub thread_names: BTreeMap<(u64, u64), String>,
}

impl TraceSink for Recorder {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
    fn counter_add(&mut self, name: &str, delta: u64) {
        *self.metrics.counters.entry(name.to_string()).or_insert(0) += delta;
    }
    fn observe(&mut self, name: &str, value: u64) {
        self.metrics
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }
    fn name_process(&mut self, pid: u64, name: &str) {
        self.process_names
            .entry(pid)
            .or_insert_with(|| name.to_string());
    }
    fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.thread_names
            .entry((pid, tid))
            .or_insert_with(|| name.to_string());
    }
}

// ---------------------------------------------------------------------
// The thread-local recording
// ---------------------------------------------------------------------

enum ActiveSink {
    Recorder(Recorder),
    Custom(Box<dyn TraceSink>),
}

impl ActiveSink {
    fn sink(&mut self) -> &mut dyn TraceSink {
        match self {
            ActiveSink::Recorder(r) => r,
            ActiveSink::Custom(s) => s.as_mut(),
        }
    }
}

/// The one recording state: the trace projection's sink, the ledger
/// projection, and the default track.
struct Recording {
    sink: Option<ActiveSink>,
    ledger: Option<Ledger>,
    track: Track,
}

thread_local! {
    static STATE: RefCell<Recording> = const {
        RefCell::new(Recording { sink: None, ledger: None, track: Track { pid: 0, tid: 0 } })
    };
}

/// Whether anything records on this thread — a trace sink, a ledger,
/// or both. Sites that build argument vectors or records check this
/// first.
#[inline]
pub fn enabled() -> bool {
    STATE.with(|s| {
        let st = s.borrow();
        st.sink.is_some() || st.ledger.is_some()
    })
}

/// Install a fresh [`Recorder`] on this thread, replacing any previous
/// sink (which is dropped). A ledger recording is left alone.
pub fn start_recording() {
    STATE.with(|s| {
        s.borrow_mut().sink = Some(ActiveSink::Recorder(Recorder::default()));
    });
}

/// Remove and return the recorder installed by [`start_recording`].
/// Returns `None` if no recorder is installed.
pub fn stop_recording() -> Option<Recorder> {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        match st.sink.take() {
            Some(ActiveSink::Recorder(r)) => Some(r),
            other => {
                st.sink = other;
                None
            }
        }
    })
}

/// Install a custom sink, replacing any previous sink. A ledger
/// recording is left alone, so a custom sink and
/// [`crate::obs::start_recording`] work side by side.
pub fn install(sink: Box<dyn TraceSink>) {
    STATE.with(|s| {
        s.borrow_mut().sink = Some(ActiveSink::Custom(sink));
    });
}

/// Remove whatever sink is installed (the ledger keeps recording).
pub fn uninstall() {
    STATE.with(|s| {
        s.borrow_mut().sink = None;
    });
}

/// Run `f` on the ledger slot of this thread's recording.
pub(crate) fn with_ledger<R>(f: impl FnOnce(&mut Option<Ledger>) -> R) -> R {
    STATE.with(|s| f(&mut s.borrow_mut().ledger))
}

/// The track events are attributed to by default.
pub fn current_track() -> Track {
    STATE.with(|s| s.borrow().track)
}

fn set_track(track: Track) -> Track {
    STATE.with(|s| std::mem::replace(&mut s.borrow_mut().track, track))
}

/// RAII guard restoring the previous default track on drop.
pub struct TrackScope {
    prev: Track,
}

impl Drop for TrackScope {
    fn drop(&mut self) {
        set_track(self.prev);
    }
}

/// Switch the default track for the lifetime of the returned guard.
#[must_use = "the track reverts when the guard drops"]
pub fn track_scope(track: Track) -> TrackScope {
    TrackScope {
        prev: set_track(track),
    }
}

fn with_sink(f: impl FnOnce(&mut dyn TraceSink, Track)) {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let track = st.track;
        if let Some(active) = st.sink.as_mut() {
            f(active.sink(), track);
        }
    });
}

// ---------------------------------------------------------------------
// Emit helpers
// ---------------------------------------------------------------------

/// Send one event to the sink, on `track` or else the current track.
fn emit(
    kind: EventKind,
    cat: &'static str,
    name: &str,
    t: SimTime,
    track: Option<Track>,
    id: u64,
    args: Args,
) {
    with_sink(|sink, current| {
        sink.event(TraceEvent {
            t,
            track: track.unwrap_or(current),
            kind,
            cat,
            name: name.to_string(),
            id,
            args,
        })
    });
}

/// Open a span named `name` on the current track at virtual time `t`.
pub fn span_begin(cat: &'static str, name: &str, t: SimTime, args: Args) {
    emit(EventKind::SpanBegin, cat, name, t, None, 0, args);
}

/// Close the innermost open span named `name` on the current track.
pub fn span_end(cat: &'static str, name: &str, t: SimTime, args: Args) {
    emit(EventKind::SpanEnd, cat, name, t, None, 0, args);
}

/// Emit a point event on the current track.
pub fn instant(cat: &'static str, name: &str, t: SimTime, args: Args) {
    emit(EventKind::Instant, cat, name, t, None, 0, args);
}

/// Open an async operation `id` on an explicit track (device command
/// lifetimes overlap, so they pair by id rather than by stack).
pub fn async_begin(cat: &'static str, name: &str, t: SimTime, track: Track, id: u64, args: Args) {
    emit(EventKind::AsyncBegin, cat, name, t, Some(track), id, args);
}

/// Close the async operation opened with the same `(track, id)`.
pub fn async_end(cat: &'static str, name: &str, t: SimTime, track: Track, id: u64, args: Args) {
    emit(EventKind::AsyncEnd, cat, name, t, Some(track), id, args);
}

/// Emit one typed record at virtual time `t` on the current track —
/// the single emission point behind [`crate::obs::emit`]. The ledger
/// keeps the record; the trace sink sees it as a [`EventKind::Record`]
/// event plus the counter it implies (`obs::EventKind::counter`).
pub(crate) fn record(component: &'static str, t: SimTime, kind: obs::EventKind) {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let track = st.track;
        if let Some(active) = st.sink.as_mut() {
            let sink = active.sink();
            if let Some(counter) = kind.counter(component) {
                sink.counter_add(counter, 1);
            }
            sink.event(TraceEvent {
                t,
                track,
                kind: EventKind::Record,
                cat: component,
                name: kind.name().to_string(),
                id: 0,
                args: kind.fields(),
            });
        }
        if let Some(ledger) = st.ledger.as_mut() {
            ledger.push(component, t, kind);
        }
    });
}

/// Add to a monotonic counter in the metrics registry (no timeline
/// event).
pub fn counter_add(name: &str, delta: u64) {
    with_sink(|sink, _| sink.counter_add(name, delta));
}

/// Record a histogram observation in the metrics registry.
pub fn observe(name: &str, value: u64) {
    with_sink(|sink, _| sink.observe(name, value));
}

/// Give a process track a display name (first write wins).
pub fn name_process(pid: u64, name: &str) {
    with_sink(|sink, _| sink.name_process(pid, name));
}

/// Give a row within a process track a display name (first write wins).
pub fn name_thread(pid: u64, tid: u64, name: &str) {
    with_sink(|sink, _| sink.name_thread(pid, tid, name));
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// Structural statistics computed by a successful [`validate`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidateStats {
    /// Matched synchronous span pairs.
    pub spans: usize,
    /// Deepest nesting observed on any track.
    pub max_depth: usize,
    /// Matched async begin/end pairs.
    pub async_pairs: usize,
    /// Instant events, ledger records included.
    pub instants: usize,
}

/// A violation found by [`validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum ValidateError {
    /// `SpanEnd` with no matching open span on its track.
    UnbalancedEnd {
        /// Offending event name.
        name: String,
        /// Track the end was emitted on.
        track: Track,
        /// Event index in the recording.
        index: usize,
    },
    /// `SpanEnd` whose name does not match the innermost open span.
    MismatchedEnd {
        /// Name on the end event.
        got: String,
        /// Name of the innermost open span.
        expected: String,
        /// Track.
        track: Track,
        /// Event index in the recording.
        index: usize,
    },
    /// A span or async pair closing before it opened.
    NegativeDuration {
        /// Span name.
        name: String,
        /// Track.
        track: Track,
        /// Event index of the offending end.
        index: usize,
    },
    /// Spans still open at end of recording.
    UnclosedSpans {
        /// `(track, name)` of each open span.
        open: Vec<(Track, String)>,
    },
    /// `AsyncEnd` with no matching `AsyncBegin` of the same `(track, id)`.
    UnmatchedAsyncEnd {
        /// Event name.
        name: String,
        /// Track.
        track: Track,
        /// Async pairing id.
        id: u64,
        /// Event index in the recording.
        index: usize,
    },
    /// Async operations still open at end of recording.
    UnclosedAsync {
        /// Number left open.
        count: usize,
    },
    /// An application API-call span opened between checkpoint-sync
    /// completion and the BLCR image write — the process was supposed
    /// to be quiescent.
    QuiescenceViolation {
        /// Name of the API span that opened.
        name: String,
        /// Process that violated quiescence.
        pid: u64,
        /// Event index in the recording.
        index: usize,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UnbalancedEnd { name, track, index } => {
                write!(
                    f,
                    "event {index}: end of '{name}' on {track:?} with no open span"
                )
            }
            ValidateError::MismatchedEnd {
                got,
                expected,
                track,
                index,
            } => write!(
                f,
                "event {index}: end of '{got}' on {track:?} but innermost open span is '{expected}'"
            ),
            ValidateError::NegativeDuration { name, track, index } => {
                write!(
                    f,
                    "event {index}: '{name}' on {track:?} ends before it begins"
                )
            }
            ValidateError::UnclosedSpans { open } => {
                write!(
                    f,
                    "{} span(s) left open at end of trace: {open:?}",
                    open.len()
                )
            }
            ValidateError::UnmatchedAsyncEnd {
                name,
                track,
                id,
                index,
            } => write!(
                f,
                "event {index}: async end of '{name}' id {id} on {track:?} with no matching begin"
            ),
            ValidateError::UnclosedAsync { count } => {
                write!(f, "{count} async operation(s) left open at end of trace")
            }
            ValidateError::QuiescenceViolation { name, pid, index } => write!(
                f,
                "event {index}: API span '{name}' opened on pid {pid} between checkpoint \
                 sync completion and BLCR write (process must be quiescent)"
            ),
        }
    }
}

/// Span names bounding the checkpoint quiescent window (see
/// `checl::cpr`): quiescence starts when the sync phase ends and ends
/// when the image write begins.
pub const QUIESCE_AFTER: &str = "checkpoint.sync";
/// See [`QUIESCE_AFTER`].
pub const QUIESCE_UNTIL: &str = "checkpoint.write";
/// Category of application-facing API-call spans, the ones forbidden
/// inside the quiescent window.
pub const API_CATEGORY: &str = "api";
/// Category of recovery-action events (retries, fallbacks, verification
/// failures, proxy respawns, snapshot aborts).
pub const RECOVERY_CATEGORY: &str = "recovery";
/// Category of supervision events (failure detection, interval
/// recomputation, automatic repair, replica scrubbing).
pub const SUPERVISOR_CATEGORY: &str = "supervisor";

/// Check structural invariants of a recording:
///
/// * every `SpanEnd` closes the innermost open span of the same name
///   on its track, with a non-negative duration, and nothing is left
///   open;
/// * every `AsyncEnd` pairs with an earlier `AsyncBegin` of the same
///   `(track, id)`, and nothing is left open;
/// * **checkpoint quiescence** — within one process, no span with
///   category [`API_CATEGORY`] opens between the end of a
///   [`QUIESCE_AFTER`] span and the begin of the following
///   [`QUIESCE_UNTIL`] span.
pub fn validate(events: &[TraceEvent]) -> Result<ValidateStats, ValidateError> {
    let mut stats = ValidateStats::default();
    let mut stacks: BTreeMap<Track, Vec<(String, SimTime)>> = BTreeMap::new();
    let mut open_async: BTreeMap<(Track, u64), SimTime> = BTreeMap::new();
    // pids currently inside the checkpoint quiescent window.
    let mut quiescent: BTreeMap<u64, bool> = BTreeMap::new();

    for (index, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::SpanBegin => {
                if ev.cat == API_CATEGORY && quiescent.get(&ev.track.pid).copied().unwrap_or(false)
                {
                    return Err(ValidateError::QuiescenceViolation {
                        name: ev.name.clone(),
                        pid: ev.track.pid,
                        index,
                    });
                }
                if ev.name == QUIESCE_UNTIL {
                    quiescent.insert(ev.track.pid, false);
                }
                let stack = stacks.entry(ev.track).or_default();
                stack.push((ev.name.clone(), ev.t));
                stats.max_depth = stats.max_depth.max(stack.len());
            }
            EventKind::SpanEnd => {
                let stack = stacks.entry(ev.track).or_default();
                match stack.pop() {
                    None => {
                        return Err(ValidateError::UnbalancedEnd {
                            name: ev.name.clone(),
                            track: ev.track,
                            index,
                        })
                    }
                    Some((open_name, t0)) => {
                        if open_name != ev.name {
                            return Err(ValidateError::MismatchedEnd {
                                got: ev.name.clone(),
                                expected: open_name,
                                track: ev.track,
                                index,
                            });
                        }
                        if ev.t < t0 {
                            return Err(ValidateError::NegativeDuration {
                                name: ev.name.clone(),
                                track: ev.track,
                                index,
                            });
                        }
                        stats.spans += 1;
                    }
                }
                if ev.name == QUIESCE_AFTER {
                    quiescent.insert(ev.track.pid, true);
                }
            }
            EventKind::Instant | EventKind::Record => stats.instants += 1,
            EventKind::AsyncBegin => {
                open_async.insert((ev.track, ev.id), ev.t);
            }
            EventKind::AsyncEnd => match open_async.remove(&(ev.track, ev.id)) {
                None => {
                    return Err(ValidateError::UnmatchedAsyncEnd {
                        name: ev.name.clone(),
                        track: ev.track,
                        id: ev.id,
                        index,
                    })
                }
                Some(t0) => {
                    if ev.t < t0 {
                        return Err(ValidateError::NegativeDuration {
                            name: ev.name.clone(),
                            track: ev.track,
                            index,
                        });
                    }
                    stats.async_pairs += 1;
                }
            },
        }
    }

    let open: Vec<(Track, String)> = stacks
        .into_iter()
        .flat_map(|(track, stack)| stack.into_iter().map(move |(name, _)| (track, name)))
        .collect();
    if !open.is_empty() {
        return Err(ValidateError::UnclosedSpans { open });
    }
    if !open_async.is_empty() {
        return Err(ValidateError::UnclosedAsync {
            count: open_async.len(),
        });
    }
    Ok(stats)
}

/// Total duration of all completed spans per name, summed across
/// tracks. Used by tests and figure code to query phase timings out of
/// a trace. Panics if the trace is unbalanced — run [`validate`] first.
pub fn span_durations(events: &[TraceEvent]) -> BTreeMap<String, SimDuration> {
    let mut stacks: BTreeMap<Track, Vec<(String, SimTime)>> = BTreeMap::new();
    let mut totals: BTreeMap<String, SimDuration> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::SpanBegin => {
                stacks
                    .entry(ev.track)
                    .or_default()
                    .push((ev.name.clone(), ev.t));
            }
            EventKind::SpanEnd => {
                let (name, t0) = stacks
                    .entry(ev.track)
                    .or_default()
                    .pop()
                    .expect("span_durations: unbalanced trace");
                let total = totals.entry(name).or_insert(SimDuration::ZERO);
                *total += ev.t.since(t0);
            }
            _ => {}
        }
    }
    totals
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Escape `s` for a JSON string literal, without the quotes (the trace
/// export, the ledger's JSONL and the bench figures share it).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number for `v`: Rust's shortest round-trip form, with `.0`
/// appended to an integral value so it reads back as a float; `null`
/// for NaN and ±inf, which JSON cannot hold.
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // Rust's shortest-roundtrip Display is deterministic.
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Microsecond timestamp with nanosecond precision, as Chrome expects.
fn ts_us(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Append `"k":v` as JSON.
pub(crate) fn push_json_arg(out: &mut String, k: &str, v: &ArgValue) {
    out.push('"');
    out.push_str(&json_escape(k));
    out.push_str("\":");
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::F64(x) => out.push_str(&json_f64(*x)),
        ArgValue::Str(s) => {
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
    }
}

fn args_json(args: &Args) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_arg(&mut out, k, v);
    }
    out.push('}');
    out
}

/// Serialize a recording as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// `chrome://tracing`. Timestamps are virtual microseconds.
pub fn export_chrome_trace(rec: &Recorder) -> String {
    let mut out = String::with_capacity(rec.events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&line);
        *first = false;
    };

    for (pid, name) in &rec.process_names {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
            &mut out,
            &mut first,
        );
    }
    for ((pid, tid), name) in &rec.thread_names {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
            &mut out,
            &mut first,
        );
    }

    for ev in &rec.events {
        let (ph, extra) = match ev.kind {
            EventKind::SpanBegin => ("B", String::new()),
            EventKind::SpanEnd => ("E", String::new()),
            EventKind::Instant | EventKind::Record => ("i", ",\"s\":\"t\"".to_string()),
            EventKind::AsyncBegin => ("b", format!(",\"id\":\"{:#x}\"", ev.id)),
            EventKind::AsyncEnd => ("e", format!(",\"id\":\"{:#x}\"", ev.id)),
        };
        push(
            format!(
                "{{\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\
                 \"cat\":\"{cat}\",\"name\":\"{name}\"{extra},\"args\":{args}}}",
                ts = ts_us(ev.t),
                pid = ev.track.pid,
                tid = ev.track.tid,
                cat = json_escape(ev.cat),
                name = json_escape(&ev.name),
                args = args_json(&ev.args),
            ),
            &mut out,
            &mut first,
        );
    }

    // Final counter/histogram snapshot as one metadata record, so the
    // registry travels with the trace file.
    let mut metrics = String::from("{\"counters\":{");
    for (i, (k, v)) in rec.metrics.counters.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    metrics.push_str("},\"histograms\":{");
    for (i, (k, h)) in rec.metrics.histograms.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
            json_escape(k),
            h.count,
            h.sum,
            h.min,
            h.max,
            json_f64(h.mean()),
        ));
    }
    metrics.push_str("}}");
    push(
        format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"checl_metrics\",\"args\":{metrics}}}"
        ),
        &mut out,
        &mut first,
    );

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        span_begin("api", "x", t(0), vec![]);
        assert!(stop_recording().is_none());
    }

    #[test]
    fn record_validate_roundtrip() {
        start_recording();
        let _scope = track_scope(Track::process(7));
        span_begin("api", "clFinish", t(10), vec![]);
        instant("ipc", "send", t(12), vec![("bytes", 64u64.into())]);
        span_end("api", "clFinish", t(20), vec![]);
        counter_add("calls", 1);
        drop(_scope);
        let rec = stop_recording().unwrap();
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.metrics.counter("calls"), 1);
        let stats = validate(&rec.events).unwrap();
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 1);
        let durations = span_durations(&rec.events);
        assert_eq!(durations["clFinish"], SimDuration::from_nanos(10));
    }

    #[test]
    fn validate_rejects_unbalanced() {
        start_recording();
        span_begin("api", "a", t(0), vec![]);
        let rec = stop_recording().unwrap();
        assert!(matches!(
            validate(&rec.events),
            Err(ValidateError::UnclosedSpans { .. })
        ));
    }

    #[test]
    fn validate_rejects_quiescence_violation() {
        start_recording();
        let _scope = track_scope(Track::process(3));
        span_begin("cpr", QUIESCE_AFTER, t(0), vec![]);
        span_end("cpr", QUIESCE_AFTER, t(5), vec![]);
        span_begin("api", "clEnqueueReadBuffer", t(6), vec![]);
        span_end("api", "clEnqueueReadBuffer", t(7), vec![]);
        span_begin("cpr", QUIESCE_UNTIL, t(8), vec![]);
        span_end("cpr", QUIESCE_UNTIL, t(9), vec![]);
        drop(_scope);
        let rec = stop_recording().unwrap();
        assert!(matches!(
            validate(&rec.events),
            Err(ValidateError::QuiescenceViolation { .. })
        ));
    }

    #[test]
    fn chrome_export_is_json_shaped() {
        start_recording();
        let _scope = track_scope(Track::process(1));
        name_process(1, "app");
        span_begin(
            "api",
            "clCreateBuffer",
            t(1_500),
            vec![("bytes", 4096u64.into())],
        );
        span_end("api", "clCreateBuffer", t(2_500), vec![]);
        drop(_scope);
        let rec = stop_recording().unwrap();
        let json = export_chrome_trace(&rec);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("process_name"));
    }
}
