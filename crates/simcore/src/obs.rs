//! `obs` — the ledger projection of the observability plane.
//!
//! A *record* is a typed, serializable fact — a checkpoint commit, a
//! restore, a replica scrub, an incident, an interval retune, a fault
//! injection, … — emitted with [`emit`] into the one thread-local event
//! stream of [`crate::telemetry`], where it is one more event kind next
//! to spans and instants. This module declares the record kinds (each
//! once, in the `records!` table) and the ledger projection of that stream:
//! [`start_recording`] keeps every record in emission order with a
//! stable id that counts records only, and a virtual timestamp. The
//! trace projection of the same record is an instant (plus, for an
//! engine restore or an MPI global snapshot, the counter it implies —
//! `EventKind::counter`), so a site states each fact once and both
//! views agree by construction.
//!
//! The ledger is queryable by kind, component and time window, and
//! round-trips through JSON Lines so a run can be inspected offline
//! (`checl_inspect`) or diffed bit-exactly against a seeded replay.
//!
//! Three derived views are built from the raw records:
//!
//! * [`ProvenanceGraph`] — one node per dump file, carrying its format,
//!   policy lattice point, logical vs. serialized bytes, chunk counts,
//!   `bases` (the per-rank files of a coordinated MPI snapshot), vault
//!   generation/replica/checksum data and
//!   scrub history. `lineage(path)` walks the base edges and explains
//!   exactly which files a restore will touch.
//! * [`SloSummary`] — availability, downtime, wasted-work and
//!   checkpoint-overhead accounting summed from incident and
//!   checkpoint records. The sums reconcile *exactly* with the
//!   supervisor's own `SupervisorReport`-style accounting because the
//!   supervisor emits each quantity at the moment it charges it.
//! * Percentile digests — any `u64` projection of the ledger folds into
//!   a [`Histogram`] (see [`Ledger::digest`]), whose mergeable
//!   `percentile` estimator powers the p50/p95/p99 columns of
//!   `checl_inspect`.
//!
//! Recording is pure bookkeeping: emitting never touches a process
//! clock, so a run with the ledger enabled is bit-identical in virtual
//! time to the same run with it disabled.

use crate::telemetry::{self, json_escape, push_json_arg, ArgValue, Args, Histogram};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// One structured ledger record.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Stable id: position among the ledger's records, starting at 0.
    pub id: u64,
    /// Virtual time the record describes.
    pub t: SimTime,
    /// Emitting layer: `"engine"`, `"vault"`, `"supervisor"`,
    /// `"fault"`, `"migrate"`, `"mpi"`, `"channel"`, …
    pub component: String,
    /// The typed payload.
    pub kind: EventKind,
}

/// A record field's type: an integer, a string, or a list of paths
/// (one comma-joined string on the wire; dump paths never contain
/// commas).
trait Field: Sized {
    fn to_arg(&self) -> ArgValue;
    fn from_arg(v: &ArgValue) -> Option<Self>;
}

impl Field for u64 {
    fn to_arg(&self) -> ArgValue {
        ArgValue::U64(*self)
    }
    fn from_arg(v: &ArgValue) -> Option<u64> {
        match v {
            ArgValue::U64(n) => Some(*n),
            _ => None,
        }
    }
}

impl Field for String {
    fn to_arg(&self) -> ArgValue {
        ArgValue::Str(self.clone())
    }
    fn from_arg(v: &ArgValue) -> Option<String> {
        match v {
            ArgValue::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

impl Field for Vec<String> {
    fn to_arg(&self) -> ArgValue {
        ArgValue::Str(self.join(","))
    }
    fn from_arg(v: &ArgValue) -> Option<Vec<String>> {
        let s = String::from_arg(v)?;
        Some(
            s.split(',')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect(),
        )
    }
}

/// Declare every record kind once: its variant, its stable JSONL name
/// and its fields in serialization order. Generates [`EventKind`] with
/// its name, its field list and the parser of that list.
macro_rules! records {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $name:literal {
            $( $(#[$fdoc:meta])* $field:ident : $ty:ty ),* $(,)?
        }
    )*) => {
        /// Typed record payloads. Every field is a `u64`, a string or a
        /// list of paths, so records serialize to flat JSON objects and
        /// compare bit-exactly.
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventKind {
            $( $(#[$doc])* $kind { $( $(#[$fdoc])* $field: $ty ),* }, )*
        }

        impl EventKind {
            /// Stable kind name: the JSONL `"kind"` field and the
            /// record's name in the trace.
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$kind { .. } => $name, )*
                }
            }

            /// The record's fields in serialization order: the JSONL
            /// keys after `kind`, and the trace event's arguments.
            pub(crate) fn fields(&self) -> Args {
                match self {
                    $( EventKind::$kind { $($field),* } => {
                        vec![$( (stringify!($field), Field::to_arg($field)) ),*]
                    } )*
                }
            }

            fn from_fields(
                kind: &str,
                map: &BTreeMap<String, ArgValue>,
            ) -> Result<EventKind, ObsError> {
                let missing = |name: &str| ObsError::Field(kind.to_string(), name.to_string());
                match kind {
                    $( $name => Ok(EventKind::$kind { $(
                        $field: map
                            .get(stringify!($field))
                            .and_then(<$ty as Field>::from_arg)
                            .ok_or_else(|| missing(stringify!($field)))?,
                    )* }), )*
                    other => Err(ObsError::Kind(other.to_string())),
                }
            }
        }
    };
}

records! {
    /// A checkpoint dump committed to `path` (engine level: full
    /// provenance of the dump that landed on disk).
    CheckpointCommitted = "checkpoint_committed" {
        /// Final path of the committed dump.
        path: String,
        /// On-disk format (`"sequential"` or `"streamed"`).
        format: String,
        /// Human-readable policy lattice point.
        policy: String,
        /// Dumps this one depends on (a coordinated MPI snapshot's
        /// per-rank files; engine dumps are standalone and record none).
        bases: Vec<String>,
        /// Live buffers considered.
        buffers: u64,
        /// Chunks written (streamed format; 0 for sequential).
        chunks: u64,
        /// Logical bytes of all live buffers.
        logical_bytes: u64,
        /// Serialized size of the file on disk.
        file_bytes: u64,
        /// Sync phase, ns.
        sync_ns: u64,
        /// Preprocess (device→host copy) phase, ns.
        preprocess_ns: u64,
        /// Write phase, ns.
        write_ns: u64,
        /// Postprocess phase, ns.
        postprocess_ns: u64,
        /// Total wall-clock of the snapshot, ns.
        cost_ns: u64,
    }
    /// The supervisor accounted one committed checkpoint (its measured
    /// cost includes vault commit I/O, which is what feeds the
    /// checkpoint-overhead SLO).
    CheckpointAccounted = "checkpoint_accounted" {
        /// Measured cost charged by the supervisor, ns.
        cost_ns: u64,
        /// Application progress (ops completed) at the commit.
        progress: u64,
    }
    /// A restore began from `path`.
    RestoreStarted = "restore_started" {
        /// Dump file the restore reads.
        path: String,
        /// Sniffed or requested format.
        format: String,
    }
    /// A restore finished.
    RestoreCompleted = "restore_completed" {
        /// Dump file the restore read.
        path: String,
        /// Objects re-created.
        objects: u64,
        /// Object-recreation cost, ns.
        cost_ns: u64,
    }
    /// The vault committed a generation (replicated dump + checksum).
    GenerationCommitted = "generation_committed" {
        /// Generation number.
        generation: u64,
        /// Primary replica path.
        path: String,
        /// Stored bytes per replica.
        bytes: u64,
        /// FNV-64 of the stored bytes.
        checksum: u64,
        /// Every replica path (primary first).
        replicas: Vec<String>,
    }
    /// A generation fell off the vault's retention window.
    GenerationRetired = "generation_retired" {
        /// Generation number.
        generation: u64,
        /// Primary replica path.
        path: String,
    }
    /// A scrub pass verified a generation's replicas.
    ReplicaScrubbed = "replica_scrubbed" {
        /// Generation number.
        generation: u64,
        /// Primary replica path.
        path: String,
        /// Replicas that verified clean.
        verified: u64,
    }
    /// A scrub pass rewrote a damaged replica from a healthy one.
    ReplicaRepaired = "replica_repaired" {
        /// Generation number.
        generation: u64,
        /// Primary replica path.
        path: String,
        /// The replica that was rewritten.
        replica: String,
    }
    /// Every replica of a generation was damaged; the generation is
    /// unrecoverable.
    ReplicaLost = "replica_lost" {
        /// Generation number.
        generation: u64,
        /// Primary replica path.
        path: String,
    }
    /// The supervisor opened an incident (failure detected).
    IncidentOpened = "incident_opened" {
        /// Failure source (`"proxy_death"`, `"node_crash"`, …).
        source: String,
        /// Application progress rolled back, ns-equivalent ops are
        /// converted by the emitter to wasted virtual time.
        wasted_ns: u64,
        /// Detection latency charged as downtime, ns.
        detect_ns: u64,
    }
    /// The supervisor closed an incident.
    IncidentClosed = "incident_closed" {
        /// Failure source the incident was opened with.
        source: String,
        /// Total downtime charged to this incident, ns.
        downtime_ns: u64,
        /// Repair attempts spent.
        repairs: u64,
        /// 1 if service was restored, 0 if the incident ended the run.
        resolved: u64,
    }
    /// A migration finished end to end.
    MigrationCompleted = "migration_completed" {
        /// Dump path the migration used.
        path: String,
        /// Serialized dump size.
        file_bytes: u64,
        /// Measured end-to-end migration time, ns.
        actual_ns: u64,
        /// Model-predicted migration time, ns.
        predicted_ns: u64,
    }
    /// The adaptive interval controller picked a new interval.
    IntervalRetuned = "interval_retuned" {
        /// New checkpoint interval, ns.
        interval_ns: u64,
        /// MTBF estimate that produced it, ns.
        mtbf_ns: u64,
    }
    /// A fault plan injected one fault.
    FaultInjected = "fault_injected" {
        /// Stable fault-kind name (`"disk_write_fail"`, …).
        fault: String,
        /// Site detail recorded by the plan (path, node, …).
        detail: String,
    }
    /// Aggregated dedup hits for one checkpoint generation: chunks
    /// whose content already lived in the chunk store, so their bytes
    /// never touched the disk again.
    ChunkDeduped = "chunk_deduped" {
        /// Chunk-store path the hits resolved against.
        store: String,
        /// Dump ordinal of the emitting checkpoint (0-based).
        generation: u64,
        /// Chunks that deduplicated.
        chunks: u64,
        /// Raw bytes those chunks would have cost without dedup.
        raw_bytes: u64,
    }
    /// Aggregated novel chunks compressed and appended to the chunk
    /// store for one checkpoint generation.
    ChunkCompressed = "chunk_compressed" {
        /// Chunk-store path the records were appended to.
        store: String,
        /// Dump ordinal of the emitting checkpoint (0-based).
        generation: u64,
        /// Novel chunks stored.
        chunks: u64,
        /// Raw bytes before compression.
        raw_bytes: u64,
        /// Bytes actually appended to the store.
        stored_bytes: u64,
        /// CPU time spent compressing, ns.
        compress_ns: u64,
    }
    /// Utilization snapshot of one resource channel at the end of an
    /// overlapped operation.
    ChannelObserved = "channel_observed" {
        /// Channel name (`"pcie.dev0"`, `"disk"`, …).
        channel: String,
        /// Busy time accumulated on the channel, ns.
        busy_ns: u64,
        /// Placements scheduled.
        ops: u64,
    }
    /// A live snapshot lazily forked chunks of a buffer the application
    /// was about to overwrite before its cut had drained.
    CowForked = "cow_forked" {
        /// Dump the pending cut belongs to.
        path: String,
        /// CheCL handle of the mutated buffer.
        buffer: u64,
        /// 64 KiB-granular chunks copied out.
        chunks: u64,
        /// Bytes copied out.
        bytes: u64,
        /// Application-visible stall charged for the fork, ns.
        stall_ns: u64,
    }
    /// A live snapshot's background drain finished and the dump file
    /// was sealed.
    LiveDrainCompleted = "live_drain_completed" {
        /// Final path of the committed dump.
        path: String,
        /// Buffers the cut covered.
        buffers: u64,
        /// Chunks that had to be COW-forked before overwrites.
        forked_chunks: u64,
        /// Bytes preserved by forking.
        forked_bytes: u64,
        /// Bytes drained from devices in the background.
        drained_bytes: u64,
        /// Application-visible stall of the whole generation, ns.
        stall_ns: u64,
        /// Background drain wall-clock (cut to seal), ns.
        drain_ns: u64,
        /// Serialized size of the sealed file.
        file_bytes: u64,
    }
    /// The fleet scheduler suspended a running tenant by checkpointing
    /// it out of its slot (priority preemption).
    TenantPreempted = "tenant_preempted" {
        /// Fleet-unique job name.
        job: String,
        /// Node the tenant was running on.
        node: u64,
        /// Checkpoint generation this preemption produced (1-based
        /// count of dumps taken for the job).
        generation: u64,
        /// Human-readable CprPolicy lattice point used for the dump.
        policy: String,
    }
    /// A tenant moved nodes: live migration off a hot node, or a
    /// preempted tenant resumed from its dump on a different node.
    TenantMigrated = "tenant_migrated" {
        /// Fleet-unique job name.
        job: String,
        /// Node the tenant left.
        from_node: u64,
        /// Node the tenant landed on.
        to_node: u64,
        /// 1 for an end-to-end live migration, 0 for a cold resume of
        /// an existing dump on a new node.
        live: u64,
    }
    /// A tenant ran to completion; the fleet-level outcome record.
    TenantCompleted = "tenant_completed" {
        /// Fleet-unique job name.
        job: String,
        /// Node the tenant finished on.
        node: u64,
        /// Admission-to-completion latency, ns.
        latency_ns: u64,
        /// Times the tenant was preempted.
        preemptions: u64,
        /// Times the tenant changed nodes.
        migrations: u64,
        /// Checkpoint generations written for the tenant.
        generations: u64,
        /// 1 if the final result checksums matched the uninterrupted
        /// solo baseline, 0 otherwise.
        bit_exact: u64,
        /// 1 if the tenant finished within its SLO budget, 0 otherwise.
        slo_ok: u64,
    }
    /// A chunk store opened with a torn final frame (a crash landed
    /// mid-append); the store was truncated back to the last intact
    /// frame instead of erroring the whole `checl.cas`.
    StoreTruncated = "store_truncated" {
        /// Store path.
        path: String,
        /// Bytes of torn tail dropped by the truncation.
        dropped: u64,
    }
    /// The failure detector suspected a component that turned out to
    /// be alive (a gray failure: lost/jittered heartbeats, not a
    /// death). The probe cost is booked as supervisor-induced
    /// overhead, not application failure.
    FalsePositive = "false_positive" {
        /// The suspected-but-alive beat source.
        source: String,
        /// Virtual time spent probing before the suspicion cleared.
        induced_ns: u64,
    }
    /// A stale writer (pre-partition epoch) tried to commit a vault
    /// generation after a failover and was fenced off; its staged
    /// file was discarded instead of double-committing.
    WriterFenced = "writer_fenced" {
        /// Generation the stale writer tried to commit.
        generation: u64,
        /// Epoch the writer held.
        held_epoch: u64,
        /// Epoch currently in force at the vault.
        current_epoch: u64,
        /// Staged path that was discarded.
        path: String,
    }
    /// The fleet scheduler rejected an admission under sustained
    /// checkpoint-channel backlog (the top rung of the backpressure
    /// ladder) instead of silently queueing the job forever.
    AdmissionRejected = "admission_rejected" {
        /// Fleet-unique job name.
        job: String,
        /// Observed `ckpt.disk` backlog at rejection, ns.
        backlog_ns: u64,
    }
}

impl EventKind {
    /// The counter this record bumps by one in the trace projection —
    /// the layer metric a trace consumer reads instead of counting
    /// records. `None` for every other record.
    pub(crate) fn counter(&self, component: &str) -> Option<&'static str> {
        match (component, self) {
            ("engine", EventKind::RestoreCompleted { .. }) => Some("cpr.restarts"),
            ("mpi", EventKind::CheckpointCommitted { .. }) => Some("mpi.global_snapshots"),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Ledger recording
// ---------------------------------------------------------------------

/// Start the ledger projection on this thread, discarding any previous
/// ledger. A trace sink, if installed, is left alone.
pub fn start_recording() {
    telemetry::with_ledger(|l| *l = Some(Ledger::default()));
}

/// Detach and return the thread's ledger; the ledger projection stops.
pub fn stop_recording() -> Option<Ledger> {
    telemetry::with_ledger(Option::take)
}

/// Number of records in this thread's ledger so far (0 when the ledger
/// is off). The crash-point torture harness uses this as its
/// deterministic boundary counter: every record is a point where a
/// real crash could land between two externally visible effects.
pub fn event_count() -> usize {
    telemetry::with_ledger(|l| l.as_ref().map_or(0, Ledger::len))
}

/// Emit one record from `component` at virtual time `t` into the event
/// stream: the ledger keeps it, and the trace sees it as an instant
/// plus the counter the record implies. A no-op when nothing records.
/// Emission is pure bookkeeping — it never advances a clock, so an
/// instrumented run is bit-identical in virtual time to a bare one.
pub fn emit(component: &'static str, t: SimTime, kind: EventKind) {
    telemetry::record(component, t, kind);
}

// ---------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------

/// Error raised by the JSONL parser or lineage verification.
#[derive(Debug, PartialEq)]
pub enum ObsError {
    /// A line was not a flat JSON object.
    Parse(usize, String),
    /// Unknown event kind.
    Kind(String),
    /// A kind was missing a field (kind, field).
    Field(String, String),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Parse(line, why) => write!(f, "jsonl line {line}: {why}"),
            ObsError::Kind(k) => write!(f, "unknown event kind {k:?}"),
            ObsError::Field(k, field) => write!(f, "event {k:?} missing field {field:?}"),
        }
    }
}

impl std::error::Error for ObsError {}

/// The append-only record ledger of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    events: Vec<Event>,
}

impl Ledger {
    pub(crate) fn push(&mut self, component: &str, t: SimTime, kind: EventKind) {
        let id = self.events.len() as u64;
        self.events.push(Event {
            id,
            t,
            component: component.to_string(),
            kind,
        });
    }

    /// All events in emission (id) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events sorted by `(t, id)` — virtual-time order with emission
    /// order breaking ties, so the ordering is total and stable.
    pub fn sorted(&self) -> Vec<&Event> {
        let mut out: Vec<&Event> = self.events.iter().collect();
        out.sort_by_key(|e| (e.t, e.id));
        out
    }

    /// Query by kind name, component and/or closed time window; `None`
    /// matches everything. Results come back in `(t, id)` order.
    pub fn query(
        &self,
        kind: Option<&str>,
        component: Option<&str>,
        window: Option<(SimTime, SimTime)>,
    ) -> Vec<&Event> {
        self.sorted()
            .into_iter()
            .filter(|e| kind.is_none_or(|k| e.kind.name() == k))
            .filter(|e| component.is_none_or(|c| e.component == c))
            .filter(|e| window.is_none_or(|(lo, hi)| e.t >= lo && e.t <= hi))
            .collect()
    }

    /// Fold a `u64` projection of every event into a mergeable
    /// histogram (`None` projections are skipped). The basis of every
    /// p50/p95/p99 column in `checl_inspect`.
    pub fn digest<F>(&self, f: F) -> Histogram
    where
        F: Fn(&Event) -> Option<u64>,
    {
        let mut h = Histogram::default();
        for e in &self.events {
            if let Some(v) = f(e) {
                h.observe(v);
            }
        }
        h
    }

    /// Aggregate channel utilization: channel name → (busy_ns, ops),
    /// summed over every [`EventKind::ChannelObserved`] record.
    pub fn channel_utilization(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for e in &self.events {
            if let EventKind::ChannelObserved {
                channel,
                busy_ns,
                ops,
            } = &e.kind
            {
                let entry = out.entry(channel.clone()).or_insert((0, 0));
                entry.0 += busy_ns;
                entry.1 += ops;
            }
        }
        out
    }

    /// Serialize to JSON Lines, one flat object per record in `(t, id)`
    /// order. Byte-deterministic: fixed key order, integer-only
    /// numbers.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.sorted() {
            out.push_str(&format!(
                "{{\"id\":{},\"t\":{},\"component\":\"{}\",\"kind\":\"{}\"",
                e.id,
                e.t.as_nanos(),
                json_escape(&e.component),
                e.kind.name()
            ));
            for (k, v) in e.kind.fields() {
                out.push(',');
                push_json_arg(&mut out, k, &v);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parse a ledger back from [`Ledger::to_jsonl`] output. Records are
    /// stored in the file's order; ids are taken from the records.
    pub fn from_jsonl(text: &str) -> Result<Ledger, ObsError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let map = parse_flat_object(line).map_err(|e| ObsError::Parse(i + 1, e))?;
            let get = |k: &str| {
                map.get(k)
                    .ok_or_else(|| ObsError::Parse(i + 1, format!("missing {k:?}")))
            };
            let get_u = |k: &str| {
                u64::from_arg(get(k)?)
                    .ok_or_else(|| ObsError::Parse(i + 1, format!("missing {k:?}")))
            };
            let get_s = |k: &str| {
                String::from_arg(get(k)?)
                    .ok_or_else(|| ObsError::Parse(i + 1, format!("missing {k:?}")))
            };
            let kind = get_s("kind")?;
            events.push(Event {
                id: get_u("id")?,
                t: SimTime::from_nanos(get_u("t")?),
                component: get_s("component")?,
                kind: EventKind::from_fields(&kind, &map)?,
            });
        }
        Ok(Ledger { events })
    }
}

/// Parse one flat JSON object (string / unsigned-integer values only —
/// exactly what [`Ledger::to_jsonl`] emits). Hand-rolled because the
/// workspace carries no external dependencies.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, ArgValue>, String> {
    let bytes: Vec<char> = line.chars().collect();
    let mut pos = 0usize;
    let mut map = BTreeMap::new();

    fn skip_ws(bytes: &[char], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[char], pos: &mut usize, c: char) -> Result<(), String> {
        skip_ws(bytes, pos);
        if *pos < bytes.len() && bytes[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at {pos}"))
        }
    }

    fn parse_string(bytes: &[char], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, '"')?;
        let mut out = String::new();
        while *pos < bytes.len() {
            let c = bytes[*pos];
            *pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = *bytes.get(*pos).ok_or("dangling escape")?;
                    *pos += 1;
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            if *pos + 4 > bytes.len() {
                                return Err("short \\u escape".into());
                            }
                            let hex: String = bytes[*pos..*pos + 4].iter().collect();
                            *pos += 4;
                            let code = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or(format!("bad \\u{hex}"))?);
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    expect(&bytes, &mut pos, '{')?;
    skip_ws(&bytes, &mut pos);
    if pos < bytes.len() && bytes[pos] == '}' {
        return Ok(map);
    }
    loop {
        skip_ws(&bytes, &mut pos);
        let key = parse_string(&bytes, &mut pos)?;
        expect(&bytes, &mut pos, ':')?;
        skip_ws(&bytes, &mut pos);
        let val = if pos < bytes.len() && bytes[pos] == '"' {
            ArgValue::Str(parse_string(&bytes, &mut pos)?)
        } else {
            let start = pos;
            while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                pos += 1;
            }
            if pos == start {
                return Err(format!("expected value at {pos}"));
            }
            let num: String = bytes[start..pos].iter().collect();
            ArgValue::U64(num.parse::<u64>().map_err(|e| e.to_string())?)
        };
        map.insert(key, val);
        skip_ws(&bytes, &mut pos);
        match bytes.get(pos) {
            Some(',') => pos += 1,
            Some('}') => break,
            _ => return Err(format!("expected ',' or '}}' at {pos}")),
        }
    }
    Ok(map)
}

// ---------------------------------------------------------------------
// Provenance graph
// ---------------------------------------------------------------------

/// Outcome of one scrub touch on a generation.
#[derive(Clone, Debug, PartialEq)]
pub enum ScrubOutcome {
    /// `n` replicas verified clean.
    Verified(u64),
    /// The named replica was rewritten from a healthy copy.
    Repaired(String),
    /// Every replica was damaged.
    Lost,
}

/// One dump file in the provenance graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DumpNode {
    /// Committed path (graph key).
    pub path: String,
    /// On-disk format.
    pub format: String,
    /// Policy lattice point that produced it.
    pub policy: String,
    /// Paths of the dumps this one depends on.
    pub bases: Vec<String>,
    /// Live buffers considered.
    pub buffers: u64,
    /// Chunks written (streamed only).
    pub chunks: u64,
    /// Logical bytes across live buffers.
    pub logical_bytes: u64,
    /// Serialized on-disk size.
    pub file_bytes: u64,
    /// Commit instant.
    pub committed_at: SimTime,
    /// Vault generation number, when committed to a vault.
    pub generation: Option<u64>,
    /// FNV-64 of the stored bytes, recorded by the vault commit.
    pub checksum: Option<u64>,
    /// Replica paths (primary first), when vault-committed.
    pub replicas: Vec<String>,
    /// Scrub history in event order.
    pub scrubs: Vec<(SimTime, ScrubOutcome)>,
    /// `true` once the vault garbage-collected the generation.
    pub retired: bool,
    /// `true` when a scrub declared every replica damaged.
    pub lost: bool,
}

/// The dump-lineage graph derived from a ledger: nodes keyed by path,
/// edges from each dump to the files it depends on (a coordinated MPI
/// snapshot to its per-rank files).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProvenanceGraph {
    nodes: BTreeMap<String, DumpNode>,
}

impl ProvenanceGraph {
    /// Build the graph from checkpoint/vault events in a ledger.
    pub fn from_ledger(ledger: &Ledger) -> ProvenanceGraph {
        let mut nodes: BTreeMap<String, DumpNode> = BTreeMap::new();
        // Generation → primary path, to attach scrub/GC events.
        let mut gen_path: BTreeMap<u64, String> = BTreeMap::new();
        for e in ledger.sorted() {
            match &e.kind {
                EventKind::CheckpointCommitted {
                    path,
                    format,
                    policy,
                    bases,
                    buffers,
                    chunks,
                    logical_bytes,
                    file_bytes,
                    ..
                } => {
                    // Re-commits to the same path (e.g. round-robin
                    // slots) overwrite: the newest dump is the live
                    // one.
                    nodes.insert(
                        path.clone(),
                        DumpNode {
                            path: path.clone(),
                            format: format.clone(),
                            policy: policy.clone(),
                            bases: bases.clone(),
                            buffers: *buffers,
                            chunks: *chunks,
                            logical_bytes: *logical_bytes,
                            file_bytes: *file_bytes,
                            committed_at: e.t,
                            generation: None,
                            checksum: None,
                            replicas: Vec::new(),
                            scrubs: Vec::new(),
                            retired: false,
                            lost: false,
                        },
                    );
                }
                EventKind::GenerationCommitted {
                    generation,
                    path,
                    bytes,
                    checksum,
                    replicas,
                } => {
                    gen_path.insert(*generation, path.clone());
                    let node = nodes.entry(path.clone()).or_insert_with(|| DumpNode {
                        path: path.clone(),
                        format: String::new(),
                        policy: String::new(),
                        bases: Vec::new(),
                        buffers: 0,
                        chunks: 0,
                        logical_bytes: 0,
                        file_bytes: *bytes,
                        committed_at: e.t,
                        generation: None,
                        checksum: None,
                        replicas: Vec::new(),
                        scrubs: Vec::new(),
                        retired: false,
                        lost: false,
                    });
                    node.generation = Some(*generation);
                    node.checksum = Some(*checksum);
                    node.replicas = replicas.clone();
                }
                EventKind::ReplicaScrubbed {
                    generation,
                    verified,
                    ..
                } => {
                    if let Some(node) = gen_path.get(generation).and_then(|p| nodes.get_mut(p)) {
                        node.scrubs.push((e.t, ScrubOutcome::Verified(*verified)));
                    }
                }
                EventKind::ReplicaRepaired {
                    generation,
                    replica,
                    ..
                } => {
                    if let Some(node) = gen_path.get(generation).and_then(|p| nodes.get_mut(p)) {
                        node.scrubs
                            .push((e.t, ScrubOutcome::Repaired(replica.clone())));
                    }
                }
                EventKind::ReplicaLost { generation, .. } => {
                    if let Some(node) = gen_path.get(generation).and_then(|p| nodes.get_mut(p)) {
                        node.scrubs.push((e.t, ScrubOutcome::Lost));
                        node.lost = true;
                    }
                }
                EventKind::GenerationRetired { generation, .. } => {
                    if let Some(node) = gen_path.get(generation).and_then(|p| nodes.get_mut(p)) {
                        node.retired = true;
                    }
                }
                _ => {}
            }
        }
        ProvenanceGraph { nodes }
    }

    /// The node for `path`, if a commit was recorded.
    pub fn node(&self, path: &str) -> Option<&DumpNode> {
        self.nodes.get(path)
    }

    /// All nodes in path order.
    pub fn nodes(&self) -> impl Iterator<Item = &DumpNode> {
        self.nodes.values()
    }

    /// Every file a restore of `path` will touch: the dump itself
    /// first, then its base closure in breadth-first, path-sorted
    /// order. Unknown bases appear as paths with no node.
    pub fn lineage(&self, path: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut queue = vec![path.to_string()];
        while let Some(p) = queue.pop() {
            if out.contains(&p) {
                continue;
            }
            out.push(p.clone());
            if let Some(node) = self.nodes.get(&p) {
                let mut bases = node.bases.clone();
                bases.sort();
                // Depth-first via the stack; reverse keeps sorted
                // visit order.
                for b in bases.into_iter().rev() {
                    queue.push(b);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// SLO accounting
// ---------------------------------------------------------------------

/// Service-level accounting summed from a ledger's incident and
/// checkpoint events. Because the supervisor emits every quantity at
/// the instant it charges it, these sums reconcile exactly with its
/// internal report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloSummary {
    /// Supervised horizon the ratios divide by.
    pub horizon: SimDuration,
    /// Σ incident downtime.
    pub downtime: SimDuration,
    /// Σ rolled-back (wasted) work.
    pub wasted: SimDuration,
    /// Σ supervisor-accounted checkpoint cost.
    pub overhead: SimDuration,
    /// Incidents opened.
    pub incidents: u64,
    /// Incidents closed without restoring service.
    pub unresolved: u64,
    /// Repair attempts across all incidents.
    pub repairs: u64,
    /// Checkpoints the supervisor accounted.
    pub checkpoints: u64,
    /// Faults the injection plan recorded.
    pub faults: u64,
    /// Interval retunes.
    pub retunes: u64,
}

impl SloSummary {
    /// Sum a ledger's events over `horizon` of supervised wall-clock.
    pub fn from_ledger(ledger: &Ledger, horizon: SimDuration) -> SloSummary {
        let mut s = SloSummary {
            horizon,
            ..SloSummary::default()
        };
        for e in ledger.events() {
            match &e.kind {
                EventKind::IncidentOpened { wasted_ns, .. } => {
                    s.incidents += 1;
                    s.wasted += SimDuration::from_nanos(*wasted_ns);
                }
                EventKind::IncidentClosed {
                    downtime_ns,
                    repairs,
                    resolved,
                    ..
                } => {
                    s.downtime += SimDuration::from_nanos(*downtime_ns);
                    s.repairs += repairs;
                    if *resolved == 0 {
                        s.unresolved += 1;
                    }
                }
                EventKind::CheckpointAccounted { cost_ns, .. } => {
                    s.checkpoints += 1;
                    s.overhead += SimDuration::from_nanos(*cost_ns);
                }
                EventKind::FaultInjected { .. } => s.faults += 1,
                EventKind::IntervalRetuned { .. } => s.retunes += 1,
                _ => {}
            }
        }
        s
    }

    /// Fraction of the horizon the service was up: `1 − downtime /
    /// horizon` (1.0 for an empty horizon).
    pub fn availability(&self) -> f64 {
        if self.horizon.is_zero() {
            1.0
        } else {
            1.0 - self.downtime.as_secs_f64() / self.horizon.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_ledger() -> Ledger {
        start_recording();
        emit(
            "engine",
            t(100),
            EventKind::CheckpointCommitted {
                path: "/nfs/a.ckpt".into(),
                format: "streamed".into(),
                policy: "streamed+pipelined+dedup".into(),
                bases: vec![],
                buffers: 4,
                chunks: 8,
                logical_bytes: 4096,
                file_bytes: 4200,
                sync_ns: 10,
                preprocess_ns: 20,
                write_ns: 60,
                postprocess_ns: 10,
                cost_ns: 100,
            },
        );
        emit(
            "engine",
            t(300),
            EventKind::CheckpointCommitted {
                path: "/nfs/b.ckpt".into(),
                format: "streamed".into(),
                policy: "streamed+pipelined+dedup".into(),
                bases: vec!["/nfs/a.ckpt".into()],
                buffers: 4,
                chunks: 2,
                logical_bytes: 4096,
                file_bytes: 1100,
                sync_ns: 5,
                preprocess_ns: 5,
                write_ns: 20,
                postprocess_ns: 5,
                cost_ns: 35,
            },
        );
        emit(
            "vault",
            t(120),
            EventKind::GenerationCommitted {
                generation: 1,
                path: "/nfs/a.ckpt".into(),
                bytes: 4200,
                checksum: 0xdead,
                replicas: vec!["/nfs/a.ckpt".into(), "/disk/a.ckpt".into()],
            },
        );
        emit(
            "vault",
            t(400),
            EventKind::ReplicaRepaired {
                generation: 1,
                path: "/nfs/a.ckpt".into(),
                replica: "/disk/a.ckpt".into(),
            },
        );
        emit(
            "supervisor",
            t(500),
            EventKind::IncidentOpened {
                source: "proxy_death".into(),
                wasted_ns: 50,
                detect_ns: 10,
            },
        );
        emit(
            "supervisor",
            t(600),
            EventKind::IncidentClosed {
                source: "proxy_death".into(),
                downtime_ns: 110,
                repairs: 1,
                resolved: 1,
            },
        );
        emit(
            "supervisor",
            t(310),
            EventKind::CheckpointAccounted {
                cost_ns: 40,
                progress: 7,
            },
        );
        stop_recording().unwrap()
    }

    #[test]
    fn ids_are_stable_and_sorted_is_time_ordered() {
        let ledger = sample_ledger();
        let ids: Vec<u64> = ledger.events().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
        let sorted = ledger.sorted();
        let times: Vec<u64> = sorted.iter().map(|e| e.t.as_nanos()).collect();
        assert_eq!(times, vec![100, 120, 300, 310, 400, 500, 600]);
    }

    #[test]
    fn query_filters_by_kind_component_window() {
        let ledger = sample_ledger();
        assert_eq!(
            ledger.query(Some("checkpoint_committed"), None, None).len(),
            2
        );
        assert_eq!(ledger.query(None, Some("vault"), None).len(), 2);
        assert_eq!(
            ledger
                .query(None, None, Some((t(300), t(500))))
                .iter()
                .map(|e| e.t.as_nanos())
                .collect::<Vec<_>>(),
            vec![300, 310, 400, 500]
        );
        assert_eq!(
            ledger
                .query(Some("incident_opened"), Some("supervisor"), None)
                .len(),
            1
        );
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let ledger = sample_ledger();
        let text = ledger.to_jsonl();
        let back = Ledger::from_jsonl(&text).unwrap();
        // Parsed events compare equal (order is (t, id) after
        // roundtrip, so compare as sorted sets).
        let a: Vec<&Event> = ledger.sorted();
        let b: Vec<&Event> = back.sorted();
        assert_eq!(a, b);
        // And re-serialization is byte-identical.
        assert_eq!(text, back.to_jsonl());
    }

    #[test]
    fn tenant_kinds_roundtrip_exactly() {
        start_recording();
        emit(
            "fleet",
            t(10),
            EventKind::TenantPreempted {
                job: "j0042.nbody".into(),
                node: 3,
                generation: 2,
                policy: "streamed+pipelined+dedup".into(),
            },
        );
        emit(
            "fleet",
            t(20),
            EventKind::TenantMigrated {
                job: "j0042.nbody".into(),
                from_node: 3,
                to_node: 1,
                live: 0,
            },
        );
        emit(
            "fleet",
            t(30),
            EventKind::TenantCompleted {
                job: "j0042.nbody".into(),
                node: 1,
                latency_ns: 123_456,
                preemptions: 1,
                migrations: 1,
                generations: 2,
                bit_exact: 1,
                slo_ok: 1,
            },
        );
        let ledger = stop_recording().unwrap();
        let text = ledger.to_jsonl();
        let back = Ledger::from_jsonl(&text).unwrap();
        assert_eq!(ledger, back);
        assert_eq!(text, back.to_jsonl());
    }

    #[test]
    fn jsonl_escapes_awkward_strings() {
        start_recording();
        emit(
            "fault",
            t(1),
            EventKind::FaultInjected {
                fault: "disk_write_fail".into(),
                detail: "path=\"/nfs/w\\x\"\n\ttab".into(),
            },
        );
        let ledger = stop_recording().unwrap();
        let text = ledger.to_jsonl();
        let back = Ledger::from_jsonl(&text).unwrap();
        assert_eq!(ledger, back);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Ledger::from_jsonl("{\"id\":0}").is_err());
        assert!(Ledger::from_jsonl("not json").is_err());
        assert!(
            Ledger::from_jsonl("{\"id\":0,\"t\":1,\"component\":\"x\",\"kind\":\"mystery\"}")
                .is_err()
        );
    }

    #[test]
    fn provenance_links_bases_and_vault_data() {
        let ledger = sample_ledger();
        let graph = ProvenanceGraph::from_ledger(&ledger);
        let a = graph.node("/nfs/a.ckpt").unwrap();
        assert_eq!(a.generation, Some(1));
        assert_eq!(a.checksum, Some(0xdead));
        assert_eq!(a.replicas.len(), 2);
        assert_eq!(a.scrubs.len(), 1);
        assert!(matches!(a.scrubs[0].1, ScrubOutcome::Repaired(_)));
        let lineage = graph.lineage("/nfs/b.ckpt");
        assert_eq!(
            lineage,
            vec!["/nfs/b.ckpt".to_string(), "/nfs/a.ckpt".to_string()]
        );
    }

    #[test]
    fn lineage_handles_diamonds_without_duplicates() {
        start_recording();
        let base = |path: &str, bases: Vec<String>| EventKind::CheckpointCommitted {
            path: path.into(),
            format: "streamed".into(),
            policy: "p".into(),
            bases,
            buffers: 1,
            chunks: 1,
            logical_bytes: 1,
            file_bytes: 1,
            sync_ns: 0,
            preprocess_ns: 0,
            write_ns: 0,
            postprocess_ns: 0,
            cost_ns: 0,
        };
        emit("engine", t(1), base("/a", vec![]));
        emit("engine", t(2), base("/b", vec!["/a".into()]));
        emit("engine", t(3), base("/c", vec!["/a".into()]));
        emit("engine", t(4), base("/d", vec!["/b".into(), "/c".into()]));
        let graph = ProvenanceGraph::from_ledger(&stop_recording().unwrap());
        let lineage = graph.lineage("/d");
        assert_eq!(
            lineage,
            vec![
                "/d".to_string(),
                "/b".to_string(),
                "/a".to_string(),
                "/c".to_string()
            ]
        );
    }

    #[test]
    fn slo_sums_reconcile() {
        let ledger = sample_ledger();
        let slo = SloSummary::from_ledger(&ledger, SimDuration::from_nanos(1000));
        assert_eq!(slo.incidents, 1);
        assert_eq!(slo.downtime, SimDuration::from_nanos(110));
        assert_eq!(slo.wasted, SimDuration::from_nanos(50));
        assert_eq!(slo.overhead, SimDuration::from_nanos(40));
        assert_eq!(slo.checkpoints, 1);
        assert_eq!(slo.unresolved, 0);
        assert!((slo.availability() - 0.89).abs() < 1e-9);
    }

    #[test]
    fn emit_without_recording_is_a_no_op() {
        assert!(!telemetry::enabled());
        emit(
            "engine",
            t(1),
            EventKind::RestoreStarted {
                path: "/x".into(),
                format: "sequential".into(),
            },
        );
        assert!(stop_recording().is_none());
    }
}
