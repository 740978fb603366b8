//! Dogfooding: describe a registry [`Snapshot`] as a PBIO record.
//!
//! The stats record is an ordinary PBIO format — its schema is generated from
//! the snapshot's metric names, laid out for the publisher's architecture,
//! registered like any other format and published on the reserved `$stats`
//! channel. Heterogeneous subscribers therefore receive stats through the
//! exact conversion machinery the stats are measuring.
//!
//! Field mapping (all fixed-size, so the record stays zero-copy eligible):
//!
//! | metric              | fields                                            |
//! |---------------------|---------------------------------------------------|
//! | header              | `role: u32`, `id: u32`, `seq: u64`, `t_ns: u64`   |
//! | counter `x`         | `c_x: u64`                                        |
//! | gauge `x`           | `g_x: i64`                                        |
//! | histogram `x`       | `h_x_count: u64`, `h_x_sum: u64`, `h_x_b: u64[B]` |
//! | trace ring          | `tr_count: u64`, `tr_stage/tr_at/tr_value: u64[T]`|
//!
//! The trace-ring arrays are fixed at [`TRACE_EXPORT_CAP`] slots whether
//! or not the ring is full, so the schema — and hence the registered
//! format id — depends only on the metric set. Stage labels travel as
//! their first 8 bytes packed big-endian into a `u64`.
//!
//! The same dogfooding applies to distributed-tracing hop records
//! ([`crate::TraceHop`]): [`hop_schema`] describes them as an all-scalar
//! PBIO record published on the reserved `$trace` channel.

use pbio_types::schema::{AtomType, FieldDecl, Schema, TypeDesc};
use pbio_types::value::{RecordValue, Value};

use crate::flight::FlightEvent;
use crate::metric::{HistogramSnapshot, BUCKETS};
use crate::registry::{Snapshot, TRACE_EXPORT_CAP};
use crate::tracectx::TraceHop;

/// Name of the generated stats format and of the reserved channel.
pub const STATS_FORMAT_NAME: &str = "$stats";

/// Name of the hop-record format and of the reserved trace channel.
pub const TRACE_FORMAT_NAME: &str = "$trace";

/// Name of the topology-snapshot format and of the reserved channel.
pub const TOPO_FORMAT_NAME: &str = "$topo";

/// Name of the flight-recorder event format (used both for `$topo`
/// embedding and for segment-file dumps).
pub const FLIGHT_FORMAT_NAME: &str = "$flight";

/// Snapshot publisher roles carried in the `role` header field.
pub const ROLE_DAEMON: u32 = 0;
/// See [`ROLE_DAEMON`].
pub const ROLE_CLIENT: u32 = 1;

/// Identity of one stats record: who published it and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsHeader {
    /// [`ROLE_DAEMON`] or [`ROLE_CLIENT`].
    pub role: u32,
    /// Publisher id (daemon: 0; client: its connection id).
    pub id: u32,
    /// Monotonic sequence number per publisher.
    pub seq: u64,
    /// Publisher-local monotonic timestamp in ns (for rate computation).
    pub t_ns: u64,
    /// Guaranteed-monotonic snapshot time in ns, strictly process-local:
    /// never skew-corrected or remapped into a peer timebase, so a
    /// monitor can compute correct rates between two snapshots of the
    /// same publisher without assuming the publish interval. Records
    /// from pre-`snapshot_ns` publishers parse back as 0.
    pub snapshot_ns: u64,
}

/// Map a metric name to a PBIO field-name-safe form.
pub fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Generate the PBIO schema describing `snap`. Field order follows the
/// snapshot's (sorted) metric order, so equal metric sets produce equal
/// schemas — and equal serialized `FormatMeta`, letting the format registry
/// dedup successive publications.
pub fn stats_schema(snap: &Snapshot) -> Schema {
    let mut fields = vec![
        FieldDecl::atom("role", AtomType::U32),
        FieldDecl::atom("id", AtomType::U32),
        FieldDecl::atom("seq", AtomType::U64),
        FieldDecl::atom("t_ns", AtomType::U64),
        FieldDecl::atom("snapshot_ns", AtomType::U64),
    ];
    let mut push = |f: FieldDecl| {
        if !fields.iter().any(|e| e.name == f.name) {
            fields.push(f);
        }
    };
    for (name, _) in &snap.counters {
        push(FieldDecl::atom(
            format!("c_{}", sanitize_metric_name(name)),
            AtomType::U64,
        ));
    }
    for (name, _) in &snap.gauges {
        push(FieldDecl::atom(
            format!("g_{}", sanitize_metric_name(name)),
            AtomType::I64,
        ));
    }
    for (name, _) in &snap.histograms {
        let base = sanitize_metric_name(name);
        push(FieldDecl::atom(format!("h_{base}_count"), AtomType::U64));
        push(FieldDecl::atom(format!("h_{base}_sum"), AtomType::U64));
        // Precomputed quantile bounds ride alongside the raw buckets so
        // downstream consumers don't reimplement the quantile math.
        push(FieldDecl::atom(format!("h_{base}_p50"), AtomType::U64));
        push(FieldDecl::atom(format!("h_{base}_p90"), AtomType::U64));
        push(FieldDecl::atom(format!("h_{base}_p99"), AtomType::U64));
        push(FieldDecl::new(
            format!("h_{base}_b"),
            TypeDesc::array(AtomType::U64, BUCKETS),
        ));
    }
    fields.push(FieldDecl::atom("tr_count", AtomType::U64));
    for name in ["tr_stage", "tr_at", "tr_value"] {
        fields.push(FieldDecl::new(
            name,
            TypeDesc::array(AtomType::U64, TRACE_EXPORT_CAP),
        ));
    }
    Schema::new(STATS_FORMAT_NAME, fields).expect("stats schema is always valid")
}

/// Pack a stage label's first 8 bytes into a big-endian `u64`.
fn pack_stage(stage: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = stage.len().min(8);
    bytes[..n].copy_from_slice(&stage.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

/// Inverse of [`pack_stage`] (truncated labels stay truncated).
fn unpack_stage(packed: u64) -> String {
    let bytes = packed.to_be_bytes();
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(8);
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}

/// Build the record value carrying `snap` under `header`, matching
/// [`stats_schema`]`(snap)` field for field.
pub fn stats_value(header: &StatsHeader, snap: &Snapshot) -> RecordValue {
    let mut rv = RecordValue::new()
        .with("role", header.role)
        .with("id", header.id)
        .with("seq", header.seq)
        .with("t_ns", header.t_ns)
        .with("snapshot_ns", header.snapshot_ns);
    for (name, v) in &snap.counters {
        rv.set(format!("c_{}", sanitize_metric_name(name)), *v);
    }
    for (name, v) in &snap.gauges {
        rv.set(format!("g_{}", sanitize_metric_name(name)), *v);
    }
    for (name, h) in &snap.histograms {
        let base = sanitize_metric_name(name);
        rv.set(format!("h_{base}_count"), h.count);
        rv.set(format!("h_{base}_sum"), h.sum);
        rv.set(format!("h_{base}_p50"), h.quantile(0.50));
        rv.set(format!("h_{base}_p90"), h.quantile(0.90));
        rv.set(format!("h_{base}_p99"), h.quantile(0.99));
        rv.set(
            format!("h_{base}_b"),
            Value::Array(h.buckets.iter().map(|&b| Value::U64(b)).collect()),
        );
    }
    let traces = &snap.traces[snap.traces.len().saturating_sub(TRACE_EXPORT_CAP)..];
    rv.set("tr_count", traces.len() as u64);
    let column = |f: &dyn Fn(&(String, u64, u64)) -> u64| {
        let mut col: Vec<Value> = traces.iter().map(|t| Value::U64(f(t))).collect();
        col.resize(TRACE_EXPORT_CAP, Value::U64(0));
        Value::Array(col)
    };
    rv.set("tr_stage", column(&|t| pack_stage(&t.0)));
    rv.set("tr_at", column(&|t| t.1));
    rv.set("tr_value", column(&|t| t.2));
    rv
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// Parse a stats record (decoded or converted from the wire) back into a
/// header and snapshot. Unknown fields are ignored; returns `None` if the
/// record lacks the header fields entirely.
pub fn snapshot_from_value(rv: &RecordValue) -> Option<(StatsHeader, Snapshot)> {
    let header = StatsHeader {
        role: as_u64(rv.get("role")?)? as u32,
        id: as_u64(rv.get("id")?)? as u32,
        seq: as_u64(rv.get("seq")?)?,
        t_ns: as_u64(rv.get("t_ns")?)?,
        snapshot_ns: rv.get("snapshot_ns").and_then(as_u64).unwrap_or(0),
    };
    let mut snap = Snapshot::default();
    let tr_count = rv.get("tr_count").and_then(as_u64).unwrap_or(0) as usize;
    if tr_count > 0 {
        let col = |name: &str| -> Vec<u64> {
            rv.get(name)
                .and_then(|v| v.as_array())
                .map(|a| a.iter().filter_map(as_u64).collect())
                .unwrap_or_default()
        };
        let (stages, ats, values) = (col("tr_stage"), col("tr_at"), col("tr_value"));
        for i in 0..tr_count.min(stages.len()).min(ats.len()).min(values.len()) {
            snap.traces
                .push((unpack_stage(stages[i]), ats[i], values[i]));
        }
    }
    for (name, value) in rv.fields() {
        if let Some(rest) = name.strip_prefix("c_") {
            if let Some(v) = as_u64(value) {
                snap.counters.push((rest.to_owned(), v));
            }
        } else if let Some(rest) = name.strip_prefix("g_") {
            if let Some(v) = value.as_i64() {
                snap.gauges.push((rest.to_owned(), v));
            }
        } else if let Some(rest) = name.strip_prefix("h_") {
            // Keyed off the `_count` field; `_sum` and `_b` are looked up.
            let Some(base) = rest.strip_suffix("_count") else {
                continue;
            };
            let mut h = HistogramSnapshot {
                count: as_u64(value)?,
                ..HistogramSnapshot::default()
            };
            if let Some(sum) = rv.get(&format!("h_{base}_sum")).and_then(as_u64) {
                h.sum = sum;
            }
            if let Some(buckets) = rv.get(&format!("h_{base}_b")).and_then(|v| v.as_array()) {
                for (slot, v) in h.buckets.iter_mut().zip(buckets.iter()) {
                    *slot = as_u64(v).unwrap_or(0);
                }
            }
            snap.histograms.push((base.to_owned(), h));
        }
    }
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    Some((header, snap))
}

/// The PBIO schema for one distributed-tracing hop record — all scalar
/// fields, so homogeneous monitors view `$trace` events zero-copy.
pub fn hop_schema() -> Schema {
    Schema::new(
        TRACE_FORMAT_NAME,
        vec![
            FieldDecl::atom("trace_id", AtomType::U64),
            FieldDecl::atom("span_id", AtomType::U32),
            FieldDecl::atom("hop", AtomType::U32),
            FieldDecl::atom("conn", AtomType::U32),
            FieldDecl::atom("chan", AtomType::U32),
            FieldDecl::atom("t_ns", AtomType::U64),
            FieldDecl::atom("dur_ns", AtomType::U64),
        ],
    )
    .expect("hop schema is always valid")
}

/// Build the record value for one hop, matching [`hop_schema`].
pub fn hop_value(hop: &TraceHop) -> RecordValue {
    RecordValue::new()
        .with("trace_id", hop.trace_id)
        .with("span_id", hop.span_id)
        .with("hop", hop.hop)
        .with("conn", hop.conn)
        .with("chan", hop.channel)
        .with("t_ns", hop.t_ns)
        .with("dur_ns", hop.dur_ns)
}

/// Parse a hop record decoded (or converted) from the wire. Returns
/// `None` if any field is missing — e.g. the record isn't a hop at all.
pub fn hop_from_value(rv: &RecordValue) -> Option<TraceHop> {
    Some(TraceHop {
        trace_id: as_u64(rv.get("trace_id")?)?,
        span_id: as_u64(rv.get("span_id")?)? as u32,
        hop: as_u64(rv.get("hop")?)? as u32,
        conn: as_u64(rv.get("conn")?)? as u32,
        channel: as_u64(rv.get("chan")?)? as u32,
        t_ns: as_u64(rv.get("t_ns")?)?,
        dur_ns: as_u64(rv.get("dur_ns")?)?,
    })
}

// ---------------------------------------------------------------------
// Topology snapshots: live daemon state as one self-describing record.
// ---------------------------------------------------------------------

/// Connections carried per topology record (columnar, fixed).
pub const TOPO_CONN_CAP: usize = 64;
/// Channels carried per topology record.
pub const TOPO_CHAN_CAP: usize = 64;
/// Reactor shards carried per topology record.
pub const TOPO_SHARD_CAP: usize = 32;
/// Consumer-lag watermarks carried per topology record.
pub const TOPO_LAG_CAP: usize = 64;
/// Flight-recorder events embedded per topology record.
pub const FLIGHT_EXPORT_CAP: usize = 64;
/// Mesh peer links carried per topology record.
pub const TOPO_PEER_CAP: usize = 16;

/// Per-connection topology: one live session as the daemon sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoConn {
    /// Daemon-assigned connection id.
    pub conn: u32,
    /// Reactor shard owning this connection's fd.
    pub shard: u32,
    /// Capability bits negotiated at the handshake.
    pub caps: u32,
    /// Event frames currently queued outbound (the backpressure signal).
    pub queue_depth: u64,
    /// Frame bytes written to this connection so far.
    pub bytes_sent: u64,
    /// Frames written to this connection so far.
    pub frames_sent: u64,
    /// Frames the wire tap captured on this connection (both directions;
    /// 0 when the tap is off or the daemon has none).
    pub tapped: u64,
    /// [`crate::epoch_ns`] of the last inbound activity (read or pong).
    pub last_active_ns: u64,
}

/// Per-channel topology: fan-out plus durable-log footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopoChannel {
    /// Daemon-assigned channel id.
    pub id: u32,
    /// Channel name (truncated to 8 bytes on the wire).
    pub name: String,
    /// Live subscribers attached to the fan-out.
    pub subscribers: u64,
    /// Events published on this channel since the daemon started.
    pub publishes: u64,
    /// Whether the channel is backed by a segment log.
    pub durable: bool,
    /// Next offset the durable log will assign (0 when not durable).
    pub head: u64,
    /// Segment files backing the channel (0 when not durable).
    pub segments: u64,
    /// Bytes on disk across those segments (0 when not durable).
    pub disk_bytes: u64,
    /// Shard-map home: the mesh index of the daemon that owns this
    /// channel's fan-out (the snapshotting daemon's own index for local
    /// and reserved channels; always 0 without a mesh).
    pub home: u32,
}

/// One daemon↔daemon mesh link as the dialing side sees it: liveness
/// plus the relay counters `pbio-top` renders per peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoPeer {
    /// The peer daemon's mesh index.
    pub peer: u32,
    /// Whether the link session is currently established.
    pub connected: bool,
    /// Publishes forwarded to the peer (frames written to the link).
    pub relay_tx: u64,
    /// Relayed events received from the peer and injected locally.
    pub relay_rx: u64,
    /// Forwards dropped (pending-queue overflow while resolving ids or
    /// riding out a disconnect).
    pub relay_dropped: u64,
    /// Forwards parked awaiting id resolution or reconnect.
    pub pending: u64,
    /// [`crate::epoch_ns`] of the last frame received from the peer.
    pub last_rx_ns: u64,
}

/// Per-shard topology: one readiness reactor's load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoShard {
    /// Shard index.
    pub shard: u32,
    /// Connections currently owned by this shard.
    pub conns: i64,
    /// File descriptors the last poll wakeup reported ready.
    pub ready: i64,
    /// Poll wakeups since the daemon started.
    pub wakeups: u64,
    /// CPU this shard's reactor thread is pinned to, or -1 when
    /// unpinned (pinning off, or `sched_setaffinity` unavailable).
    pub cpu: i64,
}

/// One consumer-lag watermark: how far a durable subscriber trails the
/// log head. `delivered` counts events delivered (equivalently: the next
/// offset due), so `lag() == 0` means fully caught up — including a
/// replay that has handed off to live delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoLag {
    /// Channel id.
    pub chan: u32,
    /// Subscriber's connection id.
    pub conn: u32,
    /// Log head (next offset to be assigned) at snapshot time.
    pub head: u64,
    /// Events delivered to this subscriber (next offset due).
    pub delivered: u64,
}

impl TopoLag {
    /// Events between the log head and this consumer.
    pub fn lag(&self) -> u64 {
        self.head.saturating_sub(self.delivered)
    }
}

/// A whole topology capture: what a `CTL_TOPO` pull answers and the `$topo`
/// channel pushes. The `*_total` fields carry true population sizes so a
/// consumer can tell when the fixed wire caps truncated a section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopoSnapshot {
    /// [`crate::epoch_ns`] capture time (daemon timebase).
    pub t_ns: u64,
    /// Live connections (may exceed `conns.len()`).
    pub conn_total: u64,
    /// Channels (may exceed `channels.len()`).
    pub chan_total: u64,
    /// Lag watermarks (may exceed `lags.len()`).
    pub lag_total: u64,
    /// Flight events ever recorded (the ring keeps the newest).
    pub flight_total: u64,
    /// Per-connection rows, capped at [`TOPO_CONN_CAP`].
    pub conns: Vec<TopoConn>,
    /// Per-channel rows, capped at [`TOPO_CHAN_CAP`].
    pub channels: Vec<TopoChannel>,
    /// Per-shard rows, capped at [`TOPO_SHARD_CAP`].
    pub shards: Vec<TopoShard>,
    /// Consumer-lag watermarks, capped at [`TOPO_LAG_CAP`].
    pub lags: Vec<TopoLag>,
    /// Most recent flight events, capped at [`FLIGHT_EXPORT_CAP`].
    pub flight: Vec<FlightEvent>,
    /// Mesh peer links, capped at [`TOPO_PEER_CAP`] (empty without a
    /// mesh, and when parsing records from pre-mesh daemons).
    pub peers: Vec<TopoPeer>,
}

/// The fixed PBIO schema describing a [`TopoSnapshot`]. Like the trace
/// ring, every section is a fixed-capacity columnar array plus a count,
/// so the schema — and hence the registered format id — never varies
/// with daemon load.
pub fn topo_schema() -> Schema {
    let mut fields = vec![
        FieldDecl::atom("t_ns", AtomType::U64),
        FieldDecl::atom("cn_total", AtomType::U64),
        FieldDecl::atom("ch_total", AtomType::U64),
        FieldDecl::atom("lag_total", AtomType::U64),
        FieldDecl::atom("fl_total", AtomType::U64),
        FieldDecl::atom("cn_count", AtomType::U64),
        FieldDecl::atom("ch_count", AtomType::U64),
        FieldDecl::atom("sh_count", AtomType::U64),
        FieldDecl::atom("lag_count", AtomType::U64),
        FieldDecl::atom("fl_count", AtomType::U64),
        FieldDecl::atom("pe_count", AtomType::U64),
    ];
    let mut arrays = |names: &[&str], cap: usize| {
        for name in names {
            fields.push(FieldDecl::new(
                name.to_string(),
                TypeDesc::array(AtomType::U64, cap),
            ));
        }
    };
    arrays(
        &[
            "cn_id",
            "cn_shard",
            "cn_caps",
            "cn_queue",
            "cn_bytes",
            "cn_frames",
            "cn_tap",
            "cn_active_ns",
        ],
        TOPO_CONN_CAP,
    );
    arrays(
        &[
            "ch_id",
            "ch_name",
            "ch_subs",
            "ch_pubs",
            "ch_durable",
            "ch_head",
            "ch_segs",
            "ch_disk",
            "ch_home",
        ],
        TOPO_CHAN_CAP,
    );
    arrays(
        &["sh_id", "sh_conns", "sh_ready", "sh_wakeups", "sh_cpu"],
        TOPO_SHARD_CAP,
    );
    arrays(
        &["lag_chan", "lag_conn", "lag_head", "lag_delivered"],
        TOPO_LAG_CAP,
    );
    arrays(
        &["fl_t", "fl_kind", "fl_conn", "fl_chan", "fl_code", "fl_aux"],
        FLIGHT_EXPORT_CAP,
    );
    arrays(
        &[
            "pe_id",
            "pe_up",
            "pe_tx",
            "pe_rx",
            "pe_drop",
            "pe_pend",
            "pe_last_ns",
        ],
        TOPO_PEER_CAP,
    );
    Schema::new(TOPO_FORMAT_NAME, fields).expect("topo schema is always valid")
}

/// Build one fixed-capacity u64 column from the first `cap` items.
fn topo_column<T>(items: &[T], cap: usize, f: impl Fn(&T) -> u64) -> Value {
    let mut col: Vec<Value> = items.iter().take(cap).map(|t| Value::U64(f(t))).collect();
    col.resize(cap, Value::U64(0));
    Value::Array(col)
}

/// Build the record value for `topo`, matching [`topo_schema`] field for
/// field. Sections longer than their caps are truncated (the `*_total`
/// fields still carry the true sizes).
pub fn topo_value(topo: &TopoSnapshot) -> RecordValue {
    let mut rv = RecordValue::new()
        .with("t_ns", topo.t_ns)
        .with("cn_total", topo.conn_total)
        .with("ch_total", topo.chan_total)
        .with("lag_total", topo.lag_total)
        .with("fl_total", topo.flight_total)
        .with("cn_count", topo.conns.len().min(TOPO_CONN_CAP) as u64)
        .with("ch_count", topo.channels.len().min(TOPO_CHAN_CAP) as u64)
        .with("sh_count", topo.shards.len().min(TOPO_SHARD_CAP) as u64)
        .with("lag_count", topo.lags.len().min(TOPO_LAG_CAP) as u64)
        .with("fl_count", topo.flight.len().min(FLIGHT_EXPORT_CAP) as u64)
        .with("pe_count", topo.peers.len().min(TOPO_PEER_CAP) as u64);
    let cn = &topo.conns;
    rv.set(
        "cn_id",
        topo_column(cn, TOPO_CONN_CAP, |c| u64::from(c.conn)),
    );
    rv.set(
        "cn_shard",
        topo_column(cn, TOPO_CONN_CAP, |c| u64::from(c.shard)),
    );
    rv.set(
        "cn_caps",
        topo_column(cn, TOPO_CONN_CAP, |c| u64::from(c.caps)),
    );
    rv.set(
        "cn_queue",
        topo_column(cn, TOPO_CONN_CAP, |c| c.queue_depth),
    );
    rv.set("cn_bytes", topo_column(cn, TOPO_CONN_CAP, |c| c.bytes_sent));
    rv.set(
        "cn_frames",
        topo_column(cn, TOPO_CONN_CAP, |c| c.frames_sent),
    );
    rv.set("cn_tap", topo_column(cn, TOPO_CONN_CAP, |c| c.tapped));
    rv.set(
        "cn_active_ns",
        topo_column(cn, TOPO_CONN_CAP, |c| c.last_active_ns),
    );
    let ch = &topo.channels;
    rv.set("ch_id", topo_column(ch, TOPO_CHAN_CAP, |c| u64::from(c.id)));
    rv.set(
        "ch_name",
        topo_column(ch, TOPO_CHAN_CAP, |c| pack_stage(&c.name)),
    );
    rv.set("ch_subs", topo_column(ch, TOPO_CHAN_CAP, |c| c.subscribers));
    rv.set("ch_pubs", topo_column(ch, TOPO_CHAN_CAP, |c| c.publishes));
    rv.set(
        "ch_durable",
        topo_column(ch, TOPO_CHAN_CAP, |c| u64::from(c.durable)),
    );
    rv.set("ch_head", topo_column(ch, TOPO_CHAN_CAP, |c| c.head));
    rv.set("ch_segs", topo_column(ch, TOPO_CHAN_CAP, |c| c.segments));
    rv.set("ch_disk", topo_column(ch, TOPO_CHAN_CAP, |c| c.disk_bytes));
    rv.set(
        "ch_home",
        topo_column(ch, TOPO_CHAN_CAP, |c| u64::from(c.home)),
    );
    let sh = &topo.shards;
    rv.set(
        "sh_id",
        topo_column(sh, TOPO_SHARD_CAP, |s| u64::from(s.shard)),
    );
    rv.set(
        "sh_conns",
        topo_column(sh, TOPO_SHARD_CAP, |s| s.conns.max(0) as u64),
    );
    rv.set(
        "sh_ready",
        topo_column(sh, TOPO_SHARD_CAP, |s| s.ready.max(0) as u64),
    );
    rv.set("sh_wakeups", topo_column(sh, TOPO_SHARD_CAP, |s| s.wakeups));
    // CPU pins are biased by one on the wire so the all-zero padding of
    // an unused slot reads back as "unpinned", not "CPU 0".
    rv.set(
        "sh_cpu",
        topo_column(sh, TOPO_SHARD_CAP, |s| (s.cpu + 1).max(0) as u64),
    );
    let lag = &topo.lags;
    rv.set(
        "lag_chan",
        topo_column(lag, TOPO_LAG_CAP, |l| u64::from(l.chan)),
    );
    rv.set(
        "lag_conn",
        topo_column(lag, TOPO_LAG_CAP, |l| u64::from(l.conn)),
    );
    rv.set("lag_head", topo_column(lag, TOPO_LAG_CAP, |l| l.head));
    rv.set(
        "lag_delivered",
        topo_column(lag, TOPO_LAG_CAP, |l| l.delivered),
    );
    // Flight events: keep the *newest* when over cap.
    let fl_start = topo.flight.len().saturating_sub(FLIGHT_EXPORT_CAP);
    let fl = &topo.flight[fl_start..];
    rv.set("fl_t", topo_column(fl, FLIGHT_EXPORT_CAP, |e| e.t_ns));
    rv.set(
        "fl_kind",
        topo_column(fl, FLIGHT_EXPORT_CAP, |e| u64::from(e.kind)),
    );
    rv.set(
        "fl_conn",
        topo_column(fl, FLIGHT_EXPORT_CAP, |e| u64::from(e.conn)),
    );
    rv.set(
        "fl_chan",
        topo_column(fl, FLIGHT_EXPORT_CAP, |e| u64::from(e.chan)),
    );
    rv.set(
        "fl_code",
        topo_column(fl, FLIGHT_EXPORT_CAP, |e| u64::from(e.code)),
    );
    rv.set("fl_aux", topo_column(fl, FLIGHT_EXPORT_CAP, |e| e.aux));
    let pe = &topo.peers;
    rv.set(
        "pe_id",
        topo_column(pe, TOPO_PEER_CAP, |p| u64::from(p.peer)),
    );
    rv.set(
        "pe_up",
        topo_column(pe, TOPO_PEER_CAP, |p| u64::from(p.connected)),
    );
    rv.set("pe_tx", topo_column(pe, TOPO_PEER_CAP, |p| p.relay_tx));
    rv.set("pe_rx", topo_column(pe, TOPO_PEER_CAP, |p| p.relay_rx));
    rv.set(
        "pe_drop",
        topo_column(pe, TOPO_PEER_CAP, |p| p.relay_dropped),
    );
    rv.set("pe_pend", topo_column(pe, TOPO_PEER_CAP, |p| p.pending));
    rv.set(
        "pe_last_ns",
        topo_column(pe, TOPO_PEER_CAP, |p| p.last_rx_ns),
    );
    rv
}

/// Parse a topology record (decoded or converted from the wire) back
/// into a [`TopoSnapshot`]. Returns `None` if the record lacks the
/// topology counts entirely.
pub fn topo_from_value(rv: &RecordValue) -> Option<TopoSnapshot> {
    let col = |name: &str| -> Vec<u64> {
        rv.get(name)
            .and_then(|v| v.as_array())
            .map(|a| a.iter().filter_map(as_u64).collect())
            .unwrap_or_default()
    };
    let count = |name: &str| -> usize { rv.get(name).and_then(as_u64).unwrap_or(0) as usize };
    let mut topo = TopoSnapshot {
        t_ns: as_u64(rv.get("t_ns")?)?,
        conn_total: as_u64(rv.get("cn_total")?)?,
        chan_total: rv.get("ch_total").and_then(as_u64).unwrap_or(0),
        lag_total: rv.get("lag_total").and_then(as_u64).unwrap_or(0),
        flight_total: rv.get("fl_total").and_then(as_u64).unwrap_or(0),
        ..TopoSnapshot::default()
    };
    {
        let (id, shard, caps) = (col("cn_id"), col("cn_shard"), col("cn_caps"));
        let (queue, bytes) = (col("cn_queue"), col("cn_bytes"));
        let (frames, tap, active) = (col("cn_frames"), col("cn_tap"), col("cn_active_ns"));
        for (i, &id) in id.iter().enumerate().take(count("cn_count")) {
            topo.conns.push(TopoConn {
                conn: id as u32,
                shard: shard.get(i).copied().unwrap_or(0) as u32,
                caps: caps.get(i).copied().unwrap_or(0) as u32,
                queue_depth: queue.get(i).copied().unwrap_or(0),
                bytes_sent: bytes.get(i).copied().unwrap_or(0),
                frames_sent: frames.get(i).copied().unwrap_or(0),
                tapped: tap.get(i).copied().unwrap_or(0),
                last_active_ns: active.get(i).copied().unwrap_or(0),
            });
        }
    }
    {
        let (id, name, subs, pubs) = (col("ch_id"), col("ch_name"), col("ch_subs"), col("ch_pubs"));
        let (durable, head, segs, disk) = (
            col("ch_durable"),
            col("ch_head"),
            col("ch_segs"),
            col("ch_disk"),
        );
        let home = col("ch_home");
        for (i, &id) in id.iter().enumerate().take(count("ch_count")) {
            topo.channels.push(TopoChannel {
                id: id as u32,
                name: unpack_stage(name.get(i).copied().unwrap_or(0)),
                subscribers: subs.get(i).copied().unwrap_or(0),
                publishes: pubs.get(i).copied().unwrap_or(0),
                durable: durable.get(i).copied().unwrap_or(0) != 0,
                head: head.get(i).copied().unwrap_or(0),
                segments: segs.get(i).copied().unwrap_or(0),
                disk_bytes: disk.get(i).copied().unwrap_or(0),
                home: home.get(i).copied().unwrap_or(0) as u32,
            });
        }
    }
    {
        let (id, conns, ready, wakeups) = (
            col("sh_id"),
            col("sh_conns"),
            col("sh_ready"),
            col("sh_wakeups"),
        );
        let cpu = col("sh_cpu");
        for (i, &id) in id.iter().enumerate().take(count("sh_count")) {
            topo.shards.push(TopoShard {
                shard: id as u32,
                conns: conns.get(i).copied().unwrap_or(0) as i64,
                ready: ready.get(i).copied().unwrap_or(0) as i64,
                wakeups: wakeups.get(i).copied().unwrap_or(0),
                cpu: cpu.get(i).copied().unwrap_or(0) as i64 - 1,
            });
        }
    }
    {
        let (chan, conn, head, delivered) = (
            col("lag_chan"),
            col("lag_conn"),
            col("lag_head"),
            col("lag_delivered"),
        );
        for (i, &chan) in chan.iter().enumerate().take(count("lag_count")) {
            topo.lags.push(TopoLag {
                chan: chan as u32,
                conn: conn.get(i).copied().unwrap_or(0) as u32,
                head: head.get(i).copied().unwrap_or(0),
                delivered: delivered.get(i).copied().unwrap_or(0),
            });
        }
    }
    {
        let (t, kind, conn) = (col("fl_t"), col("fl_kind"), col("fl_conn"));
        let (chan, code, aux) = (col("fl_chan"), col("fl_code"), col("fl_aux"));
        for (i, &t) in t.iter().enumerate().take(count("fl_count")) {
            topo.flight.push(FlightEvent {
                t_ns: t,
                kind: kind.get(i).copied().unwrap_or(0) as u32,
                conn: conn.get(i).copied().unwrap_or(0) as u32,
                chan: chan.get(i).copied().unwrap_or(0) as u32,
                code: code.get(i).copied().unwrap_or(0) as u32,
                aux: aux.get(i).copied().unwrap_or(0),
            });
        }
    }
    {
        let (id, up, tx, rx) = (col("pe_id"), col("pe_up"), col("pe_tx"), col("pe_rx"));
        let (drop, pend, last) = (col("pe_drop"), col("pe_pend"), col("pe_last_ns"));
        for (i, &id) in id.iter().enumerate().take(count("pe_count")) {
            topo.peers.push(TopoPeer {
                peer: id as u32,
                connected: up.get(i).copied().unwrap_or(0) != 0,
                relay_tx: tx.get(i).copied().unwrap_or(0),
                relay_rx: rx.get(i).copied().unwrap_or(0),
                relay_dropped: drop.get(i).copied().unwrap_or(0),
                pending: pend.get(i).copied().unwrap_or(0),
                last_rx_ns: last.get(i).copied().unwrap_or(0),
            });
        }
    }
    Some(topo)
}

/// The PBIO schema for one flight-recorder event — all scalar fields,
/// used for segment-file dumps (one record per event).
pub fn flight_schema() -> Schema {
    Schema::new(
        FLIGHT_FORMAT_NAME,
        vec![
            FieldDecl::atom("t_ns", AtomType::U64),
            FieldDecl::atom("kind", AtomType::U32),
            FieldDecl::atom("conn", AtomType::U32),
            FieldDecl::atom("chan", AtomType::U32),
            FieldDecl::atom("code", AtomType::U32),
            FieldDecl::atom("aux", AtomType::U64),
        ],
    )
    .expect("flight schema is always valid")
}

/// Build the record value for one flight event, matching
/// [`flight_schema`].
pub fn flight_value(ev: &FlightEvent) -> RecordValue {
    RecordValue::new()
        .with("t_ns", ev.t_ns)
        .with("kind", ev.kind)
        .with("conn", ev.conn)
        .with("chan", ev.chan)
        .with("code", ev.code)
        .with("aux", ev.aux)
}

/// Parse a flight event decoded (or converted) from a dump. Returns
/// `None` if any field is missing.
pub fn flight_from_value(rv: &RecordValue) -> Option<FlightEvent> {
    Some(FlightEvent {
        t_ns: as_u64(rv.get("t_ns")?)?,
        kind: as_u64(rv.get("kind")?)? as u32,
        conn: as_u64(rv.get("conn")?)? as u32,
        chan: as_u64(rv.get("chan")?)? as u32,
        code: as_u64(rv.get("code")?)? as u32,
        aux: as_u64(rv.get("aux")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use pbio_types::arch::ArchProfile;
    use pbio_types::layout::Layout;
    use pbio_types::value::{decode_native, encode_native};

    fn sample() -> (StatsHeader, Snapshot) {
        let r = Registry::new();
        r.counter("events_in").add(17);
        r.counter("bytes.out").add(4096); // needs sanitizing
        r.gauge("active_connections").set(3);
        let h = r.histogram("encode_ns");
        h.record(0);
        h.record(800);
        h.record(70_000);
        let header = StatsHeader {
            role: ROLE_DAEMON,
            id: 0,
            seq: 9,
            t_ns: 123_456,
            snapshot_ns: 123_456,
        };
        (header, r.snapshot())
    }

    #[test]
    fn schema_and_value_field_sets_match() {
        let (header, snap) = sample();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        assert_eq!(schema.fields().len(), value.len());
        for f in schema.fields() {
            assert!(value.get(&f.name).is_some(), "value missing {}", f.name);
        }
    }

    #[test]
    fn native_round_trip_preserves_snapshot() {
        let (header, snap) = sample();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&value, &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let (header2, snap2) = snapshot_from_value(&decoded).unwrap();
        assert_eq!(header, header2);
        assert_eq!(snap2.counter("events_in"), Some(17));
        assert_eq!(snap2.counter("bytes_out"), Some(4096));
        assert_eq!(snap2.gauge("active_connections"), Some(3));
        let h = snap2.histogram("encode_ns").unwrap();
        assert_eq!(h, snap.histogram("encode_ns").unwrap());
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 70_800);
    }

    #[test]
    fn equal_metric_sets_produce_equal_schemas() {
        let (_, snap) = sample();
        let (_, snap2) = sample();
        assert_eq!(stats_schema(&snap), stats_schema(&snap2));
    }

    #[test]
    fn trace_ring_rides_the_stats_record() {
        let r = Registry::new();
        r.counter("events").inc();
        r.trace("drop", 3);
        r.trace("tick", 4);
        let snap = r.snapshot();
        assert_eq!(snap.traces.len(), 2);

        let header = StatsHeader::default();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&value, &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let (_, snap2) = snapshot_from_value(&decoded).unwrap();
        assert_eq!(snap2.traces, snap.traces);

        // A fuller ring changes the payload but never the schema: the
        // arrays are fixed-size, so the format id stays dedupable.
        r.trace("more", 5);
        let snap3 = r.snapshot();
        assert_eq!(stats_schema(&snap3), schema);
    }

    #[test]
    fn stage_labels_pack_to_eight_bytes() {
        assert_eq!(unpack_stage(pack_stage("drop")), "drop");
        assert_eq!(unpack_stage(pack_stage("exactly8")), "exactly8");
        assert_eq!(unpack_stage(pack_stage("stats_publish")), "stats_pu");
        assert_eq!(unpack_stage(0), "");
    }

    #[test]
    fn quantiles_ride_the_stats_record() {
        let (header, snap) = sample();
        let schema = stats_schema(&snap);
        let value = stats_value(&header, &snap);
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&value, &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let h = snap.histogram("encode_ns").unwrap();
        for (field, q) in [
            ("h_encode_ns_p50", 0.50),
            ("h_encode_ns_p90", 0.90),
            ("h_encode_ns_p99", 0.99),
        ] {
            assert_eq!(
                decoded.get(field).and_then(as_u64),
                Some(h.quantile(q)),
                "{field}"
            );
        }
        // And the precomputed fields don't confuse the snapshot parser.
        let (_, snap2) = snapshot_from_value(&decoded).unwrap();
        assert_eq!(snap2.histogram("encode_ns"), Some(h));
    }

    #[test]
    fn topo_snapshot_round_trips_natively() {
        let topo = TopoSnapshot {
            t_ns: 42,
            conn_total: 2,
            chan_total: 1,
            lag_total: 1,
            flight_total: 3,
            conns: vec![
                TopoConn {
                    conn: 1,
                    shard: 0,
                    caps: 0x7,
                    queue_depth: 5,
                    bytes_sent: 1024,
                    frames_sent: 10,
                    tapped: 6,
                    last_active_ns: 99,
                },
                TopoConn {
                    conn: 2,
                    shard: 1,
                    ..TopoConn::default()
                },
            ],
            channels: vec![TopoChannel {
                id: 3,
                name: "ticks".into(),
                subscribers: 2,
                publishes: 4000,
                durable: true,
                head: 4000,
                segments: 2,
                disk_bytes: 468_000,
                home: 1,
            }],
            shards: vec![
                TopoShard {
                    shard: 0,
                    conns: 2,
                    ready: 1,
                    wakeups: 77,
                    cpu: 3,
                },
                // An unpinned shard: -1 must survive the biased wire column.
                TopoShard {
                    shard: 1,
                    conns: 0,
                    ready: 0,
                    wakeups: 1,
                    cpu: -1,
                },
            ],
            lags: vec![TopoLag {
                chan: 3,
                conn: 2,
                head: 4000,
                delivered: 1500,
            }],
            flight: vec![FlightEvent {
                t_ns: 40,
                kind: crate::flight::FL_CONNECT,
                conn: 1,
                chan: 0,
                code: 0,
                aux: 7,
            }],
            peers: vec![
                TopoPeer {
                    peer: 1,
                    connected: true,
                    relay_tx: 300,
                    relay_rx: 120,
                    relay_dropped: 2,
                    pending: 5,
                    last_rx_ns: 41,
                },
                TopoPeer {
                    peer: 2,
                    ..TopoPeer::default()
                },
            ],
        };
        let schema = topo_schema();
        let layout = Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap();
        let bytes = encode_native(&topo_value(&topo), &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        let back = topo_from_value(&decoded).unwrap();
        assert_eq!(back, topo);
        assert_eq!(back.lags[0].lag(), 2500);
        assert!(topo_from_value(&RecordValue::new()).is_none());
    }

    #[test]
    fn topo_value_truncates_but_reports_totals() {
        let mut topo = TopoSnapshot::default();
        for i in 0..(TOPO_CONN_CAP + 5) {
            topo.conns.push(TopoConn {
                conn: i as u32,
                ..TopoConn::default()
            });
        }
        topo.conn_total = topo.conns.len() as u64;
        let schema = topo_schema();
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&topo_value(&topo), &layout).unwrap();
        let back = topo_from_value(&decode_native(&bytes, &layout).unwrap()).unwrap();
        assert_eq!(back.conns.len(), TOPO_CONN_CAP);
        assert_eq!(back.conn_total, (TOPO_CONN_CAP + 5) as u64);
    }

    #[test]
    fn flight_event_round_trips_natively() {
        let ev = FlightEvent {
            t_ns: 1_000,
            kind: crate::flight::FL_REPLAY_FINISH,
            conn: 9,
            chan: 3,
            code: 0,
            aux: 4096,
        };
        let schema = flight_schema();
        let layout = Layout::of(&schema, &ArchProfile::X86_64).unwrap();
        let bytes = encode_native(&flight_value(&ev), &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        assert_eq!(flight_from_value(&decoded), Some(ev));
        assert!(flight_from_value(&RecordValue::new()).is_none());
    }

    #[test]
    fn hop_record_round_trips_natively() {
        let hop = TraceHop {
            trace_id: 0x1234_5678_9abc_def0,
            span_id: 3,
            hop: crate::HOP_FLUSH,
            conn: 7,
            channel: 2,
            t_ns: 1_000_000,
            dur_ns: 512,
        };
        let schema = hop_schema();
        let layout = Layout::of(&schema, &ArchProfile::SPARC_V8).unwrap();
        let bytes = encode_native(&hop_value(&hop), &layout).unwrap();
        let decoded = decode_native(&bytes, &layout).unwrap();
        assert_eq!(hop_from_value(&decoded), Some(hop));
        assert!(hop_from_value(&RecordValue::new()).is_none());
    }
}
