//! The daemon's control plane: the reserved-channel table and the one
//! [`K_CTL`] handler.
//!
//! Each reserved plane — `$stats`, `$topo`, `$trace` — pairs a
//! pre-opened channel with one encoder of self-describing PBIO records.
//! The background loop pushes every plane through its channel's
//! ordinary fan-out, and the [`CTL_STATS`]/[`CTL_TOPO`] pulls answer
//! from the same encoder.

use super::*;

/// A reserved plane; the discriminant indexes [`State::planes`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Plane {
    Stats,
    Topo,
    Trace,
}

/// One row of the reserved-plane table.
#[derive(Default)]
pub(super) struct ReservedPlane {
    /// The pre-opened channel the plane pushes on.
    pub(super) channel: u32,
    /// Push cadence (`None` = pull-only).
    interval: Option<Duration>,
    /// `(format id, layout)` of a fixed-schema plane, registered on first
    /// encode. The stats schema follows the metric set, so stats registers
    /// per snapshot instead (equal metric sets dedup to one id).
    fixed: OnceLock<Option<(u32, Arc<Layout>)>>,
}

impl State {
    /// Open the reserved channels and fill in the table, in [`Plane`] order.
    pub(super) fn open_planes(&mut self, config: &ServConfig) {
        let rows = [
            (STATS_CHANNEL, config.stats_interval),
            (TOPO_CHANNEL, config.stats_interval),
            (TRACE_CHANNEL, config.trace.publish_interval),
        ];
        for (i, (name, interval)) in rows.into_iter().enumerate() {
            self.planes[i].channel = self.open_channel(name);
            self.planes[i].interval = interval;
        }
    }

    /// The plane's encoder: render its current records and hand each to
    /// `emit` as `(format id, NDR bytes)`. Stats and topology yield one
    /// record; trace drains every waiting hop.
    fn encode_plane(&self, plane: Plane, emit: &mut dyn FnMut(u32, WireBuf)) {
        let fixed = |schema: fn() -> Schema| {
            self.planes[plane as usize]
                .fixed
                .get_or_init(|| register_layout(&self.formats, &schema()))
                .clone()
        };
        let (layout, values) = match plane {
            Plane::Stats => {
                let seq = self.stats_seq.fetch_add(1, Ordering::Relaxed);
                // Refresh the consumer-lag gauges first so they ride this
                // very snapshot, not the previous one.
                let _ = self.lag_watermarks();
                let mut snap = self.registry.snapshot();
                snap.merge_from(&Registry::global().snapshot());
                let t = epoch_ns();
                let header = StatsHeader {
                    role: ROLE_DAEMON,
                    id: 0,
                    seq,
                    t_ns: t,
                    snapshot_ns: t,
                };
                (
                    register_layout(&self.formats, &stats_schema(&snap)),
                    vec![stats_value(&header, &snap)],
                )
            }
            Plane::Topo => (fixed(topo_schema), vec![topo_value(&self.capture())]),
            Plane::Trace => (
                fixed(hop_schema),
                self.hops.drain().iter().map(hop_value).collect(),
            ),
        };
        let Some((format, layout)) = layout else {
            return;
        };
        let mut buf = self.pool.get(layout.size());
        for value in &values {
            buf.clear();
            if encode_native_into(value, &layout, &mut buf).is_ok() {
                emit(format, WireBuf::copy_from(&buf));
            }
        }
    }

    /// One record from the plane's encoder (the pull side, and tests).
    pub(super) fn encode_one(&self, plane: Plane) -> Option<(u32, WireBuf)> {
        let mut record = None;
        self.encode_plane(plane, &mut |format, wire| record = Some((format, wire)));
        record
    }

    /// Push the plane's records on its reserved channel, through the
    /// same fan-out as any client event. The audience is checked
    /// *before* encoding: with nobody subscribed the capture and encode
    /// are skipped and the skip is counted in `serv_stats_suppressed`.
    /// The trace plane returns earlier still when no hop is waiting;
    /// unpublished hops stay in the bounded sink, oldest evicted first.
    fn push(&self, plane: Plane) {
        if plane == Plane::Trace && self.hops.is_empty() {
            return;
        }
        let Some(fanout) = self.channel(self.planes[plane as usize].channel) else {
            return;
        };
        let audience = fanout
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .active_count();
        if audience == 0 {
            self.metrics.stats_suppressed.inc();
            return;
        }
        self.encode_plane(plane, &mut |format, wire| {
            let mut fanout = fanout.lock().unwrap_or_else(|p| p.into_inner());
            let _ = fanout.publish_shared(format, &wire);
            if plane == Plane::Stats {
                self.registry.trace("stats_publish", u64::from(format));
            }
        });
    }

    /// Serve one [`K_CTL`] request: `op` from the frame's `b`, its
    /// `u32be` arguments from the body. An unknown op or malformed
    /// arguments draw `ERROR(E_PROTOCOL)`; the session survives.
    pub(super) fn handle_ctl(&self, conn: &ConnShared, token: u32, op: u32, body: &[u8]) {
        // `None` when the body is not whole `u32be` words.
        let args: Option<Vec<u32>> = body
            .chunks(4)
            .map(|w| Some(u32::from_be_bytes(w.try_into().ok()?)))
            .collect();
        let result = match (op, args.as_deref()) {
            (CTL_STATS, Some([])) => return self.pull(conn, token, Plane::Stats),
            (CTL_TOPO, Some([])) => return self.pull(conn, token, Plane::Topo),
            (CTL_TRACE_MOD, Some(&[m])) => Ok(self.trace_mod.swap(m, Ordering::Relaxed)),
            (CTL_TAP, Some(&[mode])) => self.set_tap(conn.id, mode, 0),
            (CTL_TAP, Some(&[mode, param])) => self.set_tap(conn.id, mode, param),
            (CTL_STATS..=CTL_TAP, _) => Err(format!("malformed arguments for control op {op}")),
            _ => Err(format!("unknown control op {op}")),
        };
        match result {
            Ok(prev) => {
                conn.send(Frame::control(K_CTL_ACK, token, prev));
            }
            Err(msg) => send_error(self, conn, E_PROTOCOL, msg),
        }
    }

    /// Answer a pull with one record from the plane's encoder, announcing
    /// its format first (once per connection) so the client can decode
    /// the body — the same record the plane's channel pushes.
    fn pull(&self, conn: &ConnShared, token: u32, plane: Plane) {
        match self.encode_one(plane) {
            Some((format, wire)) => {
                let _ann = conn.announce(&self.formats, format);
                conn.send(Frame::with_body(K_CTL_ACK, token, format, wire));
            }
            None => send_error(self, conn, E_FORMAT, "snapshot encoding failed"),
        }
    }

    /// Switch the wire tap to the wire `(mode, param)` pair, narrating
    /// the change into the flight recorder; returns the wire code of the
    /// mode previously in effect.
    fn set_tap(&self, conn: u32, code: u32, param: u32) -> Result<u32, String> {
        let Some(tap) = &self.tap else {
            return Err("tap control on a daemon with no capture plane configured".into());
        };
        let Some(mode) = TapMode::from_wire(code, param) else {
            return Err(format!("unknown tap mode {code} (param {param})"));
        };
        let prev = tap.set_mode(mode);
        if mode != TapMode::Off {
            let param = u64::from(param);
            self.flight.record(FL_TAP_START, conn, 0, code, param);
        } else if prev != TapMode::Off {
            self.flight.record(FL_TAP_STOP, conn, 0, 0, tap.captured());
        }
        Ok(prev.to_wire().0)
    }

    /// Current consumer-lag watermarks, refreshing the
    /// `serv_consumer_lag{chan,conn}` gauges as a side effect — called
    /// from every stats encode and topology capture, so the gauges ride
    /// both `$stats` and `$topo`. Replay-in-progress consumers are
    /// included: their watermark advances as the replay streams.
    fn lag_watermarks(&self) -> Vec<TopoLag> {
        let entries: Vec<((u32, u32), Arc<AtomicU64>)> = {
            let lags = self.lags.lock().unwrap_or_else(|p| p.into_inner());
            lags.iter().map(|(k, v)| (*k, v.clone())).collect()
        };
        let mut out = Vec::with_capacity(entries.len());
        for ((chan, conn), delivered) in entries {
            let Some(log) = self.log(chan) else { continue };
            let lag = TopoLag {
                chan,
                conn,
                head: log.head(),
                delivered: delivered.load(Ordering::Relaxed),
            };
            if let Some(gauge) = self.lag_gauge(chan, conn) {
                gauge.set(i64::try_from(lag.lag()).unwrap_or(i64::MAX));
            }
            out.push(lag);
        }
        out.sort_by_key(|l| (l.chan, l.conn));
        out
    }

    /// Capture the daemon's live topology: every lock is taken briefly
    /// and in a fixed order (conns, then channels, then per-fanout, then
    /// lags), never nested with the publish path's channel→fanout order
    /// reversed — capture is safe to run concurrently with full load.
    pub(super) fn capture(&self) -> TopoSnapshot {
        let mut topo = TopoSnapshot {
            t_ns: epoch_ns(),
            ..TopoSnapshot::default()
        };
        {
            let conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            for c in conns.iter().filter_map(Weak::upgrade) {
                if !c.alive.load(Ordering::Relaxed) {
                    continue;
                }
                topo.conns.push(TopoConn {
                    conn: c.id,
                    shard: c.shard_idx,
                    caps: c.caps(),
                    queue_depth: c.outbound.event_backlog() as u64,
                    bytes_sent: c.counters.bytes_sent.load(Ordering::Relaxed),
                    frames_sent: c.counters.frames_sent.load(Ordering::Relaxed),
                    tapped: c.counters.frames_tapped.load(Ordering::Relaxed),
                    last_active_ns: c.last_active_ns.load(Ordering::Relaxed),
                });
            }
        }
        topo.conns.sort_by_key(|c| c.conn);
        type ChanRow = (Arc<str>, u32, u32, Arc<Mutex<Fanout<RemoteSubscriber>>>);
        let chans: Vec<ChanRow> = {
            let chans = self.channels.lock().unwrap_or_else(|p| p.into_inner());
            chans
                .by_id
                .iter()
                .map(|(&id, c)| (c.name.clone(), id, c.home, c.fanout.clone()))
                .collect()
        };
        for (name, id, home, fanout) in chans {
            let (subscribers, publishes) = {
                let f = fanout.lock().unwrap_or_else(|p| p.into_inner());
                (f.active_count() as u64, f.stats().published)
            };
            let log = self.log(id);
            topo.channels.push(TopoChannel {
                id,
                name: name.to_string(),
                subscribers,
                publishes,
                durable: log.is_some(),
                head: log.as_ref().map_or(0, |l| l.head()),
                segments: log.as_ref().map_or(0, |l| l.segment_count() as u64),
                disk_bytes: log.as_ref().and_then(|l| l.disk_bytes().ok()).unwrap_or(0),
                home,
            });
        }
        topo.channels.sort_by_key(|c| c.id);
        if let Some(mesh) = &self.mesh {
            for p in mesh.peer_stats() {
                topo.peers.push(TopoPeer {
                    peer: p.peer,
                    connected: p.connected,
                    relay_tx: p.relay_tx,
                    relay_rx: p.relay_rx,
                    relay_dropped: p.relay_dropped,
                    pending: p.pending,
                    last_rx_ns: p.last_rx_ns,
                });
            }
        }
        for (i, s) in self.shard_load.iter().enumerate() {
            topo.shards.push(TopoShard {
                shard: i as u32,
                conns: s.conns.get(),
                ready: s.ready.get(),
                wakeups: s.wakeups.get(),
                cpu: self.shard_cpus[i].load(Ordering::Relaxed),
            });
        }
        topo.lags = self.lag_watermarks();
        topo.flight = self.flight.recent();
        topo.conn_total = topo.conns.len() as u64;
        topo.chan_total = topo.channels.len() as u64;
        topo.lag_total = topo.lags.len() as u64;
        topo.flight_total = self.flight.recorded();
        topo
    }

    /// Drain new flight events into the dump log. Each batch is fsynced
    /// by the sink's flush policy, so however the process dies after this
    /// returns, everything drained so far is decodable; an abrupt death
    /// mid-append leaves a torn tail the next open CRC-recovers.
    pub(super) fn drain_flight(&self) {
        let Some(sink) = &self.flight_sink else {
            return;
        };
        let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
        let (events, next) = self.flight.drain_since(sink.cursor);
        if events.is_empty() {
            sink.cursor = next;
            return;
        }
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(events.len());
        for ev in &events {
            let mut buf = Vec::with_capacity(sink.layout.size());
            if encode_native_into(&flight_value(ev), &sink.layout, &mut buf).is_ok() {
                bufs.push(buf);
            }
        }
        if sink.dump.append(sink.format, &bufs, &self.formats) {
            sink.cursor = next;
        }
    }

    /// Drain the tap ring into the capture segment log. Same crash
    /// contract as [`State::drain_flight`]: every appended batch is
    /// fsynced, a death mid-append leaves a CRC-recoverable torn tail.
    /// Rotations and ring overflow observed since the last drain are
    /// recorded into the flight recorder, so `$topo` narrates the
    /// capture's own lifecycle.
    pub(super) fn drain_tap(&self) {
        let (Some(tap), Some(sink)) = (&self.tap, &self.tap_sink) else {
            return;
        };
        let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
        let sink = &mut *sink;
        sink.scratch.clear();
        tap.drain(&mut sink.scratch);
        if !sink.scratch.is_empty() {
            let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(sink.scratch.len());
            for entry in &sink.scratch {
                let mut buf = Vec::with_capacity(13 + FRAME_HEADER_SIZE + entry.body.len());
                entry.encode_into(&mut buf);
                bufs.push(buf);
            }
            // Raw capture bytes: no layout, no meta record.
            sink.dump.append(FORMAT_RAW, &bufs, &self.formats);
            sink.scratch.clear();
        }
        let segments = sink.dump.log.segment_count();
        if segments > sink.segments {
            self.flight.record(FL_TAP_ROTATE, 0, 0, 0, segments as u64);
        }
        sink.segments = segments;
        let dropped = tap.dropped();
        if dropped > sink.dropped_seen {
            self.flight.record(FL_TAP_DROP, 0, 0, 0, dropped);
            sink.dropped_seen = dropped;
        }
    }
}

/// Lay `schema` out in the daemon's own profile and register it like any
/// client format.
pub(super) fn register_layout(fs: &FormatServer, schema: &Schema) -> Option<(u32, Arc<Layout>)> {
    let layout = Arc::new(Layout::of(schema, STATS_PROFILE).ok()?);
    let (format, _, _) = fs.register(&layout);
    Some((format, layout))
}

/// The background thread: push each reserved plane on its own cadence
/// and drain the flight and tap rings into their dumps on every tick.
pub(super) fn background_loop(state: Arc<State>) {
    let shortest = state.planes.iter().filter_map(|p| p.interval).min();
    let step = shortest.map_or(POLL_INTERVAL, |s| s.min(POLL_INTERVAL));
    let step = step.max(Duration::from_millis(1));
    let mut since = [Duration::ZERO; 3];
    loop {
        std::thread::sleep(step);
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for plane in [Plane::Stats, Plane::Topo, Plane::Trace] {
            let Some(interval) = state.planes[plane as usize].interval else {
                continue;
            };
            let since = &mut since[plane as usize];
            *since += step;
            if *since >= interval {
                *since = Duration::ZERO;
                state.push(plane);
            }
        }
        // Incremental flight and capture dumps on every tick: the window
        // an unclean death can lose is one step, not the whole ring.
        state.drain_flight();
        state.drain_tap();
    }
}
