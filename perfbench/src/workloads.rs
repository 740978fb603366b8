//! The four workloads. A run sets each topology up several times; every
//! set-up is measured for its share of the run, then drained, checked
//! delivery by delivery, and torn down.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbio_bench::workloads::{sized_schema, value_for, MsgSize};
use pbio_obs::{Counter, Registry};
use pbio_serv::{
    home_of, MeshConfig, ServClient, ServConfig, ServDaemon, StoreConfig, TraceConfig,
};
use pbio_types::arch::ArchProfile;
use pbio_types::schema::Schema;

use crate::check::{Checker, RecordImage};
use crate::flow::{subscribe_loop, DeliverySpan, Flow, SubOut, Timing, SLICES};
use crate::hist::LatHist;
use crate::probe::{self, RegSnap, ThreadCpu};

/// Workload names, as `--workload` takes them, in [`KINDS`] order.
pub const NAMES: [&str; 4] = ["flood-100b", "paced-10k-hetero", "durable-100b", "relay-100b"];

const KINDS: [Kind; 4] = [Kind::Flood, Kind::Paced, Kind::Durable, Kind::Relay];

/// One of the four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Closed loop, 100 B, homogeneous, plain channel.
    Flood,
    /// Open loop at a fixed rate, 10 KB, x86-64 → SPARC-V8.
    Paced,
    /// Closed loop on a durable channel: appends, acks, live delivery;
    /// each set-up ends with a fresh client replaying the log's head.
    Durable,
    /// Closed loop through a 2-daemon mesh; the channel is homed remotely.
    Relay,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        NAMES.iter().position(|n| *n == name).map(|i| KINDS[i])
    }

    fn name(self) -> &'static str {
        NAMES[KINDS
            .iter()
            .position(|k| *k == self)
            .expect("every kind is named")]
    }

    fn size(self) -> MsgSize {
        if self == Kind::Paced {
            MsgSize::K10
        } else {
            MsgSize::B100
        }
    }

    fn sub_profile(self) -> ArchProfile {
        if self == Kind::Paced {
            ArchProfile::SPARC_V8
        } else {
            ArchProfile::X86_64
        }
    }

    /// Once the window is full, the closed-loop publisher resumes when this
    /// many events are still in flight. flood-100b drains completely and
    /// runs in bursts of one window, so every burst is the same work: its
    /// latency p50 spread 1-6% across runs, against 13% with half-window
    /// refills. durable and relay refill at half a window, which kept them
    /// within 3-5%.
    fn refill_at(self) -> u64 {
        if self == Kind::Flood {
            0
        } else {
            WINDOW / 2
        }
    }
}

/// Events in flight (published, not yet delivered) at most; below the
/// default per-connection queue of 256, so any daemon drop is a failure.
const WINDOW: u64 = 128;
/// Un-acked durable publishes at most. Acks are read only when this fills
/// (a client poll blocks ≥ 1 ms), so it is wide enough not to cap the rate.
const ACK_WINDOW: u64 = 1024;
/// Closed-loop warm-up events before the window.
const WARMUP: u64 = 2_000;
/// Open-loop warm-up events (at the paced rate).
const PACED_WARMUP: u64 = 25;
/// The paced workload's fixed rate: well under capacity, never rescaled.
const PACED_RATE: u64 = 500;
/// Records replayed from offset 0 at the end of each durable-100b set-up.
/// A full replay of the log would outlast the run.
const REPLAY_CHECK: u64 = 1_000;
/// Daemon trace sampling in traced runs (1 publish in N).
const TRACE_MOD: u32 = 8;
/// Give up on a step that makes no progress for this long.
const STALL: Duration = Duration::from_secs(10);

/// What one measured window saw.
#[derive(Default)]
pub struct Window {
    pub secs: f64,
    pub events: u64,
    pub rate_slices: Vec<f64>,
    /// Process CPU seconds inside the window.
    pub cpu_s: f64,
    /// Latency per slice (empty until the window ran; dropped after an
    /// untraced window, whose samples go into [`Outcome::latency`]).
    pub latency: Vec<LatHist>,
    pub late: LatHist,
    pub wait_s: f64,
    pub publish_calls: u64,
    pub publish_ns: u64,
    pub ack_rtt: LatHist,
    pub pending_max: u64,
    pub relay_tx: u64,
    pub allocs: u64,
    pub before: Option<Snaps>,
    pub after: Option<Snaps>,
    pub decode_hops: LatHist,
    pub spans: Vec<(u64, u64, u64, Option<DeliverySpan>)>,
}

impl Window {
    /// Median over slices of each slice's `q`-quantile, in ns: a stall
    /// moves one slice, not the run.
    pub fn latency_q(&self, q: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .latency
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(q))
            .collect();
        crate::layers::median(&per_slice)
    }

    /// Every latency sample of the window in one histogram.
    pub fn latency_pooled(&self) -> LatHist {
        let mut all = LatHist::new();
        for h in &self.latency {
            all.merge(h);
        }
        all
    }
}

/// Registry and per-thread CPU state at one window edge (traced runs).
pub struct Snaps {
    pub daemons: Vec<RegSnap>,
    pub sub: Option<RegSnap>,
    pub global: RegSnap,
    pub threads: std::collections::BTreeMap<u32, (String, f64)>,
}

/// One timed replay from offset 0 (traced durable runs).
#[derive(Clone, Copy, Default)]
pub struct ReplayTiming {
    pub records: u64,
    pub wall_s: f64,
    /// CPU of the daemon's `pbio-serv-replay` thread, read before the
    /// replaying client disconnects and the thread ends.
    pub thread_cpu_s: f64,
}

/// What tearing a rig down found.
#[derive(Default)]
struct Finished {
    failures: u64,
    replay: ReplayTiming,
    dcg: Option<pbio::CompileStats>,
    disk_bytes_per_event: f64,
    shards: usize,
    latency: Vec<LatHist>,
    decode_hops: LatHist,
    spans: Vec<DeliverySpan>,
}

/// Everything a finished run reports.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One window per set-up.
    pub windows: Vec<Window>,
    /// Every latency sample of every window.
    pub latency: LatHist,
    pub shards: usize,
    pub dcg: Option<pbio::CompileStats>,
    pub disk_bytes_per_event: f64,
    pub replay: ReplayTiming,
    pub record: Vec<u8>,
    pub sub_record_profile: ArchProfile,
    pub schema: Schema,
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn daemon_config(traced: bool, store: Option<PathBuf>) -> ServConfig {
    ServConfig {
        trace: TraceConfig {
            sample_mod: if traced { TRACE_MOD } else { 0 },
            ..TraceConfig::default()
        },
        durability: store.map(StoreConfig::new),
        ..ServConfig::default()
    }
}

/// One set-up topology, ready to measure.
struct Rig {
    kind: Kind,
    traced: bool,
    daemons: Vec<ServDaemon>,
    store_dir: Option<PathBuf>,
    schema: Schema,
    image: RecordImage,
    sub_image: RecordImage,
    chan_name: String,
    publisher: Option<ServClient>,
    chan: u32,
    fmt: u32,
    flow: Arc<Flow>,
    sub: Option<std::thread::JoinHandle<SubOut>>,
    sub_reg: Option<Arc<Registry>>,
    acked: Option<Arc<Counter>>,
    published: u64,
    /// Mesh liveness probes published before the checked stream.
    probes: u64,
    failures: u64,
}

fn bind_daemons(
    kind: Kind,
    traced: bool,
    store: Option<PathBuf>,
) -> Result<Vec<ServDaemon>, String> {
    if kind != Kind::Relay {
        let d = ServDaemon::bind_with("127.0.0.1:0", daemon_config(traced, store))
            .map_err(|e| format!("bind: {e}"))?;
        return Ok(vec![d]);
    }
    let daemons = (0..2u32)
        .map(|i| {
            ServDaemon::bind_with(
                "127.0.0.1:0",
                ServConfig {
                    shards: 1,
                    peers: Some(MeshConfig::new(i, 2, Vec::new())),
                    ..daemon_config(traced, None)
                },
            )
            .map_err(|e| format!("bind mesh daemon: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (i, d) in daemons.iter().enumerate() {
        let j = 1 - i;
        if !d.connect_peer(j as u32, daemons[j].local_addr().to_string()) {
            return Err("connect_peer refused".into());
        }
    }
    let t0 = Instant::now();
    while !daemons
        .iter()
        .all(|d| d.peer_stats().iter().all(|p| p.connected))
    {
        if t0.elapsed() > STALL {
            return Err("mesh links never came up".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(daemons)
}

/// Seed-derived record image for `profile`.
fn images(kind: Kind, seed: u64) -> (Schema, RecordImage, RecordImage) {
    let schema = sized_schema(kind.size());
    let value = value_for(&schema, seed);
    let image = RecordImage::new(&schema, &ArchProfile::X86_64, &value);
    let sub_image = RecordImage::new(&schema, &kind.sub_profile(), &value);
    (schema, image, sub_image)
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl Rig {
    fn setup(kind: Kind, seed: u64, traced: bool, origin: Instant) -> Result<Rig, String> {
        let durable = kind == Kind::Durable;
        let store_dir = durable.then(|| {
            out_dir().join(format!(
                "store-{}-{}",
                std::process::id(),
                STORE_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let daemons = bind_daemons(kind, traced, store_dir.clone())?;
        let chan_name = if kind == Kind::Relay {
            // Homed on daemon 1 while both clients attach to daemon 0, so
            // every event crosses the peer link twice.
            (0..)
                .map(|k| format!("relay-{k}"))
                .find(|n| home_of(n, 2) == 1)
                .expect("some name hashes to daemon 1")
        } else {
            kind.name().to_owned()
        };
        let (schema, image, sub_image) = images(kind, seed);
        let addr = daemons[0].local_addr();
        let err = |what: &'static str| move |e: pbio_serv::ServError| format!("{what}: {e}");

        let mut publisher =
            ServClient::connect(addr, &ArchProfile::X86_64).map_err(err("publisher connect"))?;
        let chan = if durable {
            publisher.open_channel_durable(&chan_name)
        } else {
            publisher.open_channel(&chan_name)
        }
        .map_err(err("open channel"))?;
        let fmt = publisher
            .register_format(&schema)
            .map_err(err("register format"))?;
        let acked = durable.then(|| publisher.registry().counter("client_publishes_acked"));

        let timing = if kind == Kind::Paced {
            let period_ns = 1_000_000_000 / PACED_RATE;
            Timing::Paced {
                start_ns: origin.elapsed().as_nanos() as u64 + period_ns,
                period_ns,
            }
        } else {
            Timing::Closed
        };
        let flow = Arc::new(Flow::new(origin, timing));
        let mut rig = Rig {
            kind,
            traced,
            daemons,
            store_dir,
            schema,
            image,
            sub_image,
            chan_name,
            publisher: Some(publisher),
            chan,
            fmt,
            flow,
            sub: None,
            sub_reg: None,
            acked,
            published: 0,
            probes: 0,
            failures: 0,
        };
        let mut sub =
            ServClient::connect(addr, &kind.sub_profile()).map_err(err("subscriber connect"))?;
        let sub_chan = sub
            .open_channel(&rig.chan_name)
            .map_err(err("subscriber open"))?;
        sub.subscribe(sub_chan, &rig.schema, None)
            .map_err(err("subscribe"))?;
        if kind == Kind::Relay {
            rig.probe_relay(&mut sub)?;
        }
        rig.sub_reg = Some(sub.registry().clone());
        let checker = Checker::new(rig.sub_image.clone(), 0);
        let flow = rig.flow.clone();
        rig.sub = Some(
            std::thread::Builder::new()
                .name("pb-sub".into())
                .spawn(move || subscribe_loop(sub, &flow, checker, durable, traced))
                .map_err(|e| format!("spawn subscriber: {e}"))?,
        );
        if kind == Kind::Paced {
            rig.publish_paced(PACED_WARMUP, None, &mut Window::default())?;
        } else {
            rig.publish_closed(WARMUP, None, &mut Window::default())?;
        }
        if !rig
            .flow
            .wait_frontier(rig.published, Instant::now() + STALL)
        {
            return Err("warm-up deliveries stalled".into());
        }
        if durable {
            rig.await_acks()?;
        }
        Ok(rig)
    }

    /// Publish liveness probes (`seq` = -1, `time` = probe number) until
    /// the relayed subscription delivers one, then drain through the last
    /// probe sent. The mesh path is FIFO, so nothing older arrives later.
    fn probe_relay(&mut self, sub: &mut ServClient) -> Result<(), String> {
        let t0 = Instant::now();
        let publisher = self.publisher.as_mut().expect("publisher");
        let mut last_seen = None;
        loop {
            if last_seen.is_none() {
                self.image.stamp(u64::MAX, self.probes as f64);
                publisher
                    .publish(self.chan, self.fmt, self.image.bytes())
                    .map_err(|e| format!("probe publish: {e}"))?;
                self.probes += 1;
            }
            if let Some(ev) = sub
                .poll(Duration::from_millis(1))
                .map_err(|e| format!("probe poll: {e}"))?
            {
                last_seen = self.sub_image.read_time(ev.view.bytes());
            }
            if last_seen == Some((self.probes - 1) as f64) {
                return Ok(());
            }
            if t0.elapsed() > STALL {
                return Err("relayed subscription never became live".into());
            }
        }
    }

    fn acked(&self) -> u64 {
        self.acked.as_ref().map_or(u64::MAX, |c| c.get())
    }

    /// Read acks until every publish is acked.
    fn await_acks(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        while self.acked() < self.published {
            if t0.elapsed() > STALL {
                return Err(format!(
                    "acks stalled at {}/{}",
                    self.acked(),
                    self.published
                ));
            }
            self.publisher
                .as_mut()
                .expect("publisher")
                .poll(Duration::from_millis(1))
                .map_err(|e| format!("ack poll: {e}"))?;
        }
        Ok(())
    }

    fn publish_one(&mut self, seq: u64, w: &mut Window) {
        let time = self.flow.timing.time_of(seq);
        self.image.stamp(seq, time);
        self.flow.stamp_sent(seq);
        let t0 = self.traced.then(Instant::now);
        let publisher = self.publisher.as_mut().expect("publisher");
        if let Err(e) = publisher.publish(self.chan, self.fmt, self.image.bytes()) {
            eprintln!("publish failed: {e}");
            self.failures += 1;
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            w.publish_calls += 1;
            w.publish_ns += ns;
            if w.spans.len() < crate::flow::MAX_SPANS {
                w.spans.push((seq, self.flow.now_ns() - ns, ns, None));
            }
        }
        self.published += 1;
    }

    /// Closed loop: publish `count` events (or until the slicer ends the
    /// window), keeping at most [`WINDOW`] undelivered and [`ACK_WINDOW`]
    /// un-acked.
    fn publish_closed(
        &mut self,
        count: u64,
        mut slicer: Option<&mut Slicer>,
        w: &mut Window,
    ) -> Result<(), String> {
        let stop = self.published.saturating_add(count);
        // Traced durable runs: (seq, publish ns) not yet seen acked.
        let mut unacked: VecDeque<(u64, u64)> = VecDeque::new();
        loop {
            let done = match slicer.as_deref_mut() {
                Some(s) => s.tick(self, w),
                None => self.published >= stop,
            };
            if done {
                return Ok(());
            }
            let seq = self.published;
            if seq - self.flow.frontier() >= WINDOW {
                let t0 = Instant::now();
                if !self
                    .flow
                    .wait_frontier(seq - self.kind.refill_at(), t0 + STALL)
                {
                    return Err(format!(
                        "deliveries stalled at {} of {seq}",
                        self.flow.frontier()
                    ));
                }
                w.wait_s += t0.elapsed().as_secs_f64();
            }
            if self.acked.is_some() && seq - self.acked().min(seq) >= ACK_WINDOW {
                let t0 = Instant::now();
                while seq - self.acked().min(seq) > ACK_WINDOW / 2 {
                    if t0.elapsed() > STALL {
                        return Err(format!("acks stalled at {} of {seq}", self.acked()));
                    }
                    self.publisher
                        .as_mut()
                        .expect("publisher")
                        .poll(Duration::from_millis(1))
                        .map_err(|e| format!("ack poll: {e}"))?;
                }
                w.wait_s += t0.elapsed().as_secs_f64();
                let (acked, now) = (self.acked(), self.flow.now_ns());
                while unacked.front().is_some_and(|&(s, _)| s < acked) {
                    let (_, sent) = unacked.pop_front().expect("front exists");
                    w.ack_rtt.record(now.saturating_sub(sent));
                }
            }
            if self.traced && self.acked.is_some() {
                unacked.push_back((seq, self.flow.now_ns()));
            }
            self.publish_one(seq, w);
        }
    }

    /// Open loop: publish on the fixed schedule, sleeping until each due
    /// time; lateness is how far behind schedule each publish went out.
    fn publish_paced(
        &mut self,
        count: u64,
        until: Option<&mut Slicer>,
        w: &mut Window,
    ) -> Result<(), String> {
        let mut slicer = until;
        let stop = self.published + count;
        loop {
            if let Some(s) = slicer.as_deref_mut() {
                if s.tick(self, w) {
                    break;
                }
            } else if self.published >= stop {
                break;
            }
            let seq = self.published;
            let due = self.flow.timing.time_of(seq) as u64;
            let now = self.flow.now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            w.late.record(self.flow.now_ns().saturating_sub(due));
            // Keep the window bound even in the open loop: a stalled
            // subscriber must not push the daemon queue into drops.
            if seq - self.flow.frontier() >= WINDOW
                && !self
                    .flow
                    .wait_frontier(seq - WINDOW / 2, Instant::now() + STALL)
            {
                return Err("paced deliveries stalled".into());
            }
            self.publish_one(seq, w);
        }
        Ok(())
    }

    /// Events delivered and checked so far. On the durable channel acks
    /// are only read when the un-acked window fills, so they would make a
    /// lumpy clock; the window keeps acks within [`ACK_WINDOW`] of this.
    fn progress(&self) -> u64 {
        self.flow.frontier()
    }

    fn snaps(&self) -> Snaps {
        Snaps {
            daemons: self
                .daemons
                .iter()
                .map(|d| RegSnap::take(d.registry()))
                .collect(),
            sub: self.sub_reg.as_ref().map(|r| RegSnap::take(r)),
            global: RegSnap::take(Registry::global()),
            threads: Default::default(),
        }
    }

    fn relay_tx(&self) -> (u64, u64) {
        let mut tx = 0;
        let mut pending = 0;
        for d in &self.daemons {
            for p in d.peer_stats() {
                tx += p.relay_tx;
                pending = pending.max(p.pending);
            }
        }
        (tx, pending)
    }

    /// Drain, check every delivery, tear down. Returns the failures found
    /// and what the subscriber collected.
    fn finish(mut self) -> Result<Finished, String> {
        let mut f = Finished {
            failures: self.failures,
            ..Finished::default()
        };
        self.flow.close(self.published);
        if let Some(sub) = self.sub.take() {
            let out = sub
                .join()
                .map_err(|_| "subscriber thread panicked".to_string())?;
            f.failures += out.failures;
            f.dcg = out.client.dcg_stats(self.fmt);
            if let Err(e) = out.client.disconnect() {
                eprintln!("subscriber disconnect: {e}");
                f.failures += 1;
            }
            f.latency = out.latency;
            f.decode_hops = out.decode_hops;
            f.spans = out.spans;
        }
        if self.kind == Kind::Durable {
            self.await_acks()?;
            let (bad, replay) = self.replay_check()?;
            f.failures += bad;
            f.replay = replay;
        }
        if let Some(p) = self.publisher.take() {
            p.disconnect()
                .map_err(|e| format!("publisher disconnect: {e}"))?;
        }
        if let Some(store) = self.daemons[0].store() {
            let log = store
                .channel(&self.chan_name)
                .map_err(|e| format!("open log: {e}"))?;
            if log.head() != self.published {
                eprintln!("log head {} != published {}", log.head(), self.published);
                f.failures += 1;
            }
            let disk = log.disk_bytes().map_err(|e| format!("disk bytes: {e}"))?;
            f.disk_bytes_per_event = disk as f64 / log.head().max(1) as f64;
        }
        if self.kind == Kind::Relay {
            f.failures += self.check_relay();
        }
        for d in &self.daemons {
            let dropped = d.stats().dropped;
            if dropped > 0 {
                eprintln!("daemon dropped {dropped} events");
                f.failures += dropped;
            }
        }
        f.shards = probe::thread_cpu()
            .iter()
            .filter(|(_, n, _)| n.starts_with("pbio-serv-shard"))
            .count();
        for d in self.daemons.drain(..) {
            d.shutdown();
        }
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(f)
    }

    /// The forward link from daemon 0 to the channel's home must account
    /// for every publish, probes included, and drop none.
    fn check_relay(&self) -> u64 {
        let attempted = self.published + self.probes;
        let Some(link) = self.daemons[0]
            .peer_stats()
            .into_iter()
            .find(|p| p.peer == 1)
        else {
            eprintln!("relay: daemon 0 has no link to daemon 1");
            return 1;
        };
        let mut failures = link.relay_dropped;
        if attempted != link.relay_tx + link.relay_dropped + link.pending {
            eprintln!(
                "relay accounting: attempted {attempted} != relay_tx {} + dropped {} + pending {}",
                link.relay_tx, link.relay_dropped, link.pending
            );
            failures += 1;
        }
        failures
    }

    /// With the live subscriber gone, a fresh client replays the head of
    /// the log: offsets dense from 0, bytes identical to what was
    /// published. Returns the failures found and, on traced rigs, how
    /// long the replay took.
    fn replay_check(&mut self) -> Result<(u64, ReplayTiming), String> {
        let n = REPLAY_CHECK.min(self.published);
        let addr = self.daemons[0].local_addr();
        let mut c = ServClient::connect(addr, &ArchProfile::X86_64)
            .map_err(|e| format!("check connect: {e}"))?;
        let chan = c
            .open_channel(&self.chan_name)
            .map_err(|e| format!("check open: {e}"))?;
        let t0 = Instant::now();
        c.subscribe_from(chan, &self.schema, 0)
            .map_err(|e| format!("check subscribe_from: {e}"))?;
        let mut checker = Checker::new(self.sub_image.clone(), 0);
        let mut bad = 0;
        while checker.next() < n && t0.elapsed() < STALL {
            if let Some(ev) = c
                .poll(Duration::from_millis(50))
                .map_err(|e| format!("check poll: {e}"))?
            {
                let seq = checker.check(ev.view.bytes(), |s| s as f64);
                if seq.is_some() && ev.offset != seq {
                    bad += 1;
                }
            }
        }
        let timing = if self.traced {
            ReplayTiming {
                records: checker.delivered(),
                wall_s: t0.elapsed().as_secs_f64(),
                thread_cpu_s: probe::thread_cpu()
                    .iter()
                    .filter(|(_, name, _)| name.starts_with("pbio-serv-repla"))
                    .map(|t| t.2)
                    .sum(),
            }
        } else {
            ReplayTiming::default()
        };
        c.disconnect()
            .map_err(|e| format!("check disconnect: {e}"))?;
        Ok((bad + checker.failures_through(n), timing))
    }
}

/// Cuts the window into [`SLICES`] slices and ends it.
struct Slicer {
    edges: Vec<Instant>,
    next: usize,
    last_events: u64,
    last_cpu: f64,
    last_t: Instant,
}

impl Slicer {
    fn new(rig: &Rig, secs: f64) -> Slicer {
        let t0 = Instant::now();
        let slice = Duration::from_secs_f64(secs / SLICES as f64);
        Slicer {
            edges: (1..=SLICES as u32).map(|i| t0 + slice * i).collect(),
            next: 0,
            last_events: rig.progress(),
            last_cpu: probe::process_cpu_s(),
            last_t: t0,
        }
    }

    /// Close any slice whose edge passed; true once the window is over.
    fn tick(&mut self, rig: &Rig, w: &mut Window) -> bool {
        let now = Instant::now();
        if now < self.edges[self.next] {
            return false;
        }
        let events = rig.progress();
        let cpu = probe::process_cpu_s();
        let n = events - self.last_events;
        let dt = now.duration_since(self.last_t).as_secs_f64();
        w.rate_slices.push(n as f64 / dt);
        w.cpu_s += cpu - self.last_cpu;
        w.events += n;
        w.secs += dt;
        if rig.kind == Kind::Relay {
            w.pending_max = w.pending_max.max(rig.relay_tx().1);
        }
        self.last_events = events;
        self.last_cpu = cpu;
        self.last_t = now;
        self.next += 1;
        self.next == self.edges.len()
    }
}

/// Set up, measure, drain, check every delivery and tear down, `setups`
/// times over, each set-up measured for `secs / setups`.
pub fn run(
    kind: Kind,
    seed: u64,
    secs: f64,
    traced: bool,
    setups: usize,
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut outcome = Outcome {
        setup_s: Vec::new(),
        attempted: 0,
        failed: 0,
        windows: Vec::new(),
        latency: LatHist::new(),
        shards: 0,
        dcg: None,
        disk_bytes_per_event: 0.0,
        replay: ReplayTiming::default(),
        record: Vec::new(),
        sub_record_profile: kind.sub_profile(),
        schema: sized_schema(kind.size()),
    };
    let secs = secs / setups as f64;
    for _ in 0..setups {
        let t0 = Instant::now();
        let mut rig = Rig::setup(kind, seed, traced, origin)?;
        outcome.setup_s.push(t0.elapsed().as_secs_f64());
        outcome.record = rig.image.bytes().to_vec();
        let mut w = measure_window(&mut rig, secs)?;
        outcome.attempted += rig.published + rig.probes;
        if kind == Kind::Durable {
            outcome.attempted += REPLAY_CHECK.min(rig.published);
        }
        let f = rig.finish()?;
        outcome.failed += f.failures;
        outcome.dcg = f.dcg;
        outcome.disk_bytes_per_event = f.disk_bytes_per_event;
        outcome.replay = f.replay;
        outcome.shards = f.shards;
        for (a, b) in w.latency.iter_mut().zip(&f.latency) {
            a.merge(b);
        }
        outcome.latency.merge(&w.latency_pooled());
        if !traced {
            // Kept for every set-up, the histograms would make peak RSS
            // grow with the number of set-ups.
            w.latency = Vec::new();
        }
        w.decode_hops = f.decode_hops;
        let mut by_seq: HashMap<u64, DeliverySpan> =
            f.spans.into_iter().map(|s| (s.seq, s)).collect();
        for span in &mut w.spans {
            span.3 = by_seq.remove(&span.0);
        }
        outcome.windows.push(w);
    }
    Ok(outcome)
}

/// One measured window on a set-up rig; traced rigs also snapshot the
/// registries, per-thread CPU and allocations at both edges.
fn measure_window(rig: &mut Rig, secs: f64) -> Result<Window, String> {
    let traced = rig.traced;
    let mut w = Window::default();
    let cpu = traced.then(ThreadCpu::start);
    let mut before = rig.snaps();
    if let Some(c) = &cpu {
        before.threads = c.snapshot();
    }
    let relay_before = rig.relay_tx().0;
    probe::count_allocations(traced);
    let allocs0 = probe::allocations();
    w.latency = (0..SLICES).map(|_| LatHist::new()).collect();
    rig.flow
        .measure_from(rig.published, Duration::from_secs_f64(secs / SLICES as f64));
    let mut s = Slicer::new(rig, secs);
    if rig.kind == Kind::Paced {
        rig.publish_paced(u64::MAX, Some(&mut s), &mut w)?;
    } else {
        rig.publish_closed(u64::MAX, Some(&mut s), &mut w)?;
    }
    w.allocs = probe::allocations() - allocs0;
    probe::count_allocations(false);
    let mut after = rig.snaps();
    if let Some(c) = cpu {
        after.threads = c.snapshot();
        c.stop();
    }
    w.relay_tx = rig.relay_tx().0 - relay_before;
    w.before = Some(before);
    w.after = Some(after);
    Ok(w)
}
