//! The publish→deliver loop shared by the workloads: a publisher on one
//! thread, a checking subscriber on another, and a window between them
//! that blocks (never spins) while the publisher is too far ahead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use pbio_obs::TraceHop;
use pbio_serv::ServClient;

use crate::check::Checker;
use crate::hist::LatHist;

/// Publish-time ring size; larger than any window, so a slot is never
/// reused before its event is delivered.
pub const RING: usize = 4096;

/// `end` while the publisher is still publishing.
const OPEN: u64 = u64::MAX;

/// How long the subscriber waits for stragglers once publishing ended.
const DRAIN_IDLE: Duration = Duration::from_secs(3);

/// Poll timeout of the subscriber loop.
const POLL_TICK: Duration = Duration::from_millis(50);

/// How the `time` field of event `seq` is chosen, and where its latency
/// is measured from.
#[derive(Clone, Copy)]
pub enum Timing {
    /// Closed loop: `time` is `seq`; latency runs from the publish call.
    Closed,
    /// Open loop: `time` is the due time in ns since the flow origin,
    /// `start + seq * period`; latency runs from that due time.
    Paced {
        /// Due time of seq 0, ns since the origin.
        start_ns: u64,
        /// Schedule period in ns.
        period_ns: u64,
    },
}

impl Timing {
    /// The `time` field event `seq` carries.
    pub fn time_of(&self, seq: u64) -> f64 {
        match *self {
            Timing::Closed => seq as f64,
            Timing::Paced {
                start_ns,
                period_ns,
            } => (start_ns + seq * period_ns) as f64,
        }
    }
}

/// State shared by the publisher and subscriber threads.
pub struct Flow {
    origin: Instant,
    /// Subscriber's next expected seq: everything below is accounted for
    /// (delivered, or counted missing).
    frontier: AtomicU64,
    /// Seq the publisher waits for the frontier to reach (0: not waiting).
    want: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    /// Total published once the publisher is done; [`OPEN`] before.
    end: AtomicU64,
    /// Latency is recorded for seqs at or past this one.
    measure_from: AtomicU64,
    /// Window start (ns since origin) and slice length, for binning
    /// latencies by the slice they completed in.
    window_ns: AtomicU64,
    slice_ns: AtomicU64,
    /// Publish instant per seq (ns since origin), indexed `seq % RING`.
    sent_ns: Box<[AtomicU64]>,
    pub timing: Timing,
}

impl Flow {
    /// A flow whose clocks count from `origin`.
    pub fn new(origin: Instant, timing: Timing) -> Flow {
        Flow {
            origin,
            frontier: AtomicU64::new(0),
            want: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            end: AtomicU64::new(OPEN),
            measure_from: AtomicU64::new(OPEN),
            window_ns: AtomicU64::new(0),
            slice_ns: AtomicU64::new(u64::MAX),
            sent_ns: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            timing,
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Subscriber's frontier.
    pub fn frontier(&self) -> u64 {
        self.frontier.load(Ordering::SeqCst)
    }

    /// Note that `seq` is about to be published now.
    pub fn stamp_sent(&self, seq: u64) {
        self.sent_ns[seq as usize % RING].store(self.now_ns(), Ordering::Relaxed);
    }

    /// Record latency from `seq` on, binned into slices of `slice` from
    /// now.
    pub fn measure_from(&self, seq: u64, slice: Duration) {
        self.window_ns.store(self.now_ns(), Ordering::SeqCst);
        self.slice_ns
            .store(slice.as_nanos().max(1) as u64, Ordering::SeqCst);
        self.measure_from.store(seq, Ordering::SeqCst);
    }

    /// The slice an event completing at `ns` falls in; stragglers that
    /// complete after the window count in the last slice.
    pub fn slice_of(&self, ns: u64) -> usize {
        let start = self.window_ns.load(Ordering::Relaxed);
        let slice = self.slice_ns.load(Ordering::Relaxed);
        ((ns.saturating_sub(start) / slice) as usize).min(SLICES - 1)
    }

    /// Publishing is over after `total` events.
    pub fn close(&self, total: u64) {
        self.end.store(total, Ordering::SeqCst);
        let _g = self.lock.lock().expect("flow lock poisoned");
        self.cv.notify_all();
    }

    /// Block until the frontier reaches `target` or `deadline` passes.
    /// Returns whether it was reached.
    pub fn wait_frontier(&self, target: u64, deadline: Instant) -> bool {
        if self.frontier() >= target {
            return true;
        }
        let mut g = self.lock.lock().expect("flow lock poisoned");
        // Publish the wish before re-checking: the subscriber stores the
        // frontier before it reads `want` (both SeqCst), so one of the two
        // sides sees the other and no wakeup is lost.
        self.want.store(target, Ordering::SeqCst);
        let reached = loop {
            if self.frontier() >= target {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            g = self
                .cv
                .wait_timeout(g, deadline - now)
                .expect("flow lock poisoned")
                .0;
        };
        self.want.store(0, Ordering::SeqCst);
        reached
    }

    fn advance(&self, frontier: u64) {
        self.frontier.store(frontier, Ordering::SeqCst);
        let want = self.want.load(Ordering::SeqCst);
        if want != 0 && frontier >= want {
            let _g = self.lock.lock().expect("flow lock poisoned");
            self.cv.notify_all();
        }
    }
}

/// One delivery as the traced run keeps it: the event's seq, when the
/// subscriber had it, and the program's decode hop for it if sampled.
pub struct DeliverySpan {
    pub seq: u64,
    pub delivered_ns: u64,
    pub decode_hop: Option<TraceHop>,
}

/// Slices per window: rates, CPU costs and latency quantiles are
/// medians over slices, so a short stall moves one slice, not the run.
pub const SLICES: usize = 20;

/// What the subscriber thread hands back.
pub struct SubOut {
    pub client: ServClient,
    /// Latency per window slice.
    pub latency: Vec<LatHist>,
    pub failures: u64,
    pub spans: Vec<DeliverySpan>,
    pub decode_hops: LatHist,
}

/// Cap on kept delivery spans (aggregates cover every event regardless).
pub const MAX_SPANS: usize = 200_000;

/// The subscriber loop: poll, check, time, advance the frontier. Ends
/// once every published event is accounted for, or when stragglers stop
/// arriving after publishing ended.
pub fn subscribe_loop(
    mut client: ServClient,
    flow: &Flow,
    mut checker: Checker,
    durable: bool,
    traced: bool,
) -> SubOut {
    let mut latency: Vec<LatHist> = (0..SLICES).map(|_| LatHist::new()).collect();
    let mut decode_hops = LatHist::new();
    let mut spans = Vec::new();
    let mut errors = 0u64;
    let mut idle_since: Option<Instant> = None;
    loop {
        let end = flow.end.load(Ordering::SeqCst);
        if checker.next() >= end {
            break;
        }
        let seq = match client.poll(POLL_TICK) {
            Ok(Some(ev)) => {
                idle_since = None;
                let now = flow.now_ns();
                let seq = checker.check(ev.view.bytes(), |s| flow.timing.time_of(s));
                // Durable deliveries carry their log offset, which must
                // equal the record's position in the stream.
                if durable && seq.is_some() && ev.offset != seq {
                    errors += 1;
                }
                seq.map(|s| (s, now))
            }
            Ok(None) => {
                if end != OPEN && idle_since.get_or_insert_with(Instant::now).elapsed() > DRAIN_IDLE
                {
                    break;
                }
                None
            }
            Err(e) => {
                errors += 1;
                eprintln!("subscriber poll failed: {e}");
                if errors > 3 {
                    break;
                }
                None
            }
        };
        if let Some((seq, now)) = seq {
            if seq >= flow.measure_from.load(Ordering::Relaxed) {
                let from = match flow.timing {
                    Timing::Closed => flow.sent_ns[seq as usize % RING].load(Ordering::Relaxed),
                    Timing::Paced { .. } => flow.timing.time_of(seq) as u64,
                };
                latency[flow.slice_of(now)].record(now.saturating_sub(from));
            }
            if traced {
                let hop = client.take_trace_hops().pop();
                if let Some(h) = &hop {
                    decode_hops.record(h.dur_ns);
                }
                if spans.len() < MAX_SPANS {
                    spans.push(DeliverySpan {
                        seq,
                        delivered_ns: now,
                        decode_hop: hop,
                    });
                }
            }
        }
        flow.advance(checker.next());
    }
    let end = flow.end.load(Ordering::SeqCst);
    let end = if end == OPEN { checker.next() } else { end };
    SubOut {
        client,
        latency,
        failures: checker.failures_through(end) + errors,
        spans,
        decode_hops,
    }
}
