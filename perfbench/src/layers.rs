//! Per-layer attribution for a traced run: registry deltas, per-thread
//! CPU, the benchmark's own spans and standalone leg timings, named after
//! the crates they measure, plus the Figure-1-style breakdown of the
//! blocking path with its unexplained residual.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use pbio::Reader;
use pbio_net::frame::{read_frame_into, write_frame_raw};
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::meta::serialize_layout;

use crate::probe::{counter_delta, cpu_delta, hist_delta, hist_p50};
use crate::workloads::{Kind, Outcome, Snaps};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Median of a non-empty sample set (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean time per call of `f`, in µs, over about `budget` of wall time.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..16 {
        f();
    }
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..64 {
            f();
        }
        n += 64;
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

const LEG_BUDGET: Duration = Duration::from_millis(100);

/// The `net` legs on the workload's record: one frame written into memory
/// and read back (header, body copy and CRC on each side).
fn frame_legs(record: &[u8]) -> (f64, f64) {
    let mut wire = Vec::with_capacity(record.len() + 64);
    let encode = time_us(LEG_BUDGET, || {
        wire.clear();
        write_frame_raw(&mut wire, 0x10, 1, 1, black_box(record)).expect("frame into memory");
    });
    let mut body = Vec::with_capacity(record.len());
    let decode = time_us(LEG_BUDGET, || {
        let mut r = black_box(&wire[..]);
        read_frame_into(&mut r, &mut body).expect("frame from memory");
    });
    (encode, decode)
}

/// The paper's Figure 4 leg: `Reader::on_data` on the x86-64 record for
/// the subscriber's architecture (zero-copy when they match).
fn convert_leg(o: &Outcome) -> f64 {
    let mut reader = Reader::new(&o.sub_record_profile);
    reader.expect(&o.schema).expect("expect workload schema");
    let wire = Layout::of(&o.schema, &ArchProfile::X86_64).expect("workload layout");
    reader
        .on_format(1, &serialize_layout(&wire))
        .expect("announce workload format");
    let record = o.record.clone();
    time_us(LEG_BUDGET, || {
        let view = reader.on_data(1, black_box(&record)).expect("convert");
        black_box(view.bytes().len());
    })
}

struct Deltas<'a> {
    before: &'a Snaps,
    after: &'a Snaps,
}

impl Deltas<'_> {
    fn daemon(&self, name: &str) -> u64 {
        self.before
            .daemons
            .iter()
            .zip(&self.after.daemons)
            .map(|(a, b)| counter_delta(a, b, name))
            .sum()
    }

    fn daemon_hist(&self, name: &str) -> pbio_obs::HistogramSnapshot {
        let mut out = pbio_obs::HistogramSnapshot::default();
        for (a, b) in self.before.daemons.iter().zip(&self.after.daemons) {
            out.merge(&hist_delta(a, b, name));
        }
        out
    }

    fn sub_hist(&self, name: &str) -> pbio_obs::HistogramSnapshot {
        match (&self.before.sub, &self.after.sub) {
            (Some(a), Some(b)) => hist_delta(a, b, name),
            _ => pbio_obs::HistogramSnapshot::default(),
        }
    }

    fn global(&self, name: &str) -> u64 {
        counter_delta(&self.before.global, &self.after.global, name)
    }

    fn cpu(&self, prefix: &str) -> f64 {
        cpu_delta(&self.before.threads, &self.after.threads, prefix)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Self time per event (µs) of each layer on the blocking path, in path
/// order. Paced latency also holds the generator's own lateness.
fn breakdown(kind: Kind, o: &Outcome, d: &Deltas<'_>) -> Vec<(&'static str, f64)> {
    let w = &o.windows[0];
    let ev = w.events.max(1) as f64;
    let per_ev = |ns: u64| ns as f64 / 1e3 / ev;
    let late = if kind == Kind::Paced {
        w.late.quantile(0.5) / 1e3
    } else {
        0.0
    };
    vec![
        ("loadgen.late", late),
        ("serv.client.publish", per_ev(w.publish_ns)),
        (
            "serv.daemon.recv",
            per_ev(d.daemon_hist("serv_recv_ns").sum),
        ),
        (
            "serv.daemon.fanout",
            per_ev(d.daemon_hist("serv_fanout_ns").sum),
        ),
        ("store.append", per_ev(d.daemon_hist("store_append_ns").sum)),
        ("serv.mesh.peer", d.cpu("pbio-serv-peer") * 1e6 / ev),
        (
            "serv.daemon.send",
            per_ev(d.daemon_hist("serv_send_ns").sum),
        ),
        ("core.convert", per_ev(d.sub_hist("client_convert_ns").sum)),
    ]
}

/// Wall time per event on the blocking path: the traced latency median
/// for the open loop, the inverse throughput for the closed loops.
fn wall_us(kind: Kind, o: &Outcome) -> f64 {
    if kind == Kind::Paced {
        o.windows[0].latency_q(0.5) / 1e3
    } else {
        ratio(1e6, median(&o.windows[0].rate_slices))
    }
}

/// Every per-layer metric of a traced run, in a fixed order. Layers a
/// workload does not exercise read 0.
pub fn per_layer(kind: Kind, o: &Outcome, untraced_events_per_s: f64) -> Vec<Metric> {
    let w = &o.windows[0];
    let (before, after) = (
        w.before.as_ref().expect("window start snapshot"),
        w.after.as_ref().expect("window end snapshot"),
    );
    let d = Deltas { before, after };
    let ev = w.events.max(1) as f64;
    let secs = w.secs.max(1e-9);
    let us_per_ev = |cpu_s: f64| cpu_s * 1e6 / ev;
    let mean_us = |h: pbio_obs::HistogramSnapshot| h.mean() / 1e3;
    let p50_us = |name: &str| hist_p50(&d.daemon_hist(name)) / 1e3;

    let events_out = d.daemon("serv_events_out") as f64;
    let writes = d.daemon("serv_writes") as f64;
    let hits = d.daemon("pool_hits") as f64;
    let misses = d.daemon("pool_misses") as f64;
    let appended = d.daemon("store_appended_records") as f64;
    let sub_cpu = d.cpu("pb-sub");
    let (frame_enc, frame_dec) = frame_legs(&o.record);
    let traced_eps = median(&w.rate_slices);

    let mut m: Vec<Metric> = vec![
        (
            "serv.client.publish_us".into(),
            ratio(w.publish_ns as f64 / 1e3, w.publish_calls as f64),
            "us",
        ),
        (
            "serv.client.publisher_cpu_us_per_event".into(),
            us_per_ev(d.cpu("pb-pub")),
            "us",
        ),
        (
            "serv.client.subscriber_cpu_us_per_event".into(),
            us_per_ev(sub_cpu),
            "us",
        ),
        (
            "serv.client.poll_wait_frac".into(),
            (1.0 - sub_cpu / secs).max(0.0),
            "frac",
        ),
        (
            "serv.daemon.recv_us".into(),
            mean_us(d.daemon_hist("serv_recv_ns")),
            "us",
        ),
        (
            "serv.daemon.fanout_us".into(),
            mean_us(d.daemon_hist("serv_fanout_ns")),
            "us",
        ),
        (
            "serv.daemon.send_us_per_frame".into(),
            ratio(d.daemon_hist("serv_send_ns").sum as f64 / 1e3, events_out),
            "us",
        ),
        (
            "serv.daemon.frames_per_writev".into(),
            ratio(events_out, writes),
            "ratio",
        ),
        (
            "serv.daemon.shard_cpu_us_per_event".into(),
            us_per_ev(d.cpu("pbio-serv-shard")),
            "us",
        ),
        (
            "serv.daemon.pool_hit_ratio".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "serv.shard.wakeups_per_event".into(),
            d.daemon("serv_shard_wakeups") as f64 / ev,
            "ratio",
        ),
        (
            "serv.shard.frames_per_wakeup".into(),
            d.daemon_hist("serv_shard_frames_per_wakeup").mean(),
            "ratio",
        ),
        (
            "serv.shard.writev_partials_per_flush".into(),
            ratio(d.daemon("serv_shard_writev_partials") as f64, writes),
            "ratio",
        ),
        (
            "serv.mesh.relay_tx_per_event".into(),
            w.relay_tx as f64 / ev,
            "ratio",
        ),
        (
            "serv.mesh.peer_cpu_us_per_event".into(),
            us_per_ev(d.cpu("pbio-serv-peer")),
            "us",
        ),
        (
            "serv.mesh.pending_max".into(),
            w.pending_max as f64,
            "count",
        ),
        ("net.frame_encode_us".into(), frame_enc, "us"),
        ("net.frame_decode_us".into(), frame_dec, "us"),
        (
            "net.writes_per_event".into(),
            d.global("net_writes") as f64 / ev,
            "ratio",
        ),
        (
            "net.bytes_per_event".into(),
            d.global("net_bytes_out") as f64 / ev,
            "B",
        ),
        (
            "core.convert_us".into(),
            mean_us(d.sub_hist("client_convert_ns")),
            "us",
        ),
        ("core.convert_standalone_us".into(), convert_leg(o), "us"),
        (
            "vrisc.dcg_compile_us".into(),
            o.dcg.map_or(0.0, |s| s.elapsed.as_secs_f64() * 1e6),
            "us",
        ),
        (
            "vrisc.program_len".into(),
            o.dcg.map_or(0.0, |s| s.program_len as f64),
            "count",
        ),
        (
            "store.append_us".into(),
            ratio(d.daemon_hist("store_append_ns").sum as f64 / 1e3, appended),
            "us",
        ),
        (
            "store.ack_rtt_us".into(),
            w.ack_rtt.quantile(0.5) / 1e3,
            "us",
        ),
        (
            "store.writer_cpu_us_per_event".into(),
            us_per_ev(d.cpu("pbio-serv-store")),
            "us",
        ),
        (
            "store.replay_events_per_s".into(),
            ratio(o.replay.records as f64, o.replay.wall_s),
            "ev/s",
        ),
        (
            "store.replay_busy_frac".into(),
            ratio(o.replay.thread_cpu_s, o.replay.wall_s),
            "frac",
        ),
        (
            "store.disk_bytes_per_event".into(),
            o.disk_bytes_per_event,
            "B",
        ),
        (
            "serv.trace.ingress_us".into(),
            p50_us("hop_ingress_ns"),
            "us",
        ),
        (
            "serv.trace.enqueue_us".into(),
            p50_us("hop_enqueue_ns"),
            "us",
        ),
        ("serv.trace.flush_us".into(), p50_us("hop_flush_ns"), "us"),
        (
            "serv.trace.decode_us".into(),
            w.decode_hops.quantile(0.5) / 1e3,
            "us",
        ),
        (
            "obs.trace_overhead_frac".into(),
            1.0 - ratio(traced_eps, untraced_events_per_s),
            "frac",
        ),
        (
            "proc.allocs_per_event".into(),
            w.allocs as f64 / ev,
            "ratio",
        ),
        (
            "loadgen.late_p99_us".into(),
            if kind == Kind::Paced {
                w.late.quantile(0.99) / 1e3
            } else {
                0.0
            },
            "us",
        ),
        ("loadgen.window_wait_frac".into(), w.wait_s / secs, "frac"),
        (
            "loadgen.latency_p90_us".into(),
            w.latency_pooled().quantile(0.9) / 1e3,
            "us",
        ),
        (
            "loadgen.latency_p99_us".into(),
            w.latency_pooled().quantile(0.99) / 1e3,
            "us",
        ),
        (
            "loadgen.latency_samples".into(),
            w.latency_pooled().count() as f64,
            "count",
        ),
    ];
    let rows = breakdown(kind, o, &d);
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    m.push(("residual_us".into(), wall_us(kind, o) - attributed, "us"));
    m
}

/// The Figure-1-style table: each layer's self time per event on the
/// blocking path, and what is left unexplained.
pub fn print_table(kind: Kind, name: &str, o: &Outcome) {
    let w = &o.windows[0];
    let d = Deltas {
        before: w.before.as_ref().expect("window start snapshot"),
        after: w.after.as_ref().expect("window end snapshot"),
    };
    let rows = breakdown(kind, o, &d);
    let wall = wall_us(kind, o);
    let basis = if kind == Kind::Paced {
        "latency p50 (due -> delivered)"
    } else {
        "1 / events_per_s"
    };
    println!("# per-layer breakdown, {name}: us per event on the blocking path; wall = {basis}");
    println!("# {:<22} {:>12} {:>8}", "layer", "us/event", "share");
    let mut attributed = 0.0;
    for (layer, us) in &rows {
        attributed += us;
        println!(
            "# {:<22} {:>12.3} {:>7.1}%",
            layer,
            us,
            100.0 * ratio(*us, wall)
        );
    }
    let residual = wall - attributed;
    println!(
        "# {:<22} {:>12.3} {:>7.1}%",
        "residual_us",
        residual,
        100.0 * ratio(residual, wall)
    );
    println!("# {:<22} {:>12.3} {:>7.1}%", "wall", wall, 100.0);
    if residual < 0.0 {
        println!("# (negative residual: layer spans overlap, e.g. a flush span that includes the threads it wakes)");
    }
}

/// Write the traced run's spans, joined by seq with the program's decode
/// hops, one JSON object a line.
pub fn write_spans(path: &std::path::Path, header: &str, o: &Outcome) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for (seq, start, publish_ns, delivery) in &o.windows[0].spans {
        let (delivered, hop) = match delivery {
            Some(dspan) => (
                dspan.delivered_ns.to_string(),
                dspan.decode_hop.as_ref().map_or("null".to_string(), |h| {
                    format!("{{\"trace_id\":{},\"dur_ns\":{}}}", h.trace_id, h.dur_ns)
                }),
            ),
            None => ("null".into(), "null".into()),
        };
        writeln!(
            f,
            "{{\"seq\":{seq},\"publish_start_ns\":{start},\"publish_ns\":{publish_ns},\
             \"delivered_ns\":{delivered},\"decode_hop\":{hop}}}"
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
