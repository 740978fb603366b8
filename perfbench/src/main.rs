//! Publish→deliver benchmark for `pbio-serv`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flood-100b --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload from a single process (one publisher thread and one
//! subscriber thread, against in-process daemons over loopback TCP),
//! checks every delivery, and prints every metric by name with its unit.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced, and prints the per-layer metrics
//! and the per-layer breakdown. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! See `README.md` in this directory for why each workload exists and
//! which end-to-end metric each layer metric should move.

mod check;
mod flow;
mod hist;
mod layers;
mod probe;
mod workloads;

use layers::{median, Metric};
use workloads::{Kind, NAMES};

#[global_allocator]
static GLOBAL: probe::CountingAlloc = probe::CountingAlloc;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("events_per_s", "ev/s"),
    ("cpu_us_per_event", "us"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups per untraced run, each measured for its share of the window.
/// A set-up tends to keep one speed for its whole window (relay: 33k or
/// 42k ev/s), so events/s, CPU per event and latency pool all windows,
/// and `setup_s` is the median across set-ups.
const SETUPS: usize = 15;

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {}", NAMES.join(", ")))?;
    Ok(Args {
        kind,
        name,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A finished run, ready to print.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn host_line(args: &Args, shards: usize) -> String {
    let facts: Vec<String> = probe::host_facts()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    format!(
        "{{\"host\":{{{},\"shards\":{shards}}},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        facts.join(","),
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn measure(args: &Args) -> Result<Report, String> {
    if !args.trace {
        let o = workloads::run(args.kind, args.seed, args.seconds, false, SETUPS)?;
        println!("{}", host_line(args, o.shards));
        let events: u64 = o.windows.iter().map(|w| w.events).sum();
        let secs: f64 = o.windows.iter().map(|w| w.secs).sum();
        let cpu_s: f64 = o.windows.iter().map(|w| w.cpu_s).sum();
        let values = [
            events as f64 / secs,
            cpu_s * 1e6 / events.max(1) as f64,
            o.latency.quantile(0.5) / 1e3,
            median(&o.setup_s),
            probe::peak_rss_mib(),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect();
        return Ok(Report {
            attempted: o.attempted,
            failed: o.failed,
            metrics,
        });
    }
    // Untraced first, then traced on a fresh set-up: the rate difference
    // is the tracing overhead.
    let half = args.seconds / 2.0;
    let plain = workloads::run(args.kind, args.seed, half, false, 1)?;
    let traced = workloads::run(args.kind, args.seed, half, true, 1)?;
    let header = host_line(args, traced.shards);
    println!("{header}");
    let metrics = layers::per_layer(args.kind, &traced, median(&plain.windows[0].rate_slices));
    layers::print_table(args.kind, &args.name, &traced);
    let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.name, args.seed));
    match layers::write_spans(&spans, &header, &traced) {
        Ok(()) => println!("# spans written to {}", spans.display()),
        Err(e) => eprintln!("writing spans: {e}"),
    }
    Ok(Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The load runs on named threads so per-thread CPU can tell the
    // generator from the daemons; this one is the publisher.
    // The whole process (load threads, daemons and their reactors) runs on
    // one CPU, pinned before any thread exists so every thread inherits it;
    // `ServConfig::default()` then sizes one reactor shard. On the 2-vCPU
    // host the benchmark was built on, the hypervisor stole 13-36% of the
    // CPU time while both vCPUs were busy, and events/s and latency spread
    // by 20-35% between identical runs; on one vCPU steal stayed near 2%
    // and the spreads near 5%.
    probe::pin_to_one_cpu();
    let report = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("pb-pub".into())
            .spawn_scoped(s, || measure(&args))
            .expect("spawn load thread")
            .join()
    });
    let report = match report {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            eprintln!("perfbench: {} failed: {e}", args.name);
            std::process::exit(1);
        }
        Err(_) => {
            eprintln!("perfbench: {} panicked", args.name);
            std::process::exit(1);
        }
    };
    for (n, v, u) in &report.metrics {
        println!("{n} = {} {u}", json_number(*v));
    }
    println!("{}", result_line(&report));
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYER_COUNT: usize = 42;

    fn tiny(kind: &str, trace: bool) -> Report {
        let args = parse_args(&[
            "--workload".into(),
            kind.into(),
            "--seed".into(),
            "3".into(),
            "--seconds".into(),
            "0.4".into(),
            "--trace".into(),
            if trace { "1" } else { "0" }.into(),
        ])
        .expect("valid arguments");
        measure(&args).expect("tiny run")
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared_names() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    /// Every workload, traced and untraced, emits exactly the declared
    /// metrics under valid names, and a tiny run passes its own checks.
    #[test]
    fn every_metric_is_emitted_and_declared() {
        let declared = declared_names();
        for name in NAMES {
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} not declared"
            );
            let plain = tiny(name, false);
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.0.as_str()).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, expected, "{name}");
            let traced = tiny(name, true);
            assert_eq!(traced.metrics.len(), LAYER_COUNT, "{name}");
            for r in [&plain, &traced] {
                assert_eq!(r.failed, 0, "{name} failed its checks");
                assert!(r.attempted > 0);
                for (n, v, u) in &r.metrics {
                    assert!(valid_name(n), "{n}");
                    assert!(v.is_finite(), "{n} = {v}");
                    assert!(
                        declared.contains(&format!("\"name\": \"{n}\"")),
                        "{n} not declared"
                    );
                    assert!(
                        declared.contains(&format!("\"unit\": \"{u}\"")),
                        "{n}: unit {u}"
                    );
                }
            }
            for (n, v, _) in &plain.metrics {
                assert!(*v > 0.0, "{name}: end-to-end {n} is {v}");
            }
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.25, "s")],
        };
        assert_eq!(
            result_line(&r),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            vec!["--workload", "nope"],
            vec!["--workload", "flood-100b", "--trace", "2"],
            vec!["--workload", "flood-100b", "--seconds", "0"],
            vec!["--seed", "1"],
        ] {
            let v: Vec<String> = bad.into_iter().map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{v:?}");
        }
    }
}
