//! `tracetool` — the UIforETW + wpaexporter workflow as one CLI:
//! record an application trace on the simulated rig, save it as a binary
//! `.etl` file, and analyze or export it offline.
//!
//! ```text
//! tracetool record <app-substring> <seconds> <out.etl>   # UIforETW step
//! tracetool info <trace.etl>                             # container + record census
//! tracetool summary <trace.etl>                          # task-manager view
//! tracetool tlp <trace.etl> <process-prefix>             # Equation 1
//! tracetool latency <trace.etl> <process-prefix>         # ready→run delays
//! tracetool bottlenecks <trace.etl> <process-prefix>     # blocked-time blame
//! tracetool critical-path <trace.etl> <process-prefix>   # what-if TLP bound
//! tracetool verify <trace.etl>                           # invariant + HB check
//! tracetool timeline <trace.etl> [--buckets N] [--csv|--json]  # bucketed series
//! tracetool diff <A> <B> [--threshold PCT]               # run-diff regression report
//! tracetool export-cpu <trace.etl>                       # CPU Usage (Precise) CSV
//! tracetool export-gpu <trace.etl>                       # GPU Utilization (FM) CSV
//! tracetool export-chrome <trace.etl> <out.json>         # Perfetto timeline
//! tracetool pack <trace.etl> <out.etl>                   # re-encode as compact SETL v3
//! tracetool unpack <trace.etl> <out.etl>                 # re-encode as flat v2
//! tracetool synth <events> <out.etl>                     # synthetic v3 stress trace
//! ```
//!
//! Exit codes are uniform across subcommands so CI can gate on them:
//! 0 = clean, 1 = findings (verify diagnostics, diff regression),
//! 2 = usage error or corrupt input.
//!
//! `info` summarizes a trace file without materializing it: container
//! generation, event/record counts, string-table size, window duration,
//! the per-CPU context-switch histogram and the per-wait-reason census —
//! all through the streaming decoder, so checksums are still enforced.
//!
//! The analysis subcommands (`verify`, `tlp`, `latency`, `bottlenecks`,
//! `critical-path`, `timeline`) open the file through one loader and
//! decode its blocks on one worker per hardware thread, never
//! materializing the event vector; the reports are byte-identical at any
//! worker count. A revision-2 SETL v3 file (what `pack` and `synth` write)
//! is indexed in place. Flat v1/v2 files and revision-1 v3 streams carry no
//! block index, so the loader decodes them and re-encodes them as revision
//! 2 first.

use etwtrace::{
    analysis, blame, chrome, critical, etl, export, hb, setl3, verify, EtlTrace, PidSet,
    ShardedTrace,
};
use machine::{Machine, MachineConfig};
use parastat::ThreadPoolRunner;
use simcore::{SimDuration, SimTime};
use std::fs::File;
use std::io::{self, BufWriter};
use workloads::{build, AppId, WorkloadOpts};

fn main() {
    // Arm the flight recorder: a panicking analysis leaves its last spans
    // behind under target/flight-recorder/ for post-mortem.
    simobs::span::install_crash_dump(
        std::path::PathBuf::from("target/flight-recorder/tracetool.json"),
        chrome::self_trace_json,
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            let [_, app, secs, out] = &args[..] else {
                usage("record <app-substring> <seconds> <out.etl>");
            };
            let secs: u64 = secs.parse().unwrap_or_else(|_| usage("bad seconds"));
            let app = resolve_app(app);
            eprintln!("recording {} for {secs}s…", app.display_name());
            let mut m = Machine::new(MachineConfig::study_rig(12, true));
            let opts = WorkloadOpts {
                duration: SimDuration::from_secs(secs),
                ..WorkloadOpts::default()
            };
            build(app, &mut m, &opts);
            m.run_for(SimDuration::from_secs(secs));
            let trace = m.into_trace();
            // lint:allow(fs-write): streamed whole-file trace export to a
            // user-chosen path; never consumed by the persistent store.
            let file = File::create(out).unwrap_or_else(|e| usage(&format!("{out}: {e}")));
            etl::write_etl(&trace, BufWriter::new(file)).expect("write trace");
            eprintln!("{} events → {out}", trace.events().len());
        }
        Some("info") => {
            if args.len() != 2 {
                usage("info <trace.etl>");
            }
            let path = &args[1];
            let file = File::open(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
            let info = etl::trace_info(std::io::BufReader::new(file))
                .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
            print!("{}", info.render());
        }
        Some("summary") => {
            let trace = load(&args, 2);
            println!(
                "{:<26} {:>4} {:>8} {:>7} {:>7}",
                "process", "pid", "threads", "CPU %", "GPU %"
            );
            for p in analysis::per_process_summary(&trace) {
                println!(
                    "{:<26} {:>4} {:>8} {:>7.1} {:>7.1}",
                    p.name, p.pid, p.threads, p.cpu_percent, p.gpu_percent
                );
            }
        }
        Some("tlp") => {
            let (t, filter) = Blocked::open_filtered(&args, "tlp");
            let (pool, n) = (&t.pool, t.shards);
            let profile = t.ok(analysis::concurrency_sharded(&t.trace, &filter, pool, n));
            let util = t.ok(analysis::gpu_utilization_sharded(
                &t.trace, &filter, None, pool, n,
            ));
            let lat = t.ok(analysis::scheduling_latency_sharded(
                &t.trace, &filter, pool, n,
            ));
            let sched = t.ok(analysis::schedule_stats_sharded(&t.trace, &filter, pool, n));
            let engines = t.ok(analysis::gpu_engine_breakdown_sharded(
                &t.trace, &filter, 0, pool, n,
            ));
            println!("processes        : {}", filter.len());
            println!("TLP              : {:.3}", profile.tlp());
            println!("max concurrency  : {}", profile.max_concurrency());
            println!("GPU utilization  : {:.2} %", util.percent());
            println!(
                "sched latency    : mean {:.0} µs, p95 {:.0} µs",
                lat.mean_us, lat.p95_us
            );
            println!(
                "run episodes     : {} (mean {:.2} ms, max {:.1} ms), {} migrations",
                sched.episodes, sched.mean_slice_ms, sched.max_slice_ms, sched.migrations
            );
            if !engines.is_empty() {
                let parts: Vec<String> = engines
                    .iter()
                    .map(|(e, f)| {
                        let name = if *e == u32::MAX {
                            "nvenc".to_string()
                        } else {
                            format!("queue{e}")
                        };
                        format!("{name} {:.1}%", f * 100.0)
                    })
                    .collect();
                println!("GPU engines      : {}", parts.join(", "));
            }
            let c: Vec<String> = profile
                .fractions()
                .iter()
                .map(|f| format!("{:.1}", f * 100.0))
                .collect();
            println!("c0..cN (%)       : {}", c.join(" "));
        }
        Some("latency") => {
            let (t, filter) = Blocked::open_filtered(&args, "latency");
            let lat = t.ok(analysis::scheduling_latency_sharded(
                &t.trace, &filter, &t.pool, t.shards,
            ));
            println!("sched events     : {}", lat.count);
            println!("mean latency     : {:.1} µs", lat.mean_us);
            println!("p50 latency      : {:.1} µs", lat.p50_us);
            println!("p95 latency      : {:.1} µs", lat.p95_us);
            println!("p99 latency      : {:.1} µs", lat.p99_us);
            println!("max latency      : {:.1} µs", lat.max_us);
        }
        Some("bottlenecks") => {
            let (t, filter) = Blocked::open_filtered(&args, "bottlenecks");
            let report = t.ok(blame::blame_sharded(&t.trace, &filter, &t.pool, t.shards));
            print!("{}", report.render());
        }
        Some("critical-path") => {
            let (t, filter) = Blocked::open_filtered(&args, "critical-path");
            let report = t.ok(critical::critical_path_sharded(
                &t.trace, &filter, &t.pool, t.shards,
            ));
            print!("{}", report.render());
        }
        Some("verify") => {
            if args.len() != 2 {
                usage("verify <trace.etl>");
            }
            let t = Blocked::open(&args[1]);
            let report = t.ok(verify::verify_sharded(&t.trace, &t.pool, t.shards));
            let causal = t.ok(hb::analyze_sharded(
                &t.trace,
                &hb::HbOptions::default(),
                &t.pool,
                t.shards,
            ));
            print!("{}", report.render());
            print!("{}", causal.render());
            if !report.is_clean() || !causal.is_clean() {
                std::process::exit(1);
            }
        }
        Some("timeline") => {
            let mut path = None;
            let mut buckets = 24usize;
            let mut format = "text";
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--buckets" => {
                        buckets = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage("--buckets needs a positive integer"));
                    }
                    "--csv" => format = "csv",
                    "--json" => format = "json",
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string())
                    }
                    other => usage(&format!("unexpected argument `{other}`")),
                }
            }
            let path =
                path.unwrap_or_else(|| usage("timeline <trace.etl> [--buckets N] [--csv|--json]"));
            let t = Blocked::open(&path);
            let tl = t.ok(etwtrace::timeline::timeline_sharded(
                &t.trace, buckets, &t.pool, t.shards,
            ));
            match format {
                "csv" => print!("{}", tl.to_csv()),
                "json" => println!("{}", tl.to_json()),
                _ => print!("{}", tl.render()),
            }
        }
        Some("diff") => {
            let mut paths = Vec::new();
            let mut cfg = etwtrace::DiffConfig::default();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--threshold" => {
                        let pct: f64 = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&p| p >= 0.0)
                            .unwrap_or_else(|| usage("--threshold needs a percentage"));
                        cfg.rel_threshold = pct / 100.0;
                    }
                    other if !other.starts_with('-') => paths.push(other.to_string()),
                    other => usage(&format!("unexpected argument `{other}`")),
                }
            }
            let [base, current] = &paths[..] else {
                usage("diff <baseline> <current> [--threshold PCT]");
            };
            let report =
                etwtrace::diff_metrics(&load_metric_set(base), &load_metric_set(current), cfg);
            print!("{}", report.render());
            if report.is_regression() {
                std::process::exit(1);
            }
        }
        Some("help") | Some("--help") | Some("-h") => {
            print!("{}", usage_text());
        }
        Some("pack") => recode(&args, "pack", setl3::write_setl3),
        Some("unpack") => recode(&args, "unpack", etl::write_etl),
        Some("synth") => {
            let [_, events, out] = &args[..] else {
                usage("synth <events> <out.etl>");
            };
            let n: u64 = events
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| usage("synth needs a positive event count"));
            synth(n, out);
        }
        Some("export-cpu") => print!("{}", export::cpu_usage_precise(&load(&args, 2))),
        Some("export-gpu") => print!("{}", export::gpu_utilization_fm(&load(&args, 2))),
        Some("export-chrome") => {
            let [_, path, out] = &args[..] else {
                usage("export-chrome <trace.etl> <out.json>");
            };
            let trace = read(path);
            let json = chrome::chrome_trace(&trace);
            // lint:allow(fs-write): whole-file timeline export to a
            // user-chosen path.
            std::fs::write(out, &json).unwrap_or_else(|e| usage(&format!("{out}: {e}")));
            eprintln!(
                "{} events → {out} (open in https://ui.perfetto.dev)",
                trace.events().len()
            );
        }
        Some(unknown) => usage(&format!("unknown subcommand `{unknown}`")),
        None => usage("missing subcommand"),
    }
}

/// `pack` / `unpack`: reads either trace generation (`etl::read_etl`
/// sniffs the magic) and rewrites it through `encode`. Round trips are
/// bit-exact on the event log; only the container bytes change.
fn recode(
    args: &[String],
    cmd: &str,
    encode: fn(&EtlTrace, BufWriter<File>) -> std::io::Result<()>,
) {
    let [_, path, out] = args else {
        usage(&format!("{cmd} <trace.etl> <out.etl>"));
    };
    let trace = read(path);
    // lint:allow(fs-write): streamed whole-file re-encode to a user-chosen
    // path; the self-checksummed codec detects any torn write on read.
    let file = File::create(out).unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    encode(&trace, BufWriter::new(file)).expect("write trace");
    let before = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let after = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "{} events, {before} → {after} bytes ({:.2}x) → {out}",
        trace.events().len(),
        if after > 0 {
            before as f64 / after as f64
        } else {
            0.0
        }
    );
}

/// A trace file opened for the analysis subcommands: its revision-2 block
/// stream plus a pool with one worker per hardware thread to decode it.
struct Blocked {
    path: String,
    trace: ShardedTrace,
    pool: ThreadPoolRunner,
    shards: usize,
}

impl Blocked {
    /// Loads a trace file for analysis. A revision-2 SETL v3 file is
    /// indexed as is, so a corrupt one exits 2 here. Flat v1/v2 files and revision-1 v3
    /// streams have no block index: they are decoded and re-encoded as
    /// revision 2.
    fn open(path: &str) -> Blocked {
        let bytes = std::fs::read(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        let blocked = bytes.starts_with(setl3::MAGIC)
            && bytes.get(setl3::MAGIC.len()) == Some(&setl3::VERSION);
        let bytes = if blocked {
            bytes
        } else {
            let trace =
                etl::read_etl(&bytes[..]).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
            setl3::encode(&trace)
        };
        let trace =
            ShardedTrace::from_bytes(bytes).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        let shards = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Blocked {
            path: path.to_string(),
            trace,
            pool: ThreadPoolRunner::new(shards),
            shards,
        }
    }

    /// Parses `<cmd> <trace.etl> <process-prefix>`, opens the trace and
    /// resolves the filter through the parallel sweep.
    fn open_filtered(args: &[String], cmd: &str) -> (Blocked, PidSet) {
        let [_, path, prefix] = args else {
            usage(&format!("{cmd} <trace.etl> <process-prefix>"));
        };
        let t = Blocked::open(path);
        let filter = t.ok(t.trace.pids_by_name(&t.pool, t.shards, prefix));
        if filter.is_empty() {
            usage(&format!("no process matches `{prefix}`"));
        }
        (t, filter)
    }

    /// Unwraps an analyzer result; a block decode or checksum error exits 2.
    fn ok<T>(&self, r: io::Result<T>) -> T {
        r.unwrap_or_else(|e| usage(&format!("{}: {e}", self.path)))
    }
}

/// Writes a deterministic synthetic workload of exactly `n` events through
/// the streaming v3 writer — memory stays flat however large `n` is, so CI
/// can smoke-test the sharded analyzers on multi-million-event traces.
///
/// The signal chain is the bench suite's: 24 threads handing off through
/// event waits at 1 ms rounds with periodic GPU submits, which keeps the
/// trace verify-clean (exit 0 end to end).
fn synth(n: u64, out: &str) {
    const THREADS: u64 = 24;
    let header = 1 + THREADS; // ProcessStart + ThreadStarts
    let rounds = if n > header {
        (n - header).div_ceil(4)
    } else {
        1
    };
    let gpu_submits = rounds.div_ceil(16);
    let count = header + rounds * 4 + gpu_submits;
    let key = |tid: u64| etwtrace::ThreadKey { pid: 1, tid };
    let ms = |t: u64| SimTime::from_nanos(t * 1_000_000);
    let names: Vec<String> = (0..THREADS).map(|t| format!("t{t}")).collect();
    let mut strings: Vec<&str> = vec!["app.exe"];
    strings.extend(names.iter().map(String::as_str));
    // lint:allow(fs-write): streamed whole-file trace export to a
    // user-chosen path; never consumed by the persistent store.
    let file = File::create(out).unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    let mut w = setl3::V3Writer::new(
        BufWriter::new(file),
        12,
        ms(0),
        ms(rounds + 1),
        &strings,
        count,
    )
    .unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    let mut push = |ev: etwtrace::TraceEvent| {
        w.push(&ev)
            .unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    };
    push(etwtrace::TraceEvent::ProcessStart {
        at: ms(0),
        pid: 1,
        name: "app.exe".into(),
    });
    for tid in 0..THREADS {
        push(etwtrace::TraceEvent::ThreadStart {
            at: ms(0),
            key: key(tid),
            name: names[tid as usize].clone(),
        });
    }
    for r in 0..rounds {
        let runner = r % THREADS;
        let next = (r + 1) % THREADS;
        push(etwtrace::TraceEvent::CSwitch {
            at: ms(r),
            cpu: (runner % 12) as usize,
            old: None,
            new: Some(key(runner)),
            ready_since: Some(ms(r)),
        });
        push(etwtrace::TraceEvent::WaitBegin {
            at: ms(r),
            key: key(next),
            reason: etwtrace::WaitReason::Event { id: next },
        });
        if r % 16 == 0 {
            push(etwtrace::TraceEvent::GpuSubmit {
                at: ms(r),
                key: key(runner),
                gpu: 0,
                packet: r,
            });
        }
        push(etwtrace::TraceEvent::WaitEnd {
            at: ms(r + 1),
            key: key(next),
            reason: etwtrace::WaitReason::Event { id: next },
            waker: Some(key(runner)),
        });
        push(etwtrace::TraceEvent::CSwitch {
            at: ms(r + 1),
            cpu: (runner % 12) as usize,
            old: Some(key(runner)),
            new: None,
            ready_since: None,
        });
    }
    w.finish().unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!("{count} events ({bytes} bytes) → {out}");
}

fn load(args: &[String], arity: usize) -> EtlTrace {
    if args.len() != arity {
        usage("expected a trace file");
    }
    read(&args[1])
}

/// Loads one `diff` operand as a metric map. Trace files (either SETL
/// generation, sniffed by magic) fold through the streaming timeline pass
/// into [`etwtrace::Timeline::metrics`]; anything else parses as
/// Prometheus text exposition. That makes `diff` work uniformly over
/// `.etl` files and `repro --metrics` registry snapshots.
fn load_metric_set(path: &str) -> std::collections::BTreeMap<String, f64> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
    if bytes.starts_with(b"SETL") {
        let tl = etwtrace::timeline::read_timeline(&bytes[..], 16)
            .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        tl.metrics()
    } else {
        let text = String::from_utf8_lossy(&bytes);
        let map = etwtrace::parse_prometheus(&text);
        if map.is_empty() {
            usage(&format!(
                "{path}: no metrics found (not a trace or registry)"
            ));
        }
        map
    }
}

fn read(path: &str) -> EtlTrace {
    let file = File::open(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
    etl::read_etl(std::io::BufReader::new(file)).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
}

fn resolve_app(wanted: &str) -> AppId {
    AppId::ALL
        .iter()
        .copied()
        .find(|a| {
            a.display_name()
                .to_ascii_lowercase()
                .contains(&wanted.to_ascii_lowercase())
        })
        .unwrap_or_else(|| usage(&format!("no app matches `{wanted}`")))
}

fn usage_text() -> String {
    [
        "usage: tracetool <subcommand> …",
        "       tracetool record <app> <secs> <out.etl>      record an app trace",
        "       tracetool info <trace.etl>                   container + record census",
        "       tracetool summary <trace.etl>                per-process overview",
        "       tracetool tlp <trace.etl> <prefix>           TLP / concurrency (Eq. 1)",
        "       tracetool latency <trace.etl> <prefix>       ready→run latency",
        "       tracetool bottlenecks <trace.etl> <prefix>   blocked-time blame",
        "       tracetool critical-path <trace.etl> <prefix> what-if TLP bound",
        "       tracetool verify <trace.etl>                 invariant + happens-before check",
        "       tracetool timeline <trace.etl> [--buckets N] [--csv|--json]",
        "                                                    bucketed TLP/wait/GPU series",
        "       tracetool diff <base> <current> [--threshold PCT]",
        "                                                    run-diff regression report",
        "       tracetool export-cpu <trace.etl>             CPU Usage (Precise) CSV",
        "       tracetool export-gpu <trace.etl>             GPU Utilization (FM) CSV",
        "       tracetool export-chrome <trace.etl> <out>    Perfetto timeline JSON",
        "       tracetool pack <trace.etl> <out.etl>         re-encode as compact SETL v3",
        "       tracetool unpack <trace.etl> <out.etl>       re-encode as flat SETL v2",
        "       tracetool synth <events> <out.etl>           synthetic v3 stress trace",
        "       tracetool help                               this listing",
        "",
        "exit codes: 0 clean, 1 findings (verify diagnostics, diff regression),",
        "            2 usage error or corrupt input",
        "",
    ]
    .join("\n")
}

fn usage(msg: &str) -> ! {
    eprintln!("tracetool: {msg}");
    eprint!("{}", usage_text());
    std::process::exit(2);
}
