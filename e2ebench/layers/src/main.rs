//! Helper binary of the end-to-end benchmark (`e2ebench/run.py`).
//!
//! ```text
//! e2ebench-layers gen <seed> <seconds> <out.etl>
//! e2ebench-layers trace <store-dir> <replay-store-dir> <trace.etl>
//! ```
//!
//! `gen` simulates Chrome v66 on the 12-thread study rig for `<seconds>`
//! simulated seconds with machine seed `<seed>`, writes the trace as
//! revision-2 SETL3 and prints `{"events": N, "bytes": B}`.
//!
//! `trace` is the benchmark's traced pass. It times every call it makes
//! into a layer's public functions and prints one JSON object of metrics.
//! The timed calls never overlap, so the per-layer totals plus
//! `residual_s` (untimed glue) add up to `traced.wall_s`. The pass has the
//! same three sections on every workload, and reports each one's wall time
//! as `section.*_s`:
//!
//! 1. Table II replay: the 60 runs of the standard-budget Table II sweep,
//!    driven serially through `Experiment::build_machine`,
//!    `workloads::build`, `Machine::run_for` and `Machine::into_trace`; the
//!    analyzers, the SETL3 codec and the store's save/load on each trace;
//!    then the same 60 requests as one batch on a 2-worker
//!    `ThreadPoolRunner`.
//! 2. Figures: every `repro all --blame --timeline` builder on a pooled
//!    `RunContext` over `<store-dir>`, once cold and once memo-warm. The
//!    cold half repeats a `repro` workload.
//! 3. Trace file: the library calls behind the seven `tracetool` commands
//!    of the trace-analyze workload on `<trace.etl>`, each command reading
//!    the file afresh as its own process does. This repeats the
//!    trace-analyze workload.

use etwtrace::{
    analysis, blame, critical, etl, hb, setl3, timeline, verify, EtlTrace, PidSet, ShardedTrace,
};
use machine::{Machine, MachineConfig};
use parastat::figures::{
    ablation, compare, discussion, gpu, scaling, smt, stability, tables, validation, vr, web,
};
use parastat::{
    bottleneck, suite, Budget, LoadOutcome, RunContext, RunMetrics, RunRequest, Runner, SimStore,
    SingleRun, ThreadPoolRunner,
};
use simcore::SimDuration;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{AppId, WorkloadOpts};

/// Pool width of every pooled call, matching `repro --jobs 2`.
const JOBS: usize = 2;

/// The layers time is attributed to; a timer belongs to the layer named
/// by its prefix.
const LAYERS: [&str; 6] = [
    "machine",
    "workloads",
    "etwtrace",
    "store",
    "runner",
    "figures",
];

/// Accumulated seconds per timer, plus derived values with their units.
#[derive(Default)]
struct Ledger {
    secs: BTreeMap<&'static str, f64>,
    values: BTreeMap<String, (f64, &'static str)>,
    failures: Vec<String>,
}

impl Ledger {
    /// Runs `f`, adding its wall time to timer `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = std::hint::black_box(f());
        *self.secs.entry(name).or_default() += t.elapsed().as_secs_f64();
        v
    }

    fn secs(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    fn add(&mut self, name: &str, v: f64, unit: &'static str) {
        self.values.entry(name.to_string()).or_insert((0.0, unit)).0 += v;
    }

    fn set(&mut self, name: &str, v: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (v, unit));
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["gen", seed, secs, out] => gen(seed, secs, out),
        ["trace", store, replay, big] => traced_pass(store, replay, big),
        _ => Err("usage: e2ebench-layers gen <seed> <seconds> <out.etl> | \
                  trace <store-dir> <replay-store-dir> <trace.etl>"
            .to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench-layers: {e}");
            ExitCode::from(2)
        }
    }
}

fn gen(seed: &str, secs: &str, out: &str) -> Result<(), String> {
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let secs: u64 = secs.parse().map_err(|_| format!("bad seconds `{secs}`"))?;
    let duration = SimDuration::from_secs(secs);
    let mut m = Machine::new(MachineConfig::study_rig(12, true).with_seed(seed));
    let opts = WorkloadOpts {
        duration,
        ..WorkloadOpts::default()
    };
    workloads::build(AppId::Chrome, &mut m, &opts);
    m.run_for(duration);
    let trace = m.into_trace();
    let bytes = setl3::encode(&trace);
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{{\"events\": {}, \"bytes\": {}}}",
        trace.events().len(),
        bytes.len()
    );
    Ok(())
}

fn traced_pass(store_dir: &str, replay_dir: &str, big: &str) -> Result<(), String> {
    let mut l = Ledger::default();
    let wall = Instant::now();
    let section = Instant::now();
    table2_replay(&mut l, &SimStore::open(replay_dir));
    l.set("section.replay_s", section.elapsed().as_secs_f64(), "s");
    figures(&mut l, SimStore::open(store_dir));
    let section = Instant::now();
    analyze_file(&mut l, big)?;
    l.set("section.analyze_s", section.elapsed().as_secs_f64(), "s");
    let traced_wall = wall.elapsed().as_secs_f64();

    // Derived per-layer figures.
    let run_for = l.secs("machine.run_for_s");
    let calendar = l.value("simcore.calendar_events");
    l.set(
        "machine.ns_per_calendar_event",
        run_for * 1e9 / calendar.max(1.0),
        "ns",
    );
    let sim_secs = l.value("machine.simulated_s");
    l.set(
        "machine.sim_s_per_host_s",
        sim_secs / run_for.max(1e-9),
        "s/s",
    );
    let decoded = l.value("etwtrace.decoded_events");
    let decode_s = l.secs("etwtrace.read_setl3_s");
    l.set(
        "etwtrace.decode_events_per_s",
        decoded / decode_s.max(1e-9),
        "1/s",
    );
    let batch = l.secs("runner.batch_wall_s");
    let work = l.value("runner.work_s");
    l.set(
        "runner.occupancy",
        work / (JOBS as f64 * batch.max(1e-9)),
        "fraction",
    );
    let (cold, warm) = (l.secs("figures.cold_s"), l.secs("figures.warm_s"));
    l.set("section.figures_cold_s", cold, "s");
    l.set("section.figures_warm_s", warm, "s");
    l.set("figures.post_s", warm, "s");
    l.set("figures.sim_s", cold - warm, "s");

    // Layer totals: every timer belongs to exactly one layer and no two
    // timed intervals overlap, so whatever the timers miss is glue.
    let mut attributed = 0.0;
    for layer in LAYERS {
        let total: f64 = l
            .secs
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s)
            .sum();
        l.set(&format!("layer.{layer}_s"), total, "s");
        attributed += total;
    }
    l.set("traced.wall_s", traced_wall, "s");
    l.set("residual_s", traced_wall - attributed, "s");
    print_json(&l);
    Ok(())
}

/// Section 1: the standard-budget Table II sweep, one layer call at a time.
fn table2_replay(l: &mut Ledger, store: &SimStore) {
    let b = repro_bench::budget("standard");
    let requests: Vec<RunRequest> = AppId::ALL
        .iter()
        .flat_map(|&app| {
            let exp = suite::table2_experiment(app, b);
            (0..b.iterations).map(move |i| RunRequest::new(&exp, exp.base_seed + u64::from(i)))
        })
        .collect();
    l.set("replay.runs", requests.len() as f64, "count");
    let mut keys = Vec::with_capacity(requests.len());
    for req in &requests {
        let exp = &req.experiment;
        let (mut m, opts) = l.time("machine.build_machine_s", || exp.build_machine(req.seed));
        let pid = l.time("workloads.build_s", || {
            workloads::build(exp.app, &mut m, &opts)
        });
        l.time("machine.run_for_s", || m.run_for(exp.budget.duration));
        let mut metrics = l.time("machine.collect_s", || RunMetrics::collect(&m));
        let trace = l.time("machine.into_trace_s", || m.into_trace());
        let calendar = metrics
            .counter("sim_calendar_events_scheduled_total")
            .unwrap_or(0);
        l.add("simcore.calendar_events", calendar as f64, "count");
        l.add("machine.trace_events", trace.events().len() as f64, "count");
        l.add(
            "machine.simulated_s",
            exp.budget.duration.as_secs_f64(),
            "s",
        );
        let mut filter = l.time("etwtrace.filter_s", || {
            trace.pids_by_name(exp.app.process_name())
        });
        if filter.is_empty() {
            filter = pid.into();
        }
        // The four passes every `Experiment::run_once` pays.
        l.time("etwtrace.critical_path_s", || {
            critical::critical_path(&trace, &filter)
        });
        l.time("etwtrace.blame_s", || blame::blame(&trace, &filter));
        let verified = l.time("etwtrace.verify_s", || verify::verify_trace(&trace));
        let causal = l.time("etwtrace.hb_s", || {
            hb::analyze(&trace, &hb::HbOptions::default())
        });
        // The store re-verifies on load against this tally.
        let findings = verified.diagnostics.len() + causal.findings.len();
        metrics
            .registry
            .counter("parastat_verify_findings_total", &[], findings as u64);
        // The figure-side passes.
        l.time("etwtrace.concurrency_s", || {
            analysis::concurrency(&trace, &filter)
        });
        l.time("etwtrace.latency_s", || {
            analysis::scheduling_latency(&trace, &filter)
        });
        l.time("etwtrace.timeline_s", || timeline::fold_trace(&trace, 24));
        // Codec round trip.
        let bytes = l.time("etwtrace.setl3_encode_s", || setl3::encode(&trace));
        l.add("etwtrace.setl3_bytes", bytes.len() as f64, "bytes");
        match l.time("etwtrace.read_setl3_s", || setl3::read_setl3(&bytes[..])) {
            Ok(decoded) if decoded.events() == trace.events() => {
                l.add(
                    "etwtrace.decoded_events",
                    decoded.events().len() as f64,
                    "count",
                );
            }
            _ => l.fail(format!(
                "{:?} seed={}: SETL3 round trip differs",
                exp.app, req.seed
            )),
        }
        if l.time("etwtrace.shard_open_s", || ShardedTrace::from_bytes(bytes))
            .is_err()
        {
            l.fail(format!(
                "{:?} seed={}: shard index rejected",
                exp.app, req.seed
            ));
        }
        // Store write side.
        let key = req.cache_key();
        let run = SingleRun {
            trace,
            filter,
            metrics,
        };
        if let Err(e) = l.time("store.save_s", || store.save(&key, &run)) {
            l.fail(format!("{:?} seed={}: store save: {e}", exp.app, req.seed));
        }
        keys.push((key, exp.app, req.seed));
    }
    // Store read side: decode plus re-verify, as a warm `repro` pays it.
    for (key, app, seed) in &keys {
        match l.time("store.load_s", || store.load(key)) {
            LoadOutcome::Hit(_) => {
                let size = std::fs::metadata(store.entry_path(key)).map_or(0, |m| m.len());
                l.add("store.load_bytes", size as f64, "bytes");
            }
            other => l.fail(format!("{app:?} seed={seed}: store load: {other:?}")),
        }
    }
    let jobs: Vec<(usize, RunRequest)> = requests.into_iter().enumerate().collect();
    let n = jobs.len();
    let cpu_before = process_cpu_s();
    let done = l.time("runner.batch_wall_s", || {
        ThreadPoolRunner::new(JOBS).execute(jobs).len()
    });
    // The workers' busy time is the CPU time the process spent meanwhile.
    match (cpu_before, process_cpu_s()) {
        (Some(a), Some(b)) => l.set("runner.work_s", b - a, "s"),
        _ => l.fail("cannot read the process CPU time from /proc/self/stat".to_string()),
    }
    if done != n {
        l.fail(format!("pool returned {done} of {n} runs"));
    }
}

/// Section 2: every `repro all --blame --timeline` builder, cold and then
/// memo-warm on the same context, so the warm pass is analysis plus
/// render only.
fn figures(l: &mut Ledger, store: SimStore) {
    let b = repro_bench::budget("standard");
    let mut ctx = RunContext::pooled(JOBS);
    ctx.set_store(store);
    let cold = l.time("figures.cold_s", || artefacts(&ctx, b));
    let (hits, misses) = ctx.cache_stats();
    let (disk_hits, disk_misses, quarantined) = ctx.store_stats();
    let (_, findings) = ctx.verify_stats();
    let warm = l.time("figures.warm_s", || artefacts(&ctx, b));
    if warm != cold {
        l.fail("memo-warm artefacts differ from cold ones".to_string());
    }
    l.set("runner.memo_hits", hits as f64, "count");
    l.set("runner.memo_misses", misses as f64, "count");
    l.set("store.disk_hits", disk_hits as f64, "count");
    l.set("store.disk_misses", disk_misses as f64, "count");
    l.set("store.quarantined", quarantined as f64, "count");
    let attempts = (disk_hits + disk_misses).max(1) as f64;
    l.set("store.hit_ratio", disk_hits as f64 / attempts, "fraction");
    l.set("parastat.verify_findings", findings as f64, "count");
}

/// The rendered output of every artefact `repro all --blame --timeline`
/// emits, built exactly as the `repro` binary builds it.
fn artefacts(ctx: &RunContext, b: Budget) -> Vec<String> {
    let mut table2: Option<Vec<suite::AppMeasurement>> = None;
    let mut out = Vec::new();
    for name in repro_bench::ARTEFACTS {
        let mut t2 = || {
            table2
                .get_or_insert_with(|| suite::run_table2(ctx, b))
                .clone()
        };
        let series = |fig: scaling::Timeline| fig.render() + &fig.to_csv();
        out.push(match name {
            "table1" => tables::table1(),
            "table2" => {
                let r = t2();
                suite::render_table2(&r) + &suite::table2_csv(&r)
            }
            "table3" => tables::table3(ctx, b).render(),
            "fig2" => compare::fig2(&t2()).render(),
            "fig3" => compare::fig3(&t2()).render(),
            "fig4" => scaling::fig4(ctx, b).render(),
            "fig5" => series(scaling::fig5(ctx, b)),
            "fig6" => series(scaling::fig6(ctx, b)),
            "fig7" => series(scaling::fig7(ctx, b)),
            "fig8" => smt::fig8(ctx, b).render(),
            "fig9" => gpu::fig9(ctx, b).render(),
            "fig10" => gpu::fig10(ctx, b).render(),
            "fig11" => web::fig11(ctx, b).render(),
            "fig12" => vr::fig12(ctx, b).render(),
            "fig13" => vr::fig13(ctx, b).render(),
            "validation" => validation::automation_validation(ctx, b).render(),
            "discussion" => discussion::discussion(ctx, b),
            "power" => parastat::energy::browser_power(ctx, b).render(),
            "ablation" => ablation::ablation(ctx, b),
            "stability" => stability::stability(ctx, b, 5).render(),
            other => panic!("artefact `{other}` has no builder here"),
        });
    }
    out.push(bottleneck::render_blame(&bottleneck::run_blame(ctx, b)));
    out.push(timelines(ctx, b));
    out
}

/// `repro --timeline`: every app's iteration-0 Table II trace through the
/// sharded streaming fold.
fn timelines(ctx: &RunContext, b: Budget) -> String {
    let reqs = AppId::ALL
        .iter()
        .map(|&app| {
            let exp = suite::table2_experiment(app, b);
            RunRequest::new(&exp, exp.base_seed)
        })
        .collect();
    let runs = ctx.run_singles(reqs);
    let shards = ctx.analyzer_shards();
    let mut text = String::new();
    for run in runs {
        let sharded = ShardedTrace::from_bytes(setl3::encode(&run.trace))
            .expect("fresh v3 encode is indexable");
        let tl = timeline::timeline_sharded(&sharded, 24, &ctx.shard_runner(), shards)
            .expect("in-memory sharded fold cannot fail I/O");
        text.push_str(&tl.render());
        text.push_str(&tl.to_csv());
    }
    text
}

/// Section 3: the library calls behind `tracetool info`, `verify`, `tlp`,
/// `latency`, `bottlenecks`, `critical-path` and `timeline` on one file,
/// command by command, the filtered ones with prefix `chrome`.
fn analyze_file(l: &mut Ledger, path: &str) -> Result<(), String> {
    let open = || -> Result<BufReader<File>, String> {
        File::open(path)
            .map(BufReader::new)
            .map_err(|e| format!("{path}: {e}"))
    };
    // info: the streaming census.
    let info = l.time("etwtrace.trace_info_s", || {
        etl::trace_info(open()?).map_err(|e| format!("{path}: {e}"))
    })?;
    // Every other command but `timeline` decodes the whole file first.
    let read = |l: &mut Ledger| -> Result<EtlTrace, String> {
        let trace = l.time("etwtrace.read_setl3_s", || {
            etl::read_etl(open()?).map_err(|e| format!("{path}: {e}"))
        })?;
        let events = trace.events().len();
        l.add("etwtrace.decoded_events", events as f64, "count");
        if events as u64 != info.events {
            l.fail(format!(
                "{path}: decoded {events} events, the census counts {}",
                info.events
            ));
        }
        Ok(trace)
    };
    let filtered = |l: &mut Ledger| -> Result<(EtlTrace, PidSet), String> {
        let trace = read(l)?;
        let filter = l.time("etwtrace.filter_s", || trace.pids_by_name("chrome"));
        if filter.is_empty() {
            return Err(format!("{path}: no process matches `chrome`"));
        }
        Ok((trace, filter))
    };
    // verify
    let trace = read(l)?;
    let clean = l.time("etwtrace.verify_s", || {
        verify::verify_trace(&trace).is_clean()
    });
    let causal = l.time("etwtrace.hb_s", || {
        hb::analyze(&trace, &hb::HbOptions::default()).is_clean()
    });
    if !(clean && causal) {
        l.fail(format!("{path}: trace does not verify clean"));
    }
    drop(trace);
    // tlp
    let (trace, filter) = filtered(l)?;
    l.time("etwtrace.concurrency_s", || {
        analysis::concurrency(&trace, &filter)
    });
    l.time("etwtrace.gpu_sched_s", || {
        (
            analysis::gpu_utilization(&trace, &filter, None),
            analysis::schedule_stats(&trace, &filter),
            analysis::gpu_engine_breakdown(&trace, &filter, 0),
        )
    });
    l.time("etwtrace.latency_s", || {
        analysis::scheduling_latency(&trace, &filter)
    });
    drop(trace);
    // latency
    let (trace, filter) = filtered(l)?;
    l.time("etwtrace.latency_s", || {
        analysis::scheduling_latency(&trace, &filter)
    });
    drop(trace);
    // bottlenecks
    let (trace, filter) = filtered(l)?;
    l.time("etwtrace.blame_s", || blame::blame(&trace, &filter));
    drop(trace);
    // critical-path
    let (trace, filter) = filtered(l)?;
    l.time("etwtrace.critical_path_s", || {
        critical::critical_path(&trace, &filter)
    });
    drop(trace);
    // timeline: the streaming fold, no decode into memory.
    l.time("etwtrace.timeline_s", || {
        timeline::read_timeline(open()?, 24).map_err(|e| format!("{path}: {e}"))
    })?;
    Ok(())
}

/// User plus system CPU seconds of this process, all threads included,
/// from `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) / 100.0)
}

fn print_json(l: &Ledger) {
    let mut metrics: Vec<String> = l
        .secs
        .iter()
        .filter(|(name, _)| !name.starts_with("figures."))
        .map(|(name, s)| entry(name, *s, "s"))
        .collect();
    metrics.extend(l.values.iter().map(|(name, (v, u))| entry(name, *v, u)));
    let failures: Vec<String> = l.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"metrics\": {{{}}}, \"failures\": [{}]}}",
        metrics.join(", "),
        failures.join(", ")
    );
}

fn entry(name: &str, v: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {v:e}, \"unit\": {}}}",
        json_str(name),
        json_str(unit)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
