//! The run-execution layer: canonical run requests, a memoizing result
//! cache, and pluggable serial / thread-pool runners.
//!
//! The paper's protocol is embarrassingly parallel — Table II alone is
//! 30 applications × 3 iterations of *independent* 60 s simulations — and
//! several figures re-simulate identical configurations (HandBrake at
//! 4 logical cores appears in Fig. 4, Fig. 5 and Fig. 8). This module
//! removes both sources of waste without touching the simulator:
//!
//! * [`RunRequest`] — one iteration of one [`Experiment`] at one seed, in
//!   canonical form with a stable [cache key](RunRequest::cache_key).
//! * [`Runner`] — one indexed parallel-for ([`Runner::for_each_index`]):
//!   [`SerialRunner`] in index order on the calling thread,
//!   [`ThreadPoolRunner`] on a [`std::thread::scope`] pool. A simulation
//!   job constructs *and consumes* its own single-threaded
//!   [`machine::Machine`], so no simulator state ever crosses a thread
//!   boundary; only the plain-data [`SingleRun`] result moves back.
//! * [`RunContext`] — the memoizing front end every suite/figure builder
//!   submits through. Duplicate requests (within a batch or across
//!   batches) simulate once and share one `Arc<SingleRun>`; results are
//!   reassembled in submission order, so every downstream report, CSV and
//!   Prometheus rendering is byte-identical whatever the job count. With
//!   a [`SimStore`] attached, the disk tier runs on the pool too: memory
//!   misses load (and re-verify) in one pool pass, and each fresh run is
//!   written back by the worker that simulated it.
//!
//! Determinism argument: the DES guarantees identical (config, seed) ⇒
//! identical trace and metrics. Workers only race for *which* request to
//! run next, never on simulator state, and the batch result vector is
//! indexed by submission position, not completion order. Aggregation
//! (means, σ, histogram merges) therefore consumes runs in exactly the
//! order the serial path produced them. Store outcomes follow the same
//! rule: counters, store notes and verification reports are applied on
//! the calling thread in submission order after each pass.

use crate::experiment::{Experiment, Measurement, SingleRun};
use crate::store::{LoadOutcome, SimStore};
use simobs::span;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable overriding the default job count (used by
/// [`RunContext::from_env`], the `repro` binary and CI).
pub const JOBS_ENV: &str = "PARASTAT_JOBS";

/// One iteration of one experiment at one seed — the unit of work the
/// runners execute and the cache memoizes.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The experiment, normalized (see [`RunRequest::new`]).
    pub experiment: Experiment,
    /// The iteration seed (`base_seed + i` for iteration `i`).
    pub seed: u64,
}

/// A stable, content-derived cache key for a [`RunRequest`].
///
/// Two requests with the same key run the same machine configuration,
/// workload and seed, and therefore — by the simulator's determinism
/// guarantee — produce identical [`SingleRun`]s.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunKey(String);

impl RunKey {
    /// The canonical key string (what the persistent store hashes and
    /// embeds in entries for collision detection).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl RunRequest {
    /// Canonicalizes an experiment + seed into a request.
    ///
    /// Fields that cannot influence a single iteration are normalized away
    /// so equivalent work shares one cache entry: `budget.iterations`
    /// (a single run is always one iteration), `base_seed` (the explicit
    /// `seed` is what reaches the machine) and `opts.duration` (pinned to
    /// `budget.duration`, exactly as [`Experiment::run_once`] does).
    pub fn new(experiment: &Experiment, seed: u64) -> RunRequest {
        let mut experiment = experiment.clone();
        experiment.budget.iterations = 1;
        experiment.base_seed = 0;
        experiment.opts.duration = experiment.budget.duration;
        RunRequest { experiment, seed }
    }

    /// The request's content-derived cache key.
    ///
    /// Built from the canonical `Debug` rendering of the normalized
    /// experiment — every field that reaches the machine configuration or
    /// the workload builder is part of the derived `Debug` output, and the
    /// rendering of plain data (enums, floats, integers) is deterministic.
    pub fn cache_key(&self) -> RunKey {
        RunKey(format!("{:?}|seed={}", self.experiment, self.seed))
    }

    /// Runs the iteration on the calling thread.
    pub fn execute(&self) -> SingleRun {
        self.experiment.run_once(self.seed)
    }
}

/// Index-tagged jobs handed to a [`Runner`]: `(submission index, request)`.
type Job = (usize, RunRequest);

/// Executes batches of work: one indexed parallel-for, plus the
/// simulate-only batch built on it.
///
/// Implementations are free to call the body in any order and on any
/// thread. Every caller collects results by index, so scheduling never
/// leaks into rendered output.
pub trait Runner: Send + Sync {
    /// Calls `f(i)` exactly once for every `i in 0..n`, possibly
    /// concurrently, returning after all calls complete.
    fn for_each_index(&self, n: usize, f: &(dyn Fn(usize) + Sync));

    /// Worker parallelism (1 for serial runners), for reporting.
    fn jobs(&self) -> usize {
        1
    }

    /// Simulates every job and returns `(index, result)` pairs in job
    /// order.
    fn execute(&self, jobs: Vec<Job>) -> Vec<(usize, SingleRun)> {
        map_indexed(self, jobs.len(), |i| (jobs[i].0, jobs[i].1.execute()))
    }
}

/// Runs `f` over `0..n` on `runner` and returns the results in index
/// order, whatever order the workers finished in.
fn map_indexed<R, T, F>(runner: &R, n: usize, f: F) -> Vec<T>
where
    R: Runner + ?Sized,
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    runner.for_each_index(n, &|i| {
        let value = f(i);
        *slots[i].lock().expect("result slot poisoned") = Some(value);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index ran")
        })
        .collect()
}

/// The one pool loop: up to `workers` threads claim indices from an
/// atomic cursor until `0..n` is exhausted. A single worker runs on the
/// calling thread, in index order.
///
/// The pass records one `pool/batch` span on the calling thread, one
/// `pool/worker` span per worker lifetime and one `pool/work` span per
/// call; the doctor reports Σwork / (jobs × Σbatch) as pool occupancy, so
/// idle workers at a batch's tail count against it.
fn pool_pass(workers: usize, n: usize, f: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let _batch = span::span("pool", "batch");
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut worker = span::span("pool", "worker");
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            worker.add_events(1);
            let _work = span::span("pool", "work");
            f(i);
        }
    };
    let workers = workers.min(n);
    if workers <= 1 {
        worker();
        return;
    }
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(worker);
        }
    });
}

/// Runs every index in order on the calling thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialRunner;

impl Runner for SerialRunner {
    fn for_each_index(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        pool_pass(1, n, f);
    }
}

/// Fans indices out over `jobs` scoped worker threads.
///
/// Workers claim indices through an atomic cursor. A simulation job builds
/// a private single-threaded [`machine::Machine`] and deposits the
/// plain-data [`SingleRun`] into the job's dedicated result slot. No
/// simulator state is shared: the `Machine` (and everything `Rc`-shaped a
/// future machine revision might hold) lives and dies inside one worker.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPoolRunner {
    jobs: usize,
}

impl ThreadPoolRunner {
    /// A pool with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> ThreadPoolRunner {
        ThreadPoolRunner { jobs: jobs.max(1) }
    }
}

impl Runner for ThreadPoolRunner {
    fn for_each_index(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        pool_pass(self.jobs, n, f);
    }

    fn jobs(&self) -> usize {
        self.jobs
    }
}

/// The pool doubles as the worker set for sharded trace analysis: shard
/// bodies are closures over `Sync` state, so they run on the same indexed
/// loop. The analyzer merge step orders results by shard index, so worker
/// scheduling can never leak into rendered output.
impl etwtrace::shard::ShardRunner for ThreadPoolRunner {
    /// Shard 0 runs on the calling thread, as the trait requires; the other
    /// shards run on a pool of `jobs - 1` workers alongside it. The ordered
    /// fold's state then always grows on the calling thread, whose heap the
    /// allocator reuses pass after pass. Folding on a fresh worker thread
    /// instead let the `hb` pass of `tracetool verify` miss the memory the
    /// `verify` pass had freed in another allocator arena, so the process's
    /// peak RSS jumped by about 9 MiB in roughly one run of 30.
    fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        let helpers = self.jobs.min(shards).saturating_sub(1);
        if helpers == 0 {
            pool_pass(1, shards, f);
            return;
        }
        std::thread::scope(|s| {
            s.spawn(|| pool_pass(helpers, shards - 1, &|i| f(i + 1)));
            f(0);
        });
    }

    fn width(&self) -> usize {
        self.jobs
    }
}

/// The memoizing execution front end: suite and figure builders submit
/// [`RunRequest`]s here instead of driving machines themselves.
///
/// The cache maps [`RunKey`]s to shared [`SingleRun`]s, so figures that
/// revisit a configuration (Fig. 4 / Fig. 8 share HandBrake at 4 logical
/// cores; `repro all` shares the whole Table II sweep with Figs. 2–3)
/// reuse the simulation instead of repeating it. Entries are never
/// evicted; call [`RunContext::clear_cache`] between unrelated sweeps if
/// trace memory matters.
pub struct RunContext {
    runner: Box<dyn Runner>,
    cache: Mutex<HashMap<RunKey, Arc<SingleRun>>>,
    store: Option<SimStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    quarantined: AtomicU64,
    store_notes: Mutex<Vec<String>>,
    verify_traces: AtomicU64,
    verify_findings: AtomicU64,
    verify_reports: Mutex<Vec<String>>,
}

impl std::fmt::Debug for RunContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunContext")
            .field("jobs", &self.jobs())
            .field("cached", &self.cache_len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for RunContext {
    /// The environment-configured context ([`RunContext::from_env`]).
    fn default() -> RunContext {
        RunContext::from_env()
    }
}

impl RunContext {
    fn with_runner(runner: Box<dyn Runner>) -> RunContext {
        RunContext {
            runner,
            cache: Mutex::new(HashMap::new()),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            store_notes: Mutex::new(Vec::new()),
            verify_traces: AtomicU64::new(0),
            verify_findings: AtomicU64::new(0),
            verify_reports: Mutex::new(Vec::new()),
        }
    }

    /// A serial context: the calling thread runs everything, in order.
    pub fn serial() -> RunContext {
        RunContext::with_runner(Box::new(SerialRunner))
    }

    /// A pooled context with `jobs` workers (`jobs <= 1` degrades to the
    /// serial runner).
    pub fn pooled(jobs: usize) -> RunContext {
        if jobs <= 1 {
            RunContext::serial()
        } else {
            RunContext::with_runner(Box::new(ThreadPoolRunner::new(jobs)))
        }
    }

    /// A context sized by the `PARASTAT_JOBS` environment variable, or by
    /// [`std::thread::available_parallelism`] when unset/unparsable.
    pub fn from_env() -> RunContext {
        // lint:allow(env-read): PARASTAT_JOBS is the documented job-count
        // override; parallelism cannot change any rendered artefact.
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            });
        RunContext::pooled(jobs)
    }

    /// Worker parallelism of the underlying runner.
    pub fn jobs(&self) -> usize {
        self.runner.jobs()
    }

    /// Shard count for streaming trace analysis: always the pool width.
    /// In-memory runs use the materialized analyzers, so nothing in this
    /// crate reads it; it stays public for the `e2ebench/layers` helper.
    pub fn analyzer_shards(&self) -> usize {
        self.jobs()
    }

    /// The worker set sharded analyzers run on, at the pool width. Stays
    /// public for the `e2ebench/layers` helper.
    pub fn shard_runner(&self) -> ThreadPoolRunner {
        ThreadPoolRunner::new(self.jobs())
    }

    /// Number of memoized runs currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("run cache poisoned").len()
    }

    /// Cache hit / miss counters since construction. A "miss" is an actual
    /// simulation — runs replayed from the persistent store count in
    /// [`RunContext::store_stats`] instead, so a fully warm store reports
    /// zero misses.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Attaches a persistent [`SimStore`] as the second memo tier: lookups
    /// go memory → disk → simulate, and fresh simulations are written back
    /// (best-effort — store I/O failures never fail a run).
    pub fn set_store(&mut self, store: SimStore) {
        self.store = Some(store);
    }

    /// Detaches the persistent store.
    pub fn clear_store(&mut self) {
        self.store = None;
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&SimStore> {
        self.store.as_ref()
    }

    /// Persistent-store session counters since construction:
    /// `(disk hits, disk misses, quarantined entries)`. All zero when no
    /// store is attached. Quarantined entries also count as disk misses —
    /// the caller re-simulated.
    pub fn store_stats(&self) -> (u64, u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
            self.quarantined.load(Ordering::Relaxed),
        )
    }

    /// One note per store anomaly this session (quarantines and failed
    /// write-backs), for diagnostic output. Never part of any artifact.
    pub fn store_notes(&self) -> Vec<String> {
        self.store_notes
            .lock()
            .expect("store notes poisoned")
            .clone()
    }

    fn push_store_note(&self, note: String) {
        self.store_notes
            .lock()
            .expect("store notes poisoned")
            .push(note);
    }

    /// Drops every memoized run (traces can be large; long `repro all`
    /// sessions may want to release them between artefacts).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("run cache poisoned").clear();
    }

    /// Verification tally over every fresh simulation this context ran:
    /// `(traces checked, total verifier + happens-before findings)`.
    ///
    /// Every [`Experiment::run_once`] already verifies its sealed trace and
    /// records the result as `parastat_verify_findings_total`; the context
    /// reads that counter back, so the tally is free and always on.
    pub fn verify_stats(&self) -> (u64, u64) {
        (
            self.verify_traces.load(Ordering::Relaxed),
            self.verify_findings.load(Ordering::Relaxed),
        )
    }

    /// Rendered diagnostic reports for every fresh run with findings
    /// (empty on a healthy simulator).
    pub fn verify_reports(&self) -> Vec<String> {
        self.verify_reports
            .lock()
            .expect("verify reports poisoned")
            .clone()
    }

    /// Reads one run's verification counter into the context tally; runs
    /// with findings get a full re-verification so the rendered diagnostics
    /// can be reported.
    fn tally_verification(&self, run: &SingleRun, label: &str) {
        self.verify_traces.fetch_add(1, Ordering::Relaxed);
        let findings = run
            .metrics
            .registry
            .counter_value("parastat_verify_findings_total", &[])
            .unwrap_or(0);
        if findings == 0 {
            return;
        }
        self.verify_findings.fetch_add(findings, Ordering::Relaxed);
        let verified = etwtrace::verify::verify_trace(&run.trace);
        let causal = etwtrace::hb::analyze(&run.trace, &etwtrace::HbOptions::default());
        let mut report = format!("{label}:\n{}", verified.render());
        if !causal.is_clean() {
            report.push_str(&causal.render());
        }
        self.verify_reports
            .lock()
            .expect("verify reports poisoned")
            .push(report);
    }

    /// Executes a batch of requests, memoized, returning results in
    /// submission order.
    ///
    /// Requests whose key is already cached are served from the cache;
    /// duplicates within the batch simulate once. Everything else goes to
    /// the runner in one submission so independent iterations overlap.
    pub fn run_singles(&self, requests: Vec<RunRequest>) -> Vec<Arc<SingleRun>> {
        let keys: Vec<RunKey> = requests.iter().map(RunRequest::cache_key).collect();
        let mut fresh: Vec<Job> = Vec::new();
        {
            let mut tier = span::span("tier", "memory");
            tier.add_events(requests.len() as u64);
            let cache = self.cache.lock().expect("run cache poisoned");
            let mut scheduled: HashSet<&RunKey> = HashSet::new();
            for (i, (req, key)) in requests.iter().zip(&keys).enumerate() {
                if !cache.contains_key(key) && scheduled.insert(key) {
                    fresh.push((i, req.clone()));
                }
            }
        }
        self.hits
            .fetch_add((requests.len() - fresh.len()) as u64, Ordering::Relaxed);
        span::counter_add("memo_hits", (requests.len() - fresh.len()) as u64);
        // Second memo tier: replay memory misses from the persistent store.
        // The loads (read, checksum, decode, re-verification) run as one
        // pool pass; their outcomes are applied here in submission order.
        // Every loaded run already passed the store's integrity pipeline, so
        // it joins the memory cache exactly as a fresh simulation would.
        if let Some(store) = &self.store {
            let mut tier = span::span("tier", "disk");
            tier.add_events(fresh.len() as u64);
            let outcomes = map_indexed(&*self.runner, fresh.len(), |i| {
                store.load(&keys[fresh[i].0])
            });
            let mut unstored: Vec<Job> = Vec::with_capacity(fresh.len());
            let mut loaded: Vec<(usize, SingleRun)> = Vec::new();
            for ((idx, req), outcome) in fresh.into_iter().zip(outcomes) {
                match outcome {
                    LoadOutcome::Hit(run) => {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        span::counter_add("disk_hits", 1);
                        loaded.push((idx, *run));
                    }
                    LoadOutcome::Miss => {
                        self.disk_misses.fetch_add(1, Ordering::Relaxed);
                        span::counter_add("disk_misses", 1);
                        unstored.push((idx, req));
                    }
                    LoadOutcome::Quarantined { reason } => {
                        self.disk_misses.fetch_add(1, Ordering::Relaxed);
                        self.quarantined.fetch_add(1, Ordering::Relaxed);
                        span::counter_add("disk_misses", 1);
                        span::counter_add("store_quarantined", 1);
                        self.push_store_note(format!(
                            "quarantined {:?} seed={}: {reason}",
                            req.experiment.app, req.seed
                        ));
                        unstored.push((idx, req));
                    }
                }
            }
            if !loaded.is_empty() {
                for (idx, run) in &loaded {
                    let label = format!(
                        "{:?} seed={} (store)",
                        requests[*idx].experiment.app, requests[*idx].seed
                    );
                    self.tally_verification(run, &label);
                }
                let mut cache = self.cache.lock().expect("run cache poisoned");
                for (idx, run) in loaded {
                    cache.insert(keys[idx].clone(), Arc::new(run));
                }
            }
            fresh = unstored;
        }
        self.misses.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        span::counter_add("memo_misses", fresh.len() as u64);
        if !fresh.is_empty() {
            // Each worker writes its run back inside the same job.
            // Best-effort: a full disk or read-only store costs persistence,
            // never correctness.
            let executed = {
                let mut tier = span::span("tier", "simulate");
                tier.add_events(fresh.len() as u64);
                map_indexed(&*self.runner, fresh.len(), |i| {
                    let (idx, req) = &fresh[i];
                    let run = req.execute();
                    let saved = match &self.store {
                        Some(store) => store.save(&keys[*idx], &run),
                        None => Ok(()),
                    };
                    (run, saved)
                })
            };
            for ((_, req), (run, saved)) in fresh.iter().zip(&executed) {
                let label = format!("{:?} seed={}", req.experiment.app, req.seed);
                self.tally_verification(run, &label);
                if let Err(e) = saved {
                    self.push_store_note(format!(
                        "write-back failed for {:?} seed={}: {e}",
                        req.experiment.app, req.seed
                    ));
                }
            }
            let mut cache = self.cache.lock().expect("run cache poisoned");
            for ((idx, _), (run, _)) in fresh.into_iter().zip(executed) {
                cache.insert(keys[idx].clone(), Arc::new(run));
            }
        }
        let cache = self.cache.lock().expect("run cache poisoned");
        keys.iter().map(|k| Arc::clone(&cache[k])).collect()
    }

    /// Executes (or recalls) one iteration of `experiment` at `seed`.
    pub fn run_single(&self, experiment: &Experiment, seed: u64) -> Arc<SingleRun> {
        self.run_singles(vec![RunRequest::new(experiment, seed)])
            .pop()
            .expect("one request yields one run")
    }

    /// Runs every iteration of every experiment as one flat batch and
    /// reassembles per-experiment [`Measurement`]s in submission order —
    /// the Table II protocol, parallel across applications *and*
    /// iterations.
    pub fn run_experiments(&self, experiments: &[Experiment]) -> Vec<Measurement> {
        let mut requests = Vec::new();
        for exp in experiments {
            for i in 0..exp.budget.iterations {
                requests.push(RunRequest::new(exp, exp.base_seed + i as u64));
            }
        }
        let runs = self.run_singles(requests);
        let mut out = Vec::with_capacity(experiments.len());
        let mut offset = 0;
        for exp in experiments {
            let n = exp.budget.iterations as usize;
            out.push(Measurement::aggregate(exp, &runs[offset..offset + n]));
            offset += n;
        }
        out
    }

    /// Runs all iterations of one experiment (see [`RunContext::run_experiments`]).
    pub fn run_experiment(&self, experiment: &Experiment) -> Measurement {
        self.run_experiments(std::slice::from_ref(experiment))
            .pop()
            .expect("one experiment yields one measurement")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Budget;
    use simcore::SimDuration;
    use workloads::AppId;

    fn tiny(app: AppId) -> Experiment {
        Experiment::new(app).budget(Budget {
            duration: SimDuration::from_secs(3),
            iterations: 2,
        })
    }

    #[test]
    fn shard_zero_runs_first_on_the_calling_thread() {
        use etwtrace::shard::ShardRunner;
        let caller = std::thread::current().id();
        for jobs in [1usize, 2, 4] {
            for shards in 0..6usize {
                let seen: Vec<Mutex<Vec<std::thread::ThreadId>>> =
                    (0..shards).map(|_| Mutex::new(Vec::new())).collect();
                ThreadPoolRunner::new(jobs).run_shards(shards, &|i| {
                    seen[i].lock().unwrap().push(std::thread::current().id());
                });
                for (i, calls) in seen.iter().enumerate() {
                    let calls = calls.lock().unwrap();
                    assert_eq!(calls.len(), 1, "jobs {jobs}: shard {i} ran {calls:?}");
                    if i == 0 {
                        assert_eq!(calls[0], caller, "jobs {jobs}: shard 0 left the caller");
                    }
                }
            }
        }
    }

    #[test]
    fn cache_key_ignores_iterations_and_base_seed() {
        let a = RunRequest::new(&tiny(AppId::Handbrake), 7);
        let mut exp = tiny(AppId::Handbrake).seed(999);
        exp.budget.iterations = 5;
        let b = RunRequest::new(&exp, 7);
        assert_eq!(a.cache_key(), b.cache_key());
        let c = RunRequest::new(&tiny(AppId::Handbrake), 8);
        assert_ne!(a.cache_key(), c.cache_key());
        let d = RunRequest::new(&tiny(AppId::Handbrake).logical(4, true), 7);
        assert_ne!(a.cache_key(), d.cache_key());
    }

    #[test]
    fn memo_cache_shares_one_run() {
        let ctx = RunContext::serial();
        let exp = tiny(AppId::Braina);
        let first = ctx.run_single(&exp, 1);
        let again = ctx.run_single(&exp, 1);
        assert!(
            Arc::ptr_eq(&first, &again),
            "repeat request must be memoized"
        );
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(ctx.cache_len(), 1);
        ctx.clear_cache();
        assert_eq!(ctx.cache_len(), 0);
    }

    #[test]
    fn in_batch_duplicates_simulate_once() {
        let ctx = RunContext::pooled(4);
        let exp = tiny(AppId::Word);
        let runs = ctx.run_singles(vec![
            RunRequest::new(&exp, 3),
            RunRequest::new(&exp, 3),
            RunRequest::new(&exp, 4),
        ]);
        assert!(Arc::ptr_eq(&runs[0], &runs[1]));
        assert!(!Arc::ptr_eq(&runs[0], &runs[2]));
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn pooled_matches_serial_measurements() {
        let exps = vec![tiny(AppId::Handbrake), tiny(AppId::Excel).logical(4, true)];
        let serial = RunContext::serial().run_experiments(&exps);
        let pooled = RunContext::pooled(4).run_experiments(&exps);
        assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(&pooled) {
            assert_eq!(s.tlp.mean().to_bits(), p.tlp.mean().to_bits());
            assert_eq!(s.fractions(), p.fractions());
            assert_eq!(s.metrics, p.metrics);
        }
    }
}
