//! The experiment runner: N seeded iterations of one application on one
//! machine configuration, aggregated the way the paper reports them.

use etwtrace::{analysis, blame, critical, hb, verify, ConcurrencyProfile, EtlTrace, PidSet};
use machine::{Machine, MachineConfig};
use simcore::{Histogram, RunningStat, Series, SimDuration};
use simcpu::Topology;
use simgpu::GpuSpec;
use simobs::Registry;
use vrsys::HeadsetSpec;
use workloads::{browse::BrowseScenario, build, AppId, WorkloadOpts};

/// How much simulated time / how many iterations an experiment spends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Budget {
    /// Observation window per iteration.
    pub duration: SimDuration,
    /// Iterations (the paper uses 3).
    pub iterations: u32,
}

impl Budget {
    /// The paper's protocol: 60-second windows, 3 iterations.
    pub fn paper() -> Budget {
        Budget {
            duration: SimDuration::from_secs(60),
            iterations: 3,
        }
    }

    /// A fast budget for tests and smoke runs: 15 s, 1 iteration.
    pub fn quick() -> Budget {
        Budget {
            duration: SimDuration::from_secs(15),
            iterations: 1,
        }
    }
}

/// One application on one machine configuration.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Application under test.
    pub app: AppId,
    /// The processor (defaults to the study rig's i7-8700K).
    pub cpu: simcpu::CpuSpec,
    /// Enabled logical CPUs.
    pub logical: usize,
    /// SMT masking mode (see [`simcpu::Topology::with_logical_cpus`]).
    pub smt: bool,
    /// SMT contention model (ablation studies sweep this).
    pub smt_model: simcpu::SmtModel,
    /// Scheduler quantum (ablation studies sweep this).
    pub quantum: SimDuration,
    /// Installed GPU.
    pub gpu: GpuSpec,
    /// Workload options (automation, CUDA, headset, browse scenario…).
    pub opts: WorkloadOpts,
    /// Time/iteration budget.
    pub budget: Budget,
    /// Base seed; iteration `i` runs with `base_seed + i`.
    pub base_seed: u64,
}

impl Experiment {
    /// An experiment on the paper's full rig (12 logical CPUs with SMT,
    /// GTX 1080 Ti, AutoIt input, 3×60 s).
    pub fn new(app: AppId) -> Experiment {
        Experiment {
            app,
            cpu: simcpu::presets::i7_8700k(),
            logical: 12,
            smt: true,
            smt_model: simcpu::SmtModel::default(),
            quantum: SimDuration::from_millis(5),
            gpu: simgpu::presets::gtx_1080_ti(),
            opts: WorkloadOpts::default(),
            budget: Budget::paper(),
            base_seed: 42,
        }
    }

    /// Swaps the processor, enabling all its logical CPUs (builder style).
    pub fn cpu(mut self, cpu: simcpu::CpuSpec) -> Self {
        self.logical = cpu.logical_cpus();
        self.smt = cpu.smt_ways > 1;
        self.cpu = cpu;
        self
    }

    /// Overrides the SMT contention model (builder style).
    pub fn smt_model(mut self, model: simcpu::SmtModel) -> Self {
        self.smt_model = model;
        self
    }

    /// Overrides the scheduler quantum (builder style).
    ///
    /// # Panics
    /// Panics if the quantum is zero.
    pub fn quantum(mut self, quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Restricts the logical-CPU count (builder style).
    pub fn logical(mut self, logical: usize, smt: bool) -> Self {
        self.logical = logical;
        self.smt = smt;
        self
    }

    /// Swaps the GPU (builder style).
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Sets the budget (builder style).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self.opts.duration = budget.duration;
        self
    }

    /// Toggles CUDA/NVENC acceleration (builder style).
    pub fn cuda(mut self, cuda: bool) -> Self {
        self.opts.cuda = cuda;
        self
    }

    /// Selects the VR headset (builder style).
    pub fn headset(mut self, headset: HeadsetSpec) -> Self {
        self.opts.headset = headset;
        self
    }

    /// Selects the browsing scenario (builder style).
    pub fn browse(mut self, scenario: BrowseScenario) -> Self {
        self.opts.browse = scenario;
        self
    }

    /// Uses manual (human-jitter) input instead of AutoIt (builder style).
    pub fn manual_input(mut self) -> Self {
        self.opts.automation = autoinput::Automation::manual();
        self
    }

    /// Bounds the transcode job length (builder style).
    pub fn transcode_frames(mut self, frames: u64) -> Self {
        self.opts.transcode_frames = Some(frames);
        self
    }

    /// Sets the base seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    fn machine_config(&self, seed: u64) -> MachineConfig {
        let topology = Topology::with_logical_cpus(&self.cpu, self.logical, self.smt);
        let mut cfg = MachineConfig::new(self.cpu.clone())
            .with_gpus(vec![self.gpu.clone()])
            .with_seed(seed)
            .with_quantum(self.quantum);
        cfg.topology = topology;
        cfg.smt = self.smt_model.clone();
        cfg
    }

    /// Builds the machine and instantiates the app without running — for
    /// multi-application co-scheduling studies that add more workloads
    /// before driving the machine themselves.
    pub fn build_machine(&self, seed: u64) -> (Machine, WorkloadOpts) {
        let mut opts = self.opts.clone();
        opts.duration = self.budget.duration;
        (Machine::new(self.machine_config(seed)), opts)
    }

    /// Runs a single iteration and returns the raw trace + process filter —
    /// the input to the timeline figures (Figs. 5–7, 9, 13).
    pub fn run_once(&self, seed: u64) -> SingleRun {
        let mut sp = simobs::span::span("sim", "run_once");
        let mut m = Machine::new(self.machine_config(seed));
        let mut opts = self.opts.clone();
        opts.duration = self.budget.duration;
        let pid = build(self.app, &mut m, &opts);
        m.run_for(self.budget.duration);
        // Snapshot the scheduler/GPU/calendar counters before `into_trace`
        // consumes the machine.
        let mut metrics = RunMetrics::collect(&m);
        let trace = m.into_trace();
        // Prefix filtering picks up multi-process applications.
        let mut filter = trace.pids_by_name(self.app.process_name());
        if filter.is_empty() {
            filter = pid.into();
        }
        // Bottleneck-profiler gauges. Both inputs derive from the sealed
        // trace in virtual time, so the values — like every other metric —
        // are byte-identical across job counts. The registry stores i64,
        // so fractions are scaled to parts-per-million.
        let cp = critical::critical_path(&trace, &filter);
        metrics.registry.gauge(
            "parastat_critical_path_fraction_ppm",
            &[],
            ppm(cp.critical_fraction()),
        );
        let blamed = blame::blame(&trace, &filter);
        metrics.registry.gauge(
            "parastat_top_blocker_share_ppm",
            &[],
            ppm(blamed.top_blocker_share()),
        );
        // Trace verification: the invariant checker plus the happens-before
        // pass. On a healthy machine both are always zero; the counter
        // existing in every registry means a regression shows up as a diff
        // in any exported metrics artifact, not just in debug builds.
        let verified = verify::verify_trace(&trace);
        let causal = hb::analyze(&trace, &hb::HbOptions::default());
        metrics.registry.counter(
            "parastat_verify_findings_total",
            &[],
            (verified.diagnostics.len() + causal.findings.len()) as u64,
        );
        // Persistent-store provenance. These are *constants* by design: a
        // snapshot produced by simulation cost exactly one store miss and
        // zero hits/quarantines, and a snapshot replayed from disk is this
        // same registry, bit for bit. Making them vary with live session
        // state would break the byte-identical cold-vs-warm guarantee;
        // session tallies live in `RunContext::store_stats` instead.
        metrics
            .registry
            .counter("parastat_store_disk_hits_total", &[], 0);
        metrics
            .registry
            .counter("parastat_store_disk_misses_total", &[], 1);
        metrics
            .registry
            .counter("parastat_store_quarantined_total", &[], 0);
        sp.add_events(trace.events().len() as u64);
        SingleRun {
            trace,
            filter,
            metrics,
        }
    }

    /// Runs all iterations and aggregates (the Table II protocol).
    ///
    /// Convenience wrapper over a private serial [`crate::runner::RunContext`];
    /// sweeps that run many experiments should build one shared context and
    /// call [`crate::runner::RunContext::run_experiments`] instead, which
    /// memoizes repeated configurations and can fan iterations out over a
    /// thread pool.
    pub fn run(&self) -> Measurement {
        crate::runner::RunContext::serial().run_experiment(self)
    }
}

/// Scales an optional fraction in `[0, 1]` to integer parts-per-million
/// (`None` — nothing measured — renders as 0).
fn ppm(fraction: Option<f64>) -> i64 {
    (fraction.unwrap_or(0.0) * 1e6).round() as i64
}

/// Deterministic metrics snapshot from one iteration: scheduler, GPU and
/// calendar counters frozen at the end of the observation window.
///
/// Everything inside derives from virtual time and event counts only, so two
/// runs with the same configuration and seed produce byte-identical
/// [Prometheus renderings](RunMetrics::to_prometheus).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// The collected metric families.
    pub registry: Registry,
}

impl RunMetrics {
    /// Snapshots a machine's embedded metrics into a fresh registry.
    pub fn collect(machine: &Machine) -> RunMetrics {
        let mut registry = Registry::new();
        machine.collect_metrics(&mut registry);
        RunMetrics { registry }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        self.registry.to_prometheus()
    }

    /// Looks up a label-less counter (convenience for reports and tests).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.registry.counter_value(name, &[])
    }
}

/// The raw product of one iteration.
#[derive(Clone, Debug)]
pub struct SingleRun {
    /// The sealed event trace.
    pub trace: EtlTrace,
    /// The application's process set.
    pub filter: PidSet,
    /// Metrics snapshot taken when the window closed.
    pub metrics: RunMetrics,
}

impl SingleRun {
    /// Concurrency profile (Equation 1 inputs).
    pub fn profile(&self) -> ConcurrencyProfile {
        analysis::concurrency(&self.trace, &self.filter)
    }

    /// Application-level TLP.
    pub fn tlp(&self) -> f64 {
        self.profile().tlp()
    }

    /// Blocked-time blame attribution (the bottleneck profiler).
    pub fn blame(&self) -> blame::BlameReport {
        blame::blame(&self.trace, &self.filter)
    }

    /// Wait-for graph critical path and the what-if TLP upper bound.
    pub fn critical_path(&self) -> critical::CriticalPath {
        critical::critical_path(&self.trace, &self.filter)
    }

    /// GPU utilization on device 0.
    pub fn gpu_util(&self) -> analysis::GpuUtil {
        analysis::gpu_utilization(&self.trace, &self.filter, Some(0))
    }

    /// Instantaneous TLP over `bin`-sized windows (Figs. 5–7).
    pub fn tlp_series(&self, bin: SimDuration) -> Series {
        analysis::instantaneous_tlp(&self.trace, &self.filter, bin)
    }

    /// GPU busy-percent over `bin`-sized windows.
    pub fn gpu_series(&self, bin: SimDuration) -> Series {
        analysis::gpu_util_series(&self.trace, &self.filter, Some(0), bin)
    }

    /// Frames (or transcoded frames) per second over `bin` windows.
    pub fn fps_series(&self, bin: SimDuration) -> Series {
        let pid = self.filter.iter().next();
        analysis::fps_series(&self.trace, pid, bin)
    }

    /// Total presented/transcoded frames in the window.
    pub fn frames(&self) -> u64 {
        self.trace
            .events()
            .iter()
            .filter(|e| {
                matches!(e, etwtrace::TraceEvent::Frame { pid, .. } if self.filter.contains(*pid))
            })
            .count() as u64
    }

    /// Mean frame rate over the whole window (the transcode rate of
    /// Table III / Fig. 8, or the display FPS of a player/VR title).
    pub fn frame_rate(&self) -> f64 {
        self.frames() as f64 / self.trace.window().as_secs_f64()
    }
}

/// Aggregated result of an experiment — one row of Table II.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Application measured.
    pub app: AppId,
    /// Logical CPUs enabled during the run.
    pub n_logical: usize,
    /// TLP mean/σ over iterations.
    pub tlp: RunningStat,
    /// GPU utilization (%) mean/σ over iterations.
    pub gpu_percent: RunningStat,
    /// Frame/transcode rate mean/σ over iterations.
    pub transcode_fps: RunningStat,
    /// Merged concurrency histogram (the `C0..C12` heat-map row).
    pub histogram: Histogram,
    /// Highest instantaneous concurrency observed.
    pub max_concurrency: usize,
    /// Peak (max over iterations) of the per-iteration mean number of
    /// outstanding GPU packets — the basis of PhoenixMiner's `*` footnote
    /// in Table II ("two packets were simultaneously executing on the GPU").
    pub peak_mean_outstanding: f64,
    /// Per-iteration metrics snapshots, in iteration order.
    pub metrics: Vec<RunMetrics>,
}

impl Measurement {
    /// Aggregates per-iteration runs into one measurement, exactly as the
    /// paper's protocol does: mean/σ over iterations, histogram merge,
    /// max concurrency, peak mean-outstanding.
    ///
    /// `runs` must be `experiment`'s iterations in iteration order — the
    /// runner layer guarantees this, so the aggregate (and everything
    /// rendered from it) is byte-identical however the runs were scheduled.
    pub fn aggregate(experiment: &Experiment, runs: &[std::sync::Arc<SingleRun>]) -> Measurement {
        let mut tlp = RunningStat::new();
        let mut gpu_percent = RunningStat::new();
        let mut transcode_fps = RunningStat::new();
        let mut histogram = Histogram::new(experiment.logical);
        let mut max_concurrency = 0;
        let mut peak_mean_outstanding: f64 = 0.0;
        let mut metrics = Vec::new();
        for run in runs {
            let profile = run.profile();
            tlp.push(profile.tlp());
            let util = run.gpu_util();
            gpu_percent.push(util.percent());
            peak_mean_outstanding = peak_mean_outstanding.max(util.mean_outstanding);
            transcode_fps.push(run.frame_rate());
            max_concurrency = max_concurrency.max(profile.max_concurrency());
            histogram.merge(profile.histogram());
            metrics.push(run.metrics.clone());
        }
        Measurement {
            app: experiment.app,
            n_logical: experiment.logical,
            tlp,
            gpu_percent,
            transcode_fps,
            histogram,
            max_concurrency,
            peak_mean_outstanding,
            metrics,
        }
    }

    /// Execution-time fractions `c_0..c_n` (merged across iterations).
    pub fn fractions(&self) -> Vec<f64> {
        self.histogram.fractions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handbrake_quick_measurement() {
        let m = Experiment::new(AppId::Handbrake)
            .budget(Budget::quick())
            .run();
        assert!(m.tlp.mean() > 7.0, "tlp {}", m.tlp.mean());
        assert_eq!(m.tlp.count(), 1);
        assert_eq!(m.max_concurrency, 12);
    }

    #[test]
    fn iterations_have_low_sigma() {
        let budget = Budget {
            duration: SimDuration::from_secs(10),
            iterations: 3,
        };
        let m = Experiment::new(AppId::VlcMediaPlayer).budget(budget).run();
        assert_eq!(m.tlp.count(), 3);
        // The paper: "based on the low standard deviations, we conclude
        // that our experimental results are consistent".
        assert!(
            m.tlp.population_std_dev() < 0.3,
            "σ {}",
            m.tlp.population_std_dev()
        );
    }

    #[test]
    fn core_scaling_builder() {
        let m = Experiment::new(AppId::EasyMiner)
            .budget(Budget::quick())
            .logical(4, true)
            .run();
        assert_eq!(m.n_logical, 4);
        assert!(m.tlp.mean() > 3.5, "tlp {}", m.tlp.mean());
    }

    #[test]
    fn multiprocess_filter_catches_children() {
        let run = Experiment::new(AppId::Chrome)
            .budget(Budget::quick())
            .run_once(1);
        assert!(run.filter.len() > 1, "chrome should be multi-process");
    }
}
