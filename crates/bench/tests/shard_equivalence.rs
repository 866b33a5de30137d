//! Property-based pin of the sharded-analysis contract: for arbitrary
//! mixes of compute, sleep, event signalling/waiting, GPU submission and
//! yields — and for *any* shard count, on either the serial reference
//! runner or a real thread pool — every sharded analyzer must produce
//! exactly the report its materialized twin computes from the same trace.
//! Not "close": equal, field for field, so the rendered bytes match at any
//! shard count.

use etwtrace::{analysis, setl3, EtlTrace, SerialShards, ShardRunner, ShardedTrace};
use machine::{Action, Machine, MachineConfig, ThreadCtx, ThreadProgram, Work};
use parastat::ThreadPoolRunner;
use proptest::prelude::*;
use simcore::SimDuration;

/// A data-driven program over the full action vocabulary (same shape as
/// the timeline conservation property test). Event opcodes bank a unit
/// before waiting so waits are eventually served; GPU opcodes submit a
/// small packet and immediately wait on it.
#[derive(Clone, Debug)]
struct MixedProgram {
    steps: Vec<(u8, u16)>,
    idx: usize,
}

impl ThreadProgram for MixedProgram {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let Some(&(op, amount)) = self.steps.get(self.idx) else {
            return Action::Exit;
        };
        self.idx += 1;
        let f = amount as f64;
        match op % 6 {
            0 => Action::Compute(Work::busy_us(f * 10.0)),
            1 => Action::Sleep(SimDuration::from_micros(amount as u64 * 10)),
            2 => Action::Yield,
            3 => {
                let ev = machine::EventId(0);
                ctx.signal(ev);
                Action::WaitEvent(ev)
            }
            4 => {
                ctx.signal_n(machine::EventId(0), 2);
                Action::Compute(Work::busy_us(f))
            }
            _ => {
                let sub = ctx.submit_gpu(0, 0, simgpu::PacketKind::Compute, f * 0.05);
                Action::WaitGpu(sub)
            }
        }
    }
}

fn arb_program() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((any::<u8>(), 1u16..400), 1..20)
}

fn random_trace(programs: Vec<Vec<(u8, u16)>>, logical: usize, seed: u64) -> EtlTrace {
    let mut m = Machine::new(MachineConfig::study_rig(logical.max(2), true).with_seed(seed));
    let ev = m.create_event();
    assert_eq!(ev, machine::EventId(0));
    let pid = m.add_process("shard.exe");
    for (i, steps) in programs.into_iter().enumerate() {
        m.spawn(
            pid,
            &format!("t{i}"),
            Box::new(MixedProgram { steps, idx: 0 }),
        );
    }
    m.run_for(SimDuration::from_millis(50));
    m.into_trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the programs do, however many shards carve the block list,
    /// and whichever runner drives them, every analyzer report is equal to
    /// the one the materialize-then-fold pipeline computes.
    #[test]
    fn every_sharded_analyzer_equals_its_materialized_twin(
        programs in proptest::collection::vec(arb_program(), 1..6),
        logical in 1usize..6,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let trace = random_trace(programs, logical, seed);
        let sharded = ShardedTrace::from_bytes(setl3::encode(&trace)).unwrap();
        let filter = trace.pids_by_name("shard");
        let opts = etwtrace::hb::HbOptions::default();
        let pool = ThreadPoolRunner::new(2);
        let runners: [&dyn ShardRunner; 2] = [&SerialShards, &pool];
        for runner in runners {
            prop_assert_eq!(
                etwtrace::verify::verify_sharded(&sharded, runner, shards).unwrap(),
                etwtrace::verify::verify_trace(&trace)
            );
            prop_assert_eq!(
                etwtrace::hb::analyze_sharded(&sharded, &opts, runner, shards).unwrap(),
                etwtrace::hb::analyze(&trace, &opts)
            );
            prop_assert_eq!(
                etwtrace::blame::blame_sharded(&sharded, &filter, runner, shards).unwrap(),
                etwtrace::blame::blame(&trace, &filter)
            );
            let cp_sharded =
                etwtrace::critical::critical_path_sharded(&sharded, &filter, runner, shards)
                    .unwrap();
            let cp = etwtrace::critical::critical_path(&trace, &filter);
            prop_assert_eq!(
                cp_sharded.measured_tlp.to_bits(),
                cp.measured_tlp.to_bits()
            );
            prop_assert_eq!(cp_sharded, cp);
            prop_assert_eq!(
                etwtrace::timeline::timeline_sharded(&sharded, 31, runner, shards).unwrap(),
                etwtrace::timeline::fold_trace(&trace, 31)
            );
            prop_assert_eq!(
                analysis::concurrency_sharded(&sharded, &filter, runner, shards).unwrap(),
                analysis::concurrency(&trace, &filter)
            );
            prop_assert_eq!(
                analysis::ordered_stats_sharded(&sharded, &filter, runner, shards)
                    .unwrap(),
                etwtrace::OrderedStats {
                    gpu: analysis::gpu_utilization(&trace, &filter, None),
                    latency: analysis::scheduling_latency(&trace, &filter),
                    schedule: analysis::schedule_stats(&trace, &filter),
                    engines: analysis::gpu_engine_breakdown(&trace, &filter, 0),
                }
            );
            prop_assert_eq!(
                analysis::scheduling_latency_sharded(&sharded, &filter, runner, shards).unwrap(),
                analysis::scheduling_latency(&trace, &filter)
            );
        }
    }
}

/// A Chrome recording of `ms` simulated milliseconds: every event kind,
/// many processes, verify-clean.
fn chrome_trace(ms: u64) -> EtlTrace {
    let duration = SimDuration::from_millis(ms);
    let mut m = Machine::new(MachineConfig::study_rig(12, true).with_seed(3));
    let opts = workloads::WorkloadOpts {
        duration,
        ..workloads::WorkloadOpts::default()
    };
    workloads::build(workloads::AppId::Chrome, &mut m, &opts);
    m.run_for(duration);
    m.into_trace()
}

/// Runs `f` on its own thread and fails the test instead of hanging if it
/// has not returned within a minute.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    // lint:allow(raw-spawn): a watchdog so a hung fold fails the test
    // instead of hanging the suite; it produces no ordered output.
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the pipelined fold hung or panicked")
}

/// The pipelined `fold_events` at widths 1, 2, 4 and 8, on the serial
/// reference and on real pools narrower and wider than the width, over an
/// empty trace, a one-block trace and a many-block trace: every ordered
/// fold equals its materialized analyzer.
#[test]
fn pipelined_fold_equals_the_materialized_analyzers_at_every_width() {
    let empty = etwtrace::TraceBuilder::new(4).finish(
        simcore::SimTime::ZERO,
        simcore::SimTime::ZERO + SimDuration::from_millis(5),
    );
    let one_block = chrome_trace(100);
    let many_blocks = chrome_trace(30_000);
    let opts = etwtrace::hb::HbOptions::default();
    let (pool2, pool8) = (ThreadPoolRunner::new(2), ThreadPoolRunner::new(8));
    let runners: [&dyn ShardRunner; 3] = [&SerialShards, &pool2, &pool8];
    for (trace, blocks) in [
        (&empty, 0..1),
        (&one_block, 1..2),
        (&many_blocks, 5..usize::MAX),
    ] {
        let sharded = ShardedTrace::from_bytes(setl3::encode(trace)).unwrap();
        assert!(
            blocks.contains(&sharded.n_blocks()),
            "{} blocks",
            sharded.n_blocks()
        );
        let filter = trace.pids_by_name("chrome");
        for runner in runners {
            for shards in [1usize, 2, 4, 8] {
                let at = format!("{} blocks, width {shards}", sharded.n_blocks());
                let mut seen = Vec::new();
                sharded
                    .fold_events(runner, shards, |ev| seen.push(ev.clone()))
                    .unwrap();
                assert_eq!(seen, trace.events(), "{at}");
                assert_eq!(
                    etwtrace::verify::verify_sharded(&sharded, runner, shards).unwrap(),
                    etwtrace::verify::verify_trace(trace),
                    "{at}"
                );
                assert_eq!(
                    etwtrace::hb::analyze_sharded(&sharded, &opts, runner, shards).unwrap(),
                    etwtrace::hb::analyze(trace, &opts),
                    "{at}"
                );
                assert_eq!(
                    etwtrace::blame::blame_sharded(&sharded, &filter, runner, shards).unwrap(),
                    etwtrace::blame::blame(trace, &filter),
                    "{at}"
                );
                assert_eq!(
                    etwtrace::critical::critical_path_sharded(&sharded, &filter, runner, shards)
                        .unwrap()
                        .render(),
                    etwtrace::critical::critical_path(trace, &filter).render(),
                    "{at}"
                );
                assert_eq!(
                    etwtrace::timeline::timeline_sharded(&sharded, 24, runner, shards).unwrap(),
                    etwtrace::timeline::fold_trace(trace, 24),
                    "{at}"
                );
                // `tracetool tlp`'s one pass equals the four analyzers.
                assert_eq!(
                    analysis::ordered_stats_sharded(&sharded, &filter, runner, shards).unwrap(),
                    etwtrace::OrderedStats {
                        gpu: analysis::gpu_utilization(trace, &filter, None),
                        latency: analysis::scheduling_latency(trace, &filter),
                        schedule: analysis::schedule_stats(trace, &filter),
                        engines: analysis::gpu_engine_breakdown(trace, &filter, 0),
                    },
                    "{at}"
                );
            }
        }
    }
}

/// Two corrupt blocks in the middle of a many-block trace: at every width
/// and on every runner the fold returns the first one's "block checksum
/// mismatch", after folding exactly the blocks before it, and returns
/// rather than hanging.
#[test]
fn corrupt_middle_block_fails_alike_at_every_width() {
    let mut bytes = setl3::encode(&chrome_trace(30_000));
    let n_blocks = ShardedTrace::from_bytes(bytes.clone()).unwrap().n_blocks();
    let (a, b) = (bytes.len() * 2 / 5, bytes.len() * 3 / 5);
    bytes[a] ^= 0x40;
    bytes[b] ^= 0x40;
    let sharded = ShardedTrace::from_bytes(bytes).unwrap();
    let bad: Vec<usize> = (0..n_blocks)
        .filter(|&i| sharded.decode_block(i).is_err())
        .collect();
    assert_eq!(bad.len(), 2, "corrupt blocks {bad:?}");
    assert!(
        bad[0] > 0 && bad[1] + 1 < n_blocks,
        "corrupt blocks {bad:?}"
    );
    let before: u64 = (0..bad[0]).map(|i| sharded.block_records(i)).sum();
    let sharded = std::sync::Arc::new(sharded);
    for jobs in [1usize, 2, 8] {
        for shards in [1usize, 2, 4, 8] {
            let sharded = sharded.clone();
            let (folded, err) = within_a_minute(move || {
                let pool = ThreadPoolRunner::new(jobs);
                let serial = SerialShards;
                let runner: &dyn ShardRunner = if jobs == 1 { &serial } else { &pool };
                let mut folded = 0u64;
                let err = sharded
                    .fold_events(runner, shards, |_| folded += 1)
                    .unwrap_err();
                let filter = etwtrace::PidSet::from_iter([1u64]);
                let blame = etwtrace::blame::blame_sharded(&sharded, &filter, runner, shards);
                assert_eq!(blame.unwrap_err().to_string(), err.to_string());
                (folded, err.to_string())
            });
            assert_eq!(
                err, "block checksum mismatch",
                "jobs {jobs}, width {shards}"
            );
            assert_eq!(folded, before, "jobs {jobs}, width {shards}");
        }
    }
}
