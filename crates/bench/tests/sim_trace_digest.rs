//! Pins the simulator's raw output, bit for bit, to `golden/sim_traces.txt`.
//!
//! The paper tables round every figure, so a scheduler change that moves a
//! timestamp by one nanosecond or an f64 progress sum by one ulp can slip
//! through them. This test simulates every application for 2 s at a fixed
//! seed on two topologies — the 12-logical SMT study rig and a 4-logical
//! no-SMT mask — and pins a 64-bit FNV-1a digest of the SETL v3 encoding of
//! the trace and of the run's Prometheus snapshot. A change that claims
//! byte identity must leave this file untouched.
//!
//! On a mismatch the test writes the fresh rendering next to the test
//! binaries (`CARGO_TARGET_TMPDIR/sim_traces.txt`); copy it over the golden
//! only when the change in simulated behaviour is intended.

use machine::{Machine, MachineConfig};
use simcore::SimDuration;
use simobs::Registry;
use workloads::{build, AppId, WorkloadOpts};

/// The fixed machine seed of every pinned run.
const SEED: u64 = 0xD16E57;

/// The simulated window of every pinned run.
const WINDOW_S: u64 = 2;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden line: the app, the topology, the trace's event count and the
/// two digests.
fn digest_line(app: AppId, logical: usize, smt: bool) -> String {
    let cfg = MachineConfig::study_rig(logical, smt).with_seed(SEED);
    let mut m = Machine::new(cfg);
    let opts = WorkloadOpts {
        duration: SimDuration::from_secs(WINDOW_S),
        ..WorkloadOpts::default()
    };
    build(app, &mut m, &opts);
    m.run_for(SimDuration::from_secs(WINDOW_S));
    let mut reg = Registry::new();
    m.collect_metrics(&mut reg);
    let prom = reg.to_prometheus();
    let trace = m.into_trace();
    let setl3 = etwtrace::setl3::encode(&trace);
    format!(
        "{app:?} {logical}{} events={} setl3={:016x} prom={:016x}",
        if smt { "smt" } else { "nosmt" },
        trace.events().len(),
        fnv1a(&setl3),
        fnv1a(prom.as_bytes()),
    )
}

#[test]
fn simulated_traces_match_golden_digests() {
    let mut rendered = String::new();
    for app in AppId::ALL {
        for (logical, smt) in [(12, true), (4, false)] {
            rendered.push_str(&digest_line(app, logical, smt));
            rendered.push('\n');
        }
    }
    let golden = include_str!("golden/sim_traces.txt");
    if rendered != golden {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_traces.txt");
        // lint:allow(fs-write): scratch copy of the fresh digests for a
        // human to inspect; never read back by any test.
        std::fs::write(&out, &rendered).expect("write fresh digests");
        let drifted: Vec<&str> = rendered
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("")))
            .filter(|(new, old)| new != old)
            .map(|(new, _)| new)
            .collect();
        panic!(
            "simulator output drifted from tests/golden/sim_traces.txt on {} of {} runs \
             (fresh digests written to {}):\n{}",
            drifted.len(),
            rendered.lines().count(),
            out.display(),
            drifted.join("\n")
        );
    }
}
