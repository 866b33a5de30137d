//! Property-based tests of the CPU models: frequency monotonicity, SMT
//! factor bounds and topology mask invariants.

use proptest::prelude::*;
use simcpu::{presets, ComputeKind, FreqModel, SmtModel, Topology};

fn arb_kind() -> impl Strategy<Value = ComputeKind> {
    prop_oneof![
        Just(ComputeKind::Scalar),
        Just(ComputeKind::Vector),
        Just(ComputeKind::MemoryBound),
        Just(ComputeKind::Mixed),
    ]
}

proptest! {
    /// Effective frequency is bounded by [all-core, single-core turbo] and
    /// never increases with more active cores.
    #[test]
    fn prop_frequency_monotone(active in 0usize..32) {
        let f = FreqModel;
        for cpu in [presets::i7_8700k(), presets::blake_2010_xeon(), presets::flautner_2000_smp()] {
            let mhz = f.effective_mhz(&cpu, active);
            prop_assert!(mhz >= cpu.all_core_mhz - 1e-9, "{} @{active}: {mhz}", cpu.name);
            prop_assert!(mhz <= cpu.turbo_mhz + 1e-9, "{} @{active}: {mhz}", cpu.name);
            let next = f.effective_mhz(&cpu, active + 1);
            prop_assert!(next <= mhz + 1e-9);
        }
    }

    /// SMT pair factors stay in (0.5, 1.0) — each sibling slower than alone
    /// but the pair always faster than one thread.
    #[test]
    fn prop_smt_factors_bounded(a in arb_kind(), b in arb_kind()) {
        let m = SmtModel::default();
        let f = m.pair_factor(a, Some(b));
        prop_assert!(f > 0.5 && f < 1.0, "{a:?}/{b:?}: {f}");
        prop_assert_eq!(m.pair_factor(a, None), 1.0);
    }

    /// Thread speed is positive and alone ≥ shared for every configuration.
    #[test]
    fn prop_thread_speed_sane(kind in arb_kind(), sibling in arb_kind(), active in 1usize..=6) {
        let f = FreqModel;
        let cpu = presets::i7_8700k();
        let smt = SmtModel::default();
        let alone = f.thread_ops_per_sec(&cpu, &smt, kind, active, None);
        let shared = f.thread_ops_per_sec(&cpu, &smt, kind, active, Some(sibling));
        prop_assert!(alone > 0.0 && shared > 0.0);
        prop_assert!(alone >= shared);
    }

    /// Topology masks: the requested logical count is honoured, ids are
    /// dense, physical indices are packed, and siblings are mutual.
    #[test]
    fn prop_topology_masks(logical in 1usize..=12, smt: bool) {
        let cpu = presets::i7_8700k();
        let max = if smt { 12 } else { 6 };
        prop_assume!(logical <= max);
        let t = Topology::with_logical_cpus(&cpu, logical, smt);
        prop_assert_eq!(t.logical_count(), logical);
        for (i, lc) in t.cpus().iter().enumerate() {
            prop_assert_eq!(lc.id, i);
            prop_assert!(lc.physical < t.physical_count());
        }
        for cpu_id in 0..logical {
            if let Some(sib) = t.sibling_of(cpu_id) {
                prop_assert_eq!(t.sibling_of(sib), Some(cpu_id));
                prop_assert!(smt, "siblings only exist under SMT masks");
            }
        }
        if !smt {
            prop_assert_eq!(t.physical_count(), logical);
        } else {
            prop_assert_eq!(t.physical_count(), logical.div_ceil(2));
        }
    }
}

/// The precomputed sibling table agrees with the definition it replaced —
/// a linear scan for another enabled CPU on the same physical core — for
/// every preset, every logical count, with and without SMT, including
/// out-of-range ids.
#[test]
fn sibling_table_matches_scan_definition() {
    for spec in [
        presets::i7_8700k(),
        presets::blake_2010_xeon(),
        presets::flautner_2000_smp(),
    ] {
        for smt in [false, true] {
            let ways = if smt { spec.smt_ways.max(1) } else { 1 };
            for logical in 1..=spec.physical_cores * ways {
                let t = Topology::with_logical_cpus(&spec, logical, smt);
                for cpu in 0..logical + 2 {
                    let scanned = t.cpus().get(cpu).and_then(|me| {
                        t.cpus()
                            .iter()
                            .find(|c| c.physical == me.physical && c.id != me.id)
                            .map(|c| c.id)
                    });
                    assert_eq!(
                        t.sibling_of(cpu),
                        scanned,
                        "{} logical={logical} smt={smt} cpu={cpu}",
                        spec.name
                    );
                }
            }
        }
    }
}
