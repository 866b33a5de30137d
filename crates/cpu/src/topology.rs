//! Logical-CPU enumeration and the core-scaling masks used by the paper's
//! experiments (§V-C1 uses 4/8/12 logical cores with SMT; Fig. 8 uses 2–6
//! logical cores with and without SMT).

use crate::CpuSpec;

/// One enabled logical CPU: its index and its physical placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LogicalCpu {
    /// Dense index among *enabled* logical CPUs (0-based).
    pub id: usize,
    /// Physical core this hardware thread belongs to.
    pub physical: usize,
    /// SMT slot within the physical core (0 = primary thread).
    pub slot: usize,
}

/// The set of enabled logical CPUs for an experiment.
///
/// Windows enumerates SMT siblings adjacently (CPU0/CPU1 share physical core
/// 0); restricting "to L logical cores with SMT" therefore enables the first
/// ⌈L/2⌉ physical cores with both hardware threads, and "without SMT" enables
/// the first L physical cores with one thread each. Both constructors mirror
/// that convention.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    cpus: Vec<LogicalCpu>,
    /// `siblings[i]`: the other enabled logical CPU on CPU `i`'s physical
    /// core, built once so the scheduler's per-event lookups are O(1).
    siblings: Vec<Option<usize>>,
    physical_cores_enabled: usize,
    smt_enabled: bool,
}

impl Topology {
    /// All logical CPUs of `spec` enabled.
    pub fn full(spec: &CpuSpec) -> Topology {
        Self::with_logical_cpus(spec, spec.logical_cpus(), spec.smt_ways > 1)
    }

    /// Enables exactly `logical` CPUs.
    ///
    /// With `smt = true`, hardware threads are enabled in sibling pairs
    /// (odd `logical` leaves the last physical core with a single thread);
    /// with `smt = false`, one thread per physical core.
    ///
    /// # Panics
    /// Panics if `logical` is zero or exceeds what `spec` provides in the
    /// requested mode.
    pub fn with_logical_cpus(spec: &CpuSpec, logical: usize, smt: bool) -> Topology {
        assert!(logical > 0, "need at least one logical CPU");
        let ways = if smt { spec.smt_ways.max(1) } else { 1 };
        let max = spec.physical_cores * ways;
        assert!(
            logical <= max,
            "{} logical CPUs requested but {} supports only {} in {} mode",
            logical,
            spec.name,
            max,
            if smt { "SMT" } else { "no-SMT" }
        );
        let mut cpus = Vec::with_capacity(logical);
        let mut id = 0;
        'outer: for physical in 0..spec.physical_cores {
            for slot in 0..ways {
                if id == logical {
                    break 'outer;
                }
                cpus.push(LogicalCpu { id, physical, slot });
                id += 1;
            }
        }
        let physical_cores_enabled = cpus.iter().map(|c| c.physical).max().map_or(0, |m| m + 1);
        let siblings = cpus
            .iter()
            .map(|me| {
                cpus.iter()
                    .find(|c| c.physical == me.physical && c.id != me.id)
                    .map(|c| c.id)
            })
            .collect();
        Topology {
            cpus,
            siblings,
            physical_cores_enabled,
            smt_enabled: smt && spec.smt_ways > 1,
        }
    }

    /// The enabled logical CPUs, in id order.
    pub fn cpus(&self) -> &[LogicalCpu] {
        &self.cpus
    }

    /// Number of enabled logical CPUs.
    pub fn logical_count(&self) -> usize {
        self.cpus.len()
    }

    /// Number of physical cores with at least one enabled thread.
    pub fn physical_count(&self) -> usize {
        self.physical_cores_enabled
    }

    /// Whether this mask enables SMT sibling pairs.
    pub fn smt_enabled(&self) -> bool {
        self.smt_enabled
    }

    /// The logical CPU that shares a physical core with `cpu`, if enabled.
    pub fn sibling_of(&self, cpu: usize) -> Option<usize> {
        self.siblings.get(cpu).copied().flatten()
    }

    /// All enabled logical CPUs on the given physical core.
    pub fn threads_of_physical(&self, physical: usize) -> impl Iterator<Item = usize> + '_ {
        self.cpus
            .iter()
            .filter(move |c| c.physical == physical)
            .map(|c| c.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn full_topology_pairs_siblings() {
        let t = Topology::full(&presets::i7_8700k());
        assert_eq!(t.logical_count(), 12);
        assert_eq!(t.physical_count(), 6);
        assert!(t.smt_enabled());
        assert_eq!(t.sibling_of(0), Some(1));
        assert_eq!(t.sibling_of(1), Some(0));
        assert_eq!(t.cpus()[2].physical, 1);
    }

    #[test]
    fn smt_mask_four_logical_is_two_physical() {
        // The paper's "4 logical cores with SMT" case (Fig. 4, Fig. 7).
        let t = Topology::with_logical_cpus(&presets::i7_8700k(), 4, true);
        assert_eq!(t.logical_count(), 4);
        assert_eq!(t.physical_count(), 2);
    }

    #[test]
    fn nosmt_mask_is_one_thread_per_core() {
        // Fig. 8's "no SMT" series: L logical = L physical.
        let t = Topology::with_logical_cpus(&presets::i7_8700k(), 6, false);
        assert_eq!(t.logical_count(), 6);
        assert_eq!(t.physical_count(), 6);
        assert!(!t.smt_enabled());
        assert_eq!(t.sibling_of(0), None);
    }

    #[test]
    fn odd_logical_count_leaves_lone_thread() {
        let t = Topology::with_logical_cpus(&presets::i7_8700k(), 5, true);
        assert_eq!(t.physical_count(), 3);
        assert_eq!(t.sibling_of(4), None);
    }

    #[test]
    #[should_panic(expected = "supports only")]
    fn too_many_logical_panics() {
        Topology::with_logical_cpus(&presets::i7_8700k(), 13, true);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_logical_panics() {
        Topology::with_logical_cpus(&presets::i7_8700k(), 0, true);
    }

    #[test]
    fn threads_of_physical_enumerates() {
        let t = Topology::full(&presets::i7_8700k());
        let threads: Vec<usize> = t.threads_of_physical(2).collect();
        assert_eq!(threads, vec![4, 5]);
    }
}
