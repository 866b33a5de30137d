//! Persistent-store determinism: cold and warm runs, any job count, must
//! render byte-identical artifacts — and a corrupted entry must cost one
//! re-simulation, never a changed byte.

use parastat::store::LoadOutcome;
use parastat::{Budget, Experiment, RunContext, RunRequest, SimStore};
use simcore::SimDuration;
use std::path::{Path, PathBuf};
use workloads::AppId;

fn tmp_root(name: &str) -> PathBuf {
    let mut root = std::env::temp_dir();
    root.push(format!("simstore-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn experiments() -> Vec<Experiment> {
    let budget = Budget {
        duration: SimDuration::from_secs(2),
        iterations: 2,
    };
    vec![
        Experiment::new(AppId::VlcMediaPlayer).budget(budget),
        Experiment::new(AppId::Handbrake)
            .budget(budget)
            .logical(4, true),
    ]
}

fn render(ctx: &RunContext) -> String {
    let mut out = String::new();
    for m in ctx.run_experiments(&experiments()) {
        out.push_str(&format!(
            "{:?} tlp={} fractions={:?}\n",
            m.app,
            m.tlp.mean().to_bits(),
            m.fractions()
        ));
        for metrics in &m.metrics {
            out.push_str(&metrics.to_prometheus());
        }
    }
    out
}

fn store_ctx(root: &Path, jobs: usize) -> RunContext {
    let mut ctx = RunContext::pooled(jobs);
    ctx.set_store(SimStore::open(root));
    ctx
}

/// Every live entry under `root` (quarantine excluded), in path order.
fn entries(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(read) = std::fs::read_dir(dir) else {
            return;
        };
        for e in read.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("quarantine") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "run") {
                out.push(p);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

fn first_entry(root: &Path) -> PathBuf {
    entries(root)
        .into_iter()
        .next()
        .expect("store has at least one entry")
}

/// Flips one byte in the middle of a persisted entry.
fn corrupt(entry: &Path) {
    let mut bytes = std::fs::read(entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    parastat::store::atomic_write(entry, &bytes).unwrap();
}

#[test]
fn warm_store_replays_with_zero_simulations_and_identical_bytes() {
    let root = tmp_root("warm");

    // Cold pass, serial: everything simulates and persists.
    let cold = store_ctx(&root, 1);
    let cold_render = render(&cold);
    let (_, cold_misses) = cold.cache_stats();
    let (dh, dm, q) = cold.store_stats();
    assert_eq!(cold_misses, 4, "2 experiments x 2 iterations simulate");
    assert_eq!((dh, q), (0, 0));
    assert_eq!(dm, 4);

    // Warm pass, pooled: zero simulations, 100% disk hits, same bytes.
    let warm = store_ctx(&root, 4);
    let warm_render = render(&warm);
    let (_, warm_misses) = warm.cache_stats();
    let (dh, dm, q) = warm.store_stats();
    assert_eq!(warm_misses, 0, "warm store must not simulate");
    assert_eq!((dh, dm, q), (4, 0, 0));
    assert_eq!(
        cold_render, warm_render,
        "cold and warm artifacts must match"
    );

    // No-store reference: the store must be invisible in the artifacts.
    let plain = RunContext::serial();
    assert_eq!(render(&plain), cold_render);
    assert_eq!(plain.store_stats(), (0, 0, 0));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupted_entry_requarantines_and_resimulates_identically() {
    let root = tmp_root("corrupt");
    let cold_render = render(&store_ctx(&root, 1));

    // Flip one byte in one persisted entry.
    corrupt(&first_entry(&root));

    let repair = store_ctx(&root, 2);
    let repaired_render = render(&repair);
    let (_, misses) = repair.cache_stats();
    let (dh, dm, q) = repair.store_stats();
    assert_eq!(q, 1, "exactly the poisoned entry is quarantined");
    assert_eq!(misses, 1, "only the poisoned entry re-simulates");
    assert_eq!((dh, dm), (3, 1));
    assert_eq!(
        repaired_render, cold_render,
        "corruption must never leak into artifacts"
    );
    assert_eq!(repair.store_notes().len(), 1);
    assert!(repair.store_notes()[0].contains("quarantined"));

    // The re-simulation healed the store: next pass is fully warm.
    let healed = store_ctx(&root, 1);
    assert_eq!(render(&healed), cold_render);
    assert_eq!(healed.store_stats(), (4, 0, 0));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn load_outcome_reflects_store_state() {
    let root = tmp_root("outcome");
    let store = SimStore::open(&root);
    let exp = Experiment::new(AppId::VlcMediaPlayer).budget(Budget {
        duration: SimDuration::from_secs(2),
        iterations: 1,
    });
    let req = RunRequest::new(&exp, 42);
    let key = req.cache_key();
    assert!(matches!(store.load(&key), LoadOutcome::Miss));
    store.save(&key, &req.execute()).unwrap();
    assert!(matches!(store.load(&key), LoadOutcome::Hit(_)));
    let _ = std::fs::remove_dir_all(&root);
}

/// Everything a warm pass reports that must not depend on the job count.
fn warm_pass(root: &Path, jobs: usize) -> String {
    let ctx = store_ctx(root, jobs);
    let render = render(&ctx);
    format!(
        "{render}store={:?} cache={:?} verify={:?} reports={:?}",
        ctx.store_stats(),
        ctx.cache_stats(),
        ctx.verify_stats(),
        ctx.verify_reports()
    )
}

#[test]
fn warm_pass_is_identical_at_every_job_count() {
    let root = tmp_root("warm-jobs");
    render(&store_ctx(&root, 1));
    let serial = warm_pass(&root, 1);
    assert!(serial.contains("store=(4, 0, 0) cache=(0, 0)"), "{serial}");
    for jobs in [2, 4] {
        assert_eq!(warm_pass(&root, jobs), serial, "warm pass at {jobs} jobs");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quarantine_notes_keep_submission_order_on_the_pool() {
    let root = tmp_root("notes-order");
    render(&store_ctx(&root, 1));
    let all = entries(&root);
    let victims = [all[0].clone(), all[all.len() - 1].clone()];
    let notes_at = |jobs: usize| {
        for victim in &victims {
            corrupt(victim);
        }
        let ctx = store_ctx(&root, jobs);
        render(&ctx);
        assert_eq!(ctx.store_stats(), (2, 2, 2), "at {jobs} jobs");
        ctx.store_notes()
    };
    // The serial pass re-simulates both victims back into place, so the
    // pooled pass meets the same two corrupt entries.
    let serial = notes_at(1);
    assert_eq!(serial.len(), 2, "{serial:?}");
    assert_ne!(serial[0], serial[1], "the victims are different runs");
    assert!(
        serial.iter().all(|n| n.starts_with("quarantined")),
        "{serial:?}"
    );
    assert_eq!(notes_at(4), serial);
    let _ = std::fs::remove_dir_all(&root);
}
