//! The per-application bottleneck attribution report — the "why is TLP
//! low" companion to Table II.
//!
//! For every application this runs the Table II experiment through the
//! shared [`RunContext`] (so iterations are memoized alongside the suite),
//! replays each iteration's trace through the blocked-time blame and
//! wait-for-graph critical-path analyses, and renders one row per app:
//! measured TLP, the critical-path what-if TLP upper bound, the serial
//! (critical-path) fraction, and the top serialization bottleneck with its
//! lost core-time.
//!
//! Everything here derives from virtual-time traces only, so the rendered
//! report is byte-identical across `--jobs` levels — the `repro --blame`
//! determinism test pins this.

use crate::experiment::Budget;
use crate::report;
use crate::runner::RunContext;
use crate::suite::table2_experiment;
use etwtrace::blame::Blocker;
use std::collections::BTreeMap;
use workloads::AppId;

/// One application's aggregated bottleneck attribution.
#[derive(Clone, Debug)]
pub struct AppBlame {
    /// Application measured.
    pub app: AppId,
    /// Mean TLP over the iterations (Equation 1).
    pub measured_tlp: f64,
    /// Critical-path what-if TLP upper bound: the max over iterations, so
    /// the bound stays an upper bound for every observed run.
    pub tlp_upper_bound: f64,
    /// Mean critical-path fraction of non-idle wall time over iterations
    /// (1.0 = fully serial), when any iteration had a path.
    pub critical_fraction: Option<f64>,
    /// The blocker with the most lost core-time, summed across iterations.
    pub top_blocker: Option<(Blocker, u64)>,
    /// Total lost core-time across all blockers and iterations (ns).
    pub lost_core_ns: u64,
}

/// Runs the bottleneck attribution for `apps` under `budget`.
///
/// Iterations reuse the context's memo cache, so running this next to
/// [`crate::suite::run_table2`] with the same budget re-simulates nothing.
pub fn run_blame_for(ctx: &RunContext, apps: &[AppId], budget: Budget) -> Vec<AppBlame> {
    let mut sp = simobs::span::span("suite", "blame");
    sp.add_events(apps.len() as u64);
    let experiments: Vec<_> = apps
        .iter()
        .map(|&app| table2_experiment(app, budget))
        .collect();
    let requests: Vec<_> = experiments
        .iter()
        .flat_map(|exp| {
            (0..exp.budget.iterations)
                .map(|i| crate::runner::RunRequest::new(exp, exp.base_seed + u64::from(i)))
        })
        .collect();
    let mut runs = ctx.run_singles(requests).into_iter();
    experiments
        .iter()
        .map(|exp| {
            let mut tlp_sum = 0.0;
            let mut bound: f64 = 0.0;
            let mut frac_sum = 0.0;
            let mut frac_count = 0u32;
            let mut lost: BTreeMap<Blocker, u64> = BTreeMap::new();
            let iters = exp.budget.iterations;
            for _ in 0..iters {
                let run = runs.next().expect("one run per requested iteration");
                let cp = run.critical_path();
                tlp_sum += cp.measured_tlp;
                bound = bound.max(cp.tlp_upper_bound);
                if let Some(f) = cp.critical_fraction() {
                    frac_sum += f;
                    frac_count += 1;
                }
                for stat in run.blame().ranking {
                    *lost.entry(stat.blocker).or_default() += stat.lost_core_ns;
                }
            }
            let lost_core_ns = lost.values().sum();
            // Max lost time; ties break toward the smallest blocker (the
            // map iterates in `Blocker` order) for a stable report.
            let top_blocker = lost
                .iter()
                .max_by_key(|&(blocker, ns)| (*ns, std::cmp::Reverse(*blocker)))
                .map(|(&blocker, &ns)| (blocker, ns));
            AppBlame {
                app: exp.app,
                measured_tlp: tlp_sum / f64::from(iters.max(1)),
                tlp_upper_bound: bound,
                critical_fraction: (frac_count > 0).then(|| frac_sum / f64::from(frac_count)),
                top_blocker,
                lost_core_ns,
            }
        })
        .collect()
}

/// Bottleneck attribution for the whole 30-application suite.
pub fn run_blame(ctx: &RunContext, budget: Budget) -> Vec<AppBlame> {
    run_blame_for(ctx, &AppId::ALL, budget)
}

/// Renders the attribution as the markdown table `repro --blame` emits
/// next to Table II.
pub fn render_blame(rows: &[AppBlame]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (top, lost) = match &r.top_blocker {
                Some((blocker, ns)) => (blocker.to_string(), format!("{:.1}", *ns as f64 / 1e6)),
                None => ("-".to_string(), "0.0".to_string()),
            };
            vec![
                r.app.display_name().to_string(),
                format!("{:.2}", r.measured_tlp),
                format!("{:.2}", r.tlp_upper_bound),
                match r.critical_fraction {
                    Some(f) => format!("{:.1}", f * 100.0),
                    None => "-".to_string(),
                },
                top,
                lost,
            ]
        })
        .collect();
    let table = report::markdown_table(
        &[
            "Application",
            "TLP (measured)",
            "TLP (what-if bound)",
            "Serial %",
            "Top bottleneck",
            "Lost core-ms",
        ],
        &body,
    );
    format!(
        "## Bottleneck attribution\n\n\
         Blocked-time blame and wait-for-graph critical paths over the same\n\
         iterations as Table II. The what-if bound is the TLP the app could\n\
         reach if every wait on its critical path vanished; `Serial %` is the\n\
         critical path's share of non-idle wall time; `Top bottleneck` is the\n\
         wait reason holding the most lost core-time.\n\n{table}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn tiny_budget() -> Budget {
        Budget {
            duration: SimDuration::from_secs(4),
            iterations: 2,
        }
    }

    #[test]
    fn blame_rows_bound_measured_tlp() {
        let ctx = RunContext::from_env();
        let rows = run_blame_for(
            &ctx,
            &[AppId::Handbrake, AppId::VlcMediaPlayer],
            tiny_budget(),
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.tlp_upper_bound >= r.measured_tlp,
                "{}: bound {} < measured {}",
                r.app.display_name(),
                r.tlp_upper_bound,
                r.measured_tlp
            );
        }
        // HandBrake saturates the rig; the player waits on frame pacing.
        assert!(rows[0].measured_tlp > rows[1].measured_tlp);
    }

    #[test]
    fn render_names_every_app() {
        let ctx = RunContext::from_env();
        let rows = run_blame_for(&ctx, &[AppId::VlcMediaPlayer], tiny_budget());
        let text = render_blame(&rows);
        assert!(text.contains("## Bottleneck attribution"));
        assert!(text.contains("VLC"));
        assert!(text.contains("| Top bottleneck |"));
    }

    #[test]
    fn shares_cache_with_table2_iterations() {
        let ctx = RunContext::serial();
        let budget = Budget {
            duration: SimDuration::from_secs(2),
            iterations: 1,
        };
        let exp = table2_experiment(AppId::Excel, budget);
        ctx.run_experiment(&exp);
        let before = ctx.cache_len();
        run_blame_for(&ctx, &[AppId::Excel], budget);
        assert_eq!(ctx.cache_len(), before, "blame should not re-simulate");
    }
}
