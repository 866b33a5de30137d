//! Happens-before analysis over the trace's wake and GPU-submission edges.
//!
//! Where [`crate::verify`] checks structural invariants the scheduler must
//! uphold, this pass asks the TASKPROF-style question: does the *causal*
//! structure of the trace make sense? It builds per-thread vector clocks —
//! each thread ticks its own component on every event it appears in; an
//! event-signal wake joins the waker's clock into the waiter's; a GPU
//! submission snapshots the submitter's clock into the packet and the
//! completion wake joins it into the waiter — and uses them, together with
//! the wait-state bookkeeping, to flag three concurrency smells:
//!
//! * **Deadlock at end of trace** (`H001`): threads still blocked on a
//!   kernel event when no live thread can possibly signal it — every other
//!   thread has exited or is itself stuck. Sleepers (a timer will fire)
//!   and threads blocked on pending GPU packets (the device will complete
//!   them) count as able to make progress, so the finding is conservative.
//! * **Lost wakeup** (`H002`): a signal wakes a thread while another
//!   thread had been parked on the *same* event strictly longer — the
//!   machine's semaphores wake FIFO, so an overtake can only appear in a
//!   forged or corrupted stream. The vector clocks grade the finding:
//!   if the overtaken waiter's park happens-before the signaller's
//!   signal, the signaller provably raced past a visible waiter (error);
//!   otherwise the two are concurrent (warning).
//! * **Yield storm** (`H003`, warning): long runs of closely spaced
//!   voluntary yields — a busy-wait spinning through the scheduler, which
//!   inflates TLP with runnable-but-idle threads exactly as the paper
//!   cautions when reading thread counts off a trace.
//!
//! Everything is computed in one forward scan with `BTreeMap` bookkeeping,
//! so findings are deterministic and ordering-stable.

use crate::event::{EtlTrace, ThreadKey, TraceEvent, WaitReason};
use crate::verify::{DiagCode, Diagnostic, Severity};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tunables for the heuristic findings.
#[derive(Clone, Copy, Debug)]
pub struct HbOptions {
    /// Consecutive closely spaced yields before a storm is reported.
    pub yield_storm_min: usize,
    /// Maximum gap between two yields for the run to continue.
    pub yield_storm_gap: SimDuration,
}

impl Default for HbOptions {
    fn default() -> Self {
        HbOptions {
            yield_storm_min: 64,
            yield_storm_gap: SimDuration::from_millis(1),
        }
    }
}

/// The happens-before pass's result for one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HbReport {
    /// Findings in stream order (end-of-trace deadlocks last, by thread).
    pub findings: Vec<Diagnostic>,
    /// Threads that appeared in the trace.
    pub n_threads: usize,
    /// Event-signal wake edges joined into the clocks.
    pub n_wake_edges: usize,
    /// GPU submit → completion edges joined into the clocks.
    pub n_gpu_edges: usize,
}

impl HbReport {
    /// True when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "happens-before: {} threads, {} wake edges, {} gpu edges, {} findings",
            self.n_threads,
            self.n_wake_edges,
            self.n_gpu_edges,
            self.findings.len()
        );
        for d in &self.findings {
            let _ = writeln!(out, "  {}", d.render());
        }
        out
    }
}

/// A vector clock, indexed by dense thread index.
type Clock = Vec<u64>;

/// `a ≤ b` componentwise (missing components are zero).
fn clock_le(a: &Clock, b: &Clock) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
}

fn clock_join(into: &mut Clock, other: &Clock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, &v) in other.iter().enumerate() {
        into[i] = into[i].max(v);
    }
}

/// Per-thread analysis state.
#[derive(Debug, Default)]
struct Th {
    idx: usize,
    exited: bool,
    /// Open blocking wait, if any.
    wait: Option<(WaitReason, SimTime)>,
    /// Yield-storm run state: (run length, time of the last yield).
    yields: usize,
    last_yield: Option<SimTime>,
    storm_reported: bool,
}

struct Analyzer {
    opts: HbOptions,
    threads: BTreeMap<ThreadKey, Th>,
    clocks: Vec<Clock>,
    /// Clock snapshot taken at each packet's submission.
    packet_clocks: BTreeMap<(u64, u64), Clock>,
    /// Packet lifecycle progress (`submitted or started`, `ended`).
    packets: BTreeMap<(u64, u64), (bool, bool)>,
    /// Parked waiters per kernel event: thread → (park time, park clock).
    parked: BTreeMap<u64, BTreeMap<ThreadKey, (SimTime, Clock)>>,
    findings: Vec<Diagnostic>,
    n_wake_edges: usize,
    n_gpu_edges: usize,
}

impl Analyzer {
    /// The dense index of `key`, allocating its clock on first sight.
    fn idx(&mut self, key: ThreadKey) -> usize {
        let next = self.threads.len();
        let th = self.threads.entry(key).or_insert_with(|| Th {
            idx: next,
            ..Th::default()
        });
        let idx = th.idx;
        if idx == next {
            self.clocks.push(Clock::new());
        }
        idx
    }

    /// Joins thread `from`'s clock into thread `into`'s in place, through
    /// split borrows of the clock table. A thread joined with itself is
    /// unchanged.
    fn join_threads(&mut self, into: usize, from: usize) {
        let (into, from) = match into.cmp(&from) {
            std::cmp::Ordering::Equal => return,
            std::cmp::Ordering::Less => {
                let (lo, hi) = self.clocks.split_at_mut(from);
                (lo.get_mut(into), hi.first())
            }
            std::cmp::Ordering::Greater => {
                let (lo, hi) = self.clocks.split_at_mut(into);
                (hi.first_mut(), lo.get(from))
            }
        };
        if let (Some(into), Some(from)) = (into, from) {
            clock_join(into, from);
        }
    }

    /// Ticks `key`'s own clock component (it performed an observable step).
    fn tick(&mut self, key: ThreadKey) -> usize {
        let idx = self.idx(key);
        if self.clocks[idx].len() <= idx {
            self.clocks[idx].resize(idx + 1, 0);
        }
        self.clocks[idx][idx] += 1;
        idx
    }

    fn new(opts: &HbOptions) -> Analyzer {
        Analyzer {
            opts: *opts,
            threads: BTreeMap::new(),
            clocks: Vec::new(),
            packet_clocks: BTreeMap::new(),
            packets: BTreeMap::new(),
            parked: BTreeMap::new(),
            findings: Vec::new(),
            n_wake_edges: 0,
            n_gpu_edges: 0,
        }
    }

    /// Consumes one event in stream order.
    fn push(&mut self, ev: &TraceEvent) {
        let a = self;
        match ev {
            TraceEvent::ThreadStart { key, .. } => {
                a.tick(*key);
            }
            TraceEvent::ThreadEnd { key, .. } => {
                a.tick(*key);
                // lint:allow(analyzer-panic): tick() above inserts the entry
                let th = a.threads.get_mut(key).expect("ticked");
                th.exited = true;
                th.wait = None;
            }
            TraceEvent::CSwitch { new, .. } => {
                if let Some(key) = new {
                    a.tick(*key);
                    // lint:allow(analyzer-panic): tick() above inserts the entry
                    let th = a.threads.get_mut(key).expect("ticked");
                    // Dispatch closes a runnable wait; a blocking wait here
                    // is a stream defect verify reports — recover silently.
                    th.wait = None;
                }
            }
            TraceEvent::WaitBegin { at, key, reason } => {
                let idx = a.tick(*key);
                if !reason.is_runnable() {
                    // lint:allow(analyzer-panic): tick() above inserts the entry
                    a.threads.get_mut(key).expect("ticked").wait = Some((*reason, *at));
                }
                if let Some(id) = reason.event_id() {
                    let snapshot = a.clocks[idx].clone();
                    a.parked
                        .entry(id)
                        .or_default()
                        .insert(*key, (*at, snapshot));
                }
                match *reason {
                    WaitReason::Yield => {
                        let gap_ok = a.threads[key]
                            .last_yield
                            .is_some_and(|t| *at - t <= a.opts.yield_storm_gap);
                        // lint:allow(analyzer-panic): tick() above inserts the entry
                        let th = a.threads.get_mut(key).expect("ticked");
                        th.yields = if gap_ok { th.yields + 1 } else { 1 };
                        th.last_yield = Some(*at);
                        let storm = th.yields >= a.opts.yield_storm_min && !th.storm_reported;
                        if storm {
                            th.storm_reported = true;
                            let n = th.yields;
                            a.findings.push(Diagnostic {
                                code: DiagCode::YieldStorm,
                                severity: Severity::Warning,
                                at: *at,
                                thread: Some(*key),
                                message: format!(
                                    "{n} voluntary yields in a row at sub-{}ns spacing: \
                                     busy-wait storm (runnable but doing no work)",
                                    a.opts.yield_storm_gap.as_nanos()
                                ),
                            });
                        }
                    }
                    WaitReason::Sleep | WaitReason::Event { .. } | WaitReason::Gpu { .. } => {
                        // A genuine block ends the spin run.
                        // lint:allow(analyzer-panic): tick() above inserts the entry
                        let th = a.threads.get_mut(key).expect("ticked");
                        th.yields = 0;
                        th.last_yield = None;
                        th.storm_reported = false;
                    }
                    WaitReason::Preempted => {}
                }
            }
            TraceEvent::WaitEnd {
                at,
                key,
                reason,
                waker,
            } => {
                let idx = a.tick(*key);
                // lint:allow(analyzer-panic): tick() above inserts the entry
                a.threads.get_mut(key).expect("ticked").wait = None;
                if let Some(id) = reason.event_id() {
                    // FIFO overtake check: someone parked strictly earlier
                    // on the same event is still parked while we wake.
                    let my_park = a.parked.get(&id).and_then(|m| m.get(key)).map(|p| p.0);
                    let overtaken: Option<(ThreadKey, SimTime, Clock)> = my_park.and_then(|mine| {
                        a.parked.get(&id).and_then(|m| {
                            m.iter()
                                .filter(|(k, (t, _))| **k != *key && *t < mine)
                                .map(|(k, (t, c))| (*k, *t, c.clone()))
                                .next()
                        })
                    });
                    if let Some((other, since, park_clock)) = overtaken {
                        let (severity, grade) = match waker {
                            Some(w) => {
                                let widx = a.idx(*w);
                                if clock_le(&park_clock, &a.clocks[widx]) {
                                    (
                                        Severity::Error,
                                        "the park happens-before the signal (lost wakeup)",
                                    )
                                } else {
                                    (Severity::Warning, "park and signal are concurrent")
                                }
                            }
                            None => (Severity::Warning, "signal came from outside the trace"),
                        };
                        a.findings.push(Diagnostic {
                            code: DiagCode::LostWakeup,
                            severity,
                            at: *at,
                            thread: Some(other),
                            message: format!(
                                "signal on event {id} woke pid{}/tid{} past pid{}/tid{} \
                                 parked since {}ns; {grade}",
                                key.pid,
                                key.tid,
                                other.pid,
                                other.tid,
                                since.as_nanos()
                            ),
                        });
                    }
                    if let Some(m) = a.parked.get_mut(&id) {
                        m.remove(key);
                    }
                    if let Some(w) = waker {
                        let widx = a.idx(*w);
                        a.join_threads(idx, widx);
                        a.n_wake_edges += 1;
                    }
                }
                if let Some((gpu, packet)) = reason.gpu_packet() {
                    let packet_clock = a.packet_clocks.get(&(gpu as u64, packet));
                    if let (Some(pc), Some(own)) = (packet_clock, a.clocks.get_mut(idx)) {
                        clock_join(own, pc);
                        a.n_gpu_edges += 1;
                    }
                }
            }
            TraceEvent::GpuSubmit {
                key, gpu, packet, ..
            } => {
                let idx = a.tick(*key);
                a.packet_clocks
                    .insert((*gpu as u64, *packet), a.clocks[idx].clone());
                a.packets.entry((*gpu as u64, *packet)).or_default().0 = true;
            }
            TraceEvent::GpuStart { gpu, packet, .. } => {
                a.packets.entry((*gpu as u64, *packet)).or_default().0 = true;
            }
            TraceEvent::GpuEnd { gpu, packet, .. } => {
                a.packets.entry((*gpu as u64, *packet)).or_default().1 = true;
            }
            TraceEvent::ProcessStart { .. }
            | TraceEvent::Frame { .. }
            | TraceEvent::Marker { .. } => {}
        }
    }

    /// Runs the end-of-trace deadlock sweep and seals the report.
    fn finish(mut self, end: SimTime) -> HbReport {
        // End-of-trace deadlock: can anyone still make progress? A thread
        // can if it is live and not blocked (running / ready / preempted),
        // asleep (its timer fires), or waiting on a GPU packet the device
        // still owes.
        let mut capable = 0usize;
        let mut stuck: Vec<(ThreadKey, u64, SimTime)> = Vec::new();
        for (key, th) in &self.threads {
            if th.exited {
                continue;
            }
            match th.wait {
                None => capable += 1,
                Some((WaitReason::Sleep, _)) => capable += 1,
                Some((reason, since)) => {
                    if let Some((gpu, packet)) = reason.gpu_packet() {
                        let (pending, ended) = self
                            .packets
                            .get(&(gpu as u64, packet))
                            .copied()
                            .unwrap_or((false, false));
                        if pending && !ended {
                            capable += 1;
                        }
                        // A wait on an ended or unknown packet is a
                        // structural defect verify already reports
                        // (V021/V022).
                    } else if let Some(id) = reason.event_id() {
                        stuck.push((*key, id, since));
                    }
                }
            }
        }
        if capable == 0 {
            for (key, id, since) in stuck {
                self.findings.push(Diagnostic {
                    code: DiagCode::Deadlock,
                    severity: Severity::Error,
                    at: end,
                    thread: Some(key),
                    message: format!(
                        "blocked on event {id} since {}ns at end of trace and no live \
                         thread can signal it",
                        since.as_nanos()
                    ),
                });
            }
        }

        HbReport {
            findings: self.findings,
            n_threads: self.threads.len(),
            n_wake_edges: self.n_wake_edges,
            n_gpu_edges: self.n_gpu_edges,
        }
    }
}

/// Runs the happens-before pass over a sealed trace.
pub fn analyze(trace: &EtlTrace, opts: &HbOptions) -> HbReport {
    let mut sp = simobs::span::span("analyzer", "hb");
    sp.add_events(trace.events().len() as u64);
    let mut a = Analyzer::new(opts);
    for ev in trace.events() {
        a.push(ev);
    }
    a.finish(trace.end())
}

/// Sharded twin of [`analyze`]: blocks decode in parallel on `runner`, the
/// [`Analyzer`] folds them in trace order — bit-identical report at any
/// shard count (see DESIGN.md §14).
///
/// # Errors
/// Any block decode or checksum error.
pub fn analyze_sharded(
    trace: &crate::shard::ShardedTrace,
    opts: &HbOptions,
    runner: &dyn crate::shard::ShardRunner,
    shards: usize,
) -> std::io::Result<HbReport> {
    let mut sp = simobs::span::span("analyzer", "hb");
    sp.add_events(trace.count());
    let mut a = Analyzer::new(opts);
    trace.fold_events(runner, shards, |ev| a.push(ev))?;
    Ok(a.finish(trace.end()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;

    fn key(tid: u64) -> ThreadKey {
        ThreadKey { pid: 1, tid }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000_000)
    }

    fn header(b: &mut TraceBuilder, tids: &[u64]) {
        b.push(TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "app.exe".into(),
        });
        for &tid in tids {
            b.push(TraceEvent::ThreadStart {
                at: ms(0),
                key: key(tid),
                name: format!("t{tid}"),
            });
        }
    }

    #[test]
    fn signal_chain_is_clean() {
        let mut b = TraceBuilder::new(2);
        header(&mut b, &[0, 1]);
        b.push(TraceEvent::WaitBegin {
            at: ms(0),
            key: key(1),
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(5),
            key: key(1),
            reason: WaitReason::Event { id: 3 },
            waker: Some(key(0)),
        });
        b.push(TraceEvent::ThreadEnd {
            at: ms(9),
            key: key(0),
        });
        b.push(TraceEvent::ThreadEnd {
            at: ms(9),
            key: key(1),
        });
        let r = analyze(&b.finish(ms(0), ms(10)), &HbOptions::default());
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.n_wake_edges, 1);
    }

    #[test]
    fn all_blocked_on_unsignalled_event_is_deadlock() {
        let mut b = TraceBuilder::new(2);
        header(&mut b, &[0, 1]);
        b.push(TraceEvent::WaitBegin {
            at: ms(1),
            key: key(0),
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(2),
            key: key(1),
            reason: WaitReason::Event { id: 4 },
        });
        let r = analyze(&b.finish(ms(0), ms(10)), &HbOptions::default());
        let deadlocks: Vec<_> = r
            .findings
            .iter()
            .filter(|d| d.code == DiagCode::Deadlock)
            .collect();
        assert_eq!(deadlocks.len(), 2, "{}", r.render());
    }

    #[test]
    fn sleeper_suppresses_deadlock() {
        // One thread asleep: its timer will fire, so the event waiter might
        // still be signalled — no finding.
        let mut b = TraceBuilder::new(2);
        header(&mut b, &[0, 1]);
        b.push(TraceEvent::WaitBegin {
            at: ms(1),
            key: key(0),
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(2),
            key: key(1),
            reason: WaitReason::Sleep,
        });
        let r = analyze(&b.finish(ms(0), ms(10)), &HbOptions::default());
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn fifo_overtake_is_lost_wakeup() {
        // t1 parks on event 3 at 1 ms, t2 parks at 2 ms; the signal wakes
        // t2 while t1 is still parked — an overtake the machine's FIFO
        // semaphores can never produce.
        let mut b = TraceBuilder::new(2);
        header(&mut b, &[0, 1, 2]);
        b.push(TraceEvent::WaitBegin {
            at: ms(1),
            key: key(1),
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(2),
            key: key(2),
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(5),
            key: key(2),
            reason: WaitReason::Event { id: 3 },
            waker: Some(key(0)),
        });
        let r = analyze(&b.finish(ms(0), ms(10)), &HbOptions::default());
        let lost: Vec<_> = r
            .findings
            .iter()
            .filter(|d| d.code == DiagCode::LostWakeup)
            .collect();
        assert_eq!(lost.len(), 1, "{}", r.render());
        assert_eq!(lost[0].thread, Some(key(1)));
    }

    #[test]
    fn ordered_overtake_grades_as_error() {
        // The waker observes t1's park through a wake edge before
        // signalling past it: the park happens-before the signal.
        let mut b = TraceBuilder::new(2);
        header(&mut b, &[0, 1, 2]);
        b.push(TraceEvent::WaitBegin {
            at: ms(1),
            key: key(1),
            reason: WaitReason::Event { id: 3 },
        });
        // t1's (post-park) clock flows to t0 via an unrelated event wake.
        b.push(TraceEvent::WaitBegin {
            at: ms(2),
            key: key(0),
            reason: WaitReason::Event { id: 9 },
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(3),
            key: key(0),
            reason: WaitReason::Event { id: 9 },
            waker: Some(key(1)),
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(4),
            key: key(2),
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(5),
            key: key(2),
            reason: WaitReason::Event { id: 3 },
            waker: Some(key(0)),
        });
        let r = analyze(&b.finish(ms(0), ms(10)), &HbOptions::default());
        let lost: Vec<_> = r
            .findings
            .iter()
            .filter(|d| d.code == DiagCode::LostWakeup)
            .collect();
        assert_eq!(lost.len(), 1, "{}", r.render());
        assert_eq!(lost[0].severity, Severity::Error, "{}", r.render());
    }

    #[test]
    fn yield_storm_fires_once_per_run() {
        let opts = HbOptions {
            yield_storm_min: 4,
            yield_storm_gap: SimDuration::from_millis(1),
        };
        let mut b = TraceBuilder::new(1);
        header(&mut b, &[0]);
        for i in 0..8u64 {
            b.push(TraceEvent::WaitBegin {
                at: SimTime::from_nanos(i * 100_000),
                key: key(0),
                reason: WaitReason::Yield,
            });
            b.push(TraceEvent::CSwitch {
                at: SimTime::from_nanos(i * 100_000 + 1),
                cpu: 0,
                old: None,
                new: Some(key(0)),
                ready_since: None,
            });
            b.push(TraceEvent::CSwitch {
                at: SimTime::from_nanos(i * 100_000 + 2),
                cpu: 0,
                old: Some(key(0)),
                new: None,
                ready_since: None,
            });
        }
        let r = analyze(&b.finish(ms(0), ms(10)), &opts);
        let storms: Vec<_> = r
            .findings
            .iter()
            .filter(|d| d.code == DiagCode::YieldStorm)
            .collect();
        assert_eq!(storms.len(), 1, "{}", r.render());
        assert_eq!(storms[0].severity, Severity::Warning);
    }

    #[test]
    fn spaced_yields_are_not_a_storm() {
        let opts = HbOptions {
            yield_storm_min: 4,
            yield_storm_gap: SimDuration::from_millis(1),
        };
        let mut b = TraceBuilder::new(1);
        header(&mut b, &[0]);
        for i in 0..16u64 {
            b.push(TraceEvent::WaitBegin {
                at: ms(i * 5),
                key: key(0),
                reason: WaitReason::Yield,
            });
        }
        let r = analyze(&b.finish(ms(0), ms(100)), &opts);
        assert!(r.is_clean(), "{}", r.render());
    }
}
