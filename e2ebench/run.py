#!/usr/bin/env python3
"""End-to-end benchmark of the parastat pipeline.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds `repro`, `tracetool` and
the helper in `e2ebench/layers` with cargo (into `$CARGO_TARGET_DIR`,
default `.bench_build`), sets up the workload, measures it for `--seconds`
seconds and checks every output. The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the `end_to_end` list of BENCHMARK.json; with `--trace 1`
they are the `per_layer` list, from one untraced pass plus the helper's
traced pass. A human-readable summary goes to stderr. Every file the run
writes is under `.e2ebench-work/` in the checkout. See README.md here.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".e2ebench-work"

JOBS = 2
REPRO_ARGS = ["all", "--blame", "--timeline", "--budget", "standard",
              "--jobs", str(JOBS), "--store"]
# The seven tracetool commands; the filtered ones take the `chrome` prefix.
COMMANDS = [("info", False), ("verify", False), ("tlp", True),
            ("latency", True), ("bottlenecks", True),
            ("critical-path", True), ("timeline", False)]
BIG_TRACE_SECONDS = 1800
# reference.json pins the trace-analyze event count and digests for seeds
# 0..REFERENCE_SEEDS-1; any other seed is held out.
REFERENCE_SEEDS = 21
WORKLOADS = ("repro-cold", "repro-warm", "trace-analyze")
RESIDUAL_BOUND = 0.05  # share of the traced wall left unattributed
CHILD_TIMEOUT_S = 170
RUN_DEADLINE_S = 150  # no new pass starts after this much of a run


class BenchError(Exception):
    """The benchmark could not run (build failure, missing input)."""


@dataclasses.dataclass
class Child:
    """One finished program process."""
    status: int
    wall_s: float
    rss_mb: float  # peak resident set size
    stdout: bytes
    stderr: bytes


def run_child(cmd, cwd, env=None, timeout=CHILD_TIMEOUT_S):
    """Runs `cmd` to completion and returns a Child.

    stdout and stderr go to files beside `cwd`, so a chatty child can never
    block on a full pipe. The child is killed after `timeout` seconds and
    always reaped before this returns.
    """
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0,
                 stdout, stderr)


def cpu_s():
    """User plus system CPU seconds of this process and of every child it
    has reaped so far."""
    own, children = (resource.getrusage(who)
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def build():
    """Builds the program and the helper; returns the binary directory."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "repro-bench", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH_DIR.relative_to(ROOT) / "layers" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release"


def sha(data):
    return hashlib.sha256(data).hexdigest()


def digest_dir(path):
    """sha256 of every file under `path`, keyed by its relative path."""
    return {p.relative_to(path).as_posix(): sha(p.read_bytes())
            for p in sorted(path.rglob("*")) if p.is_file()}


def digest_mismatches(got, want):
    """Names every file whose digest differs from the reference."""
    names = sorted(set(got) | set(want))
    return [n for n in names if got.get(n) != want.get(n)]


REPRO_COUNTS = {
    "simulations": re.compile(rb"^# simulations: (\d+) run, \d+ served", re.M),
    "memo_hits": re.compile(rb"^# simulations: \d+ run, (\d+) served", re.M),
    "disk_hits": re.compile(rb"^# store: (\d+) disk hits", re.M),
    "disk_misses": re.compile(rb"^# store: \d+ disk hits, (\d+) disk misses", re.M),
    "quarantined": re.compile(rb"^# store: .*, (\d+) quarantined", re.M),
}


def repro_counts(stderr):
    """The run-size counts `repro` prints on stderr (None when missing)."""
    counts = {}
    for name, pattern in REPRO_COUNTS.items():
        m = pattern.search(stderr)
        counts[name] = int(m.group(1)) if m else None
    return counts


def count_problems(workload, counts, pinned):
    """Pinned-count and hit-ratio problems of one repro pass."""
    problems = [f"{name} = {counts.get(name)}, pinned {want}"
                for name, want in sorted(pinned.items())
                if counts.get(name) != want]
    if workload == "repro-warm":
        hits, misses = counts.get("disk_hits") or 0, counts.get("disk_misses") or 0
        ratio = hits / max(hits + misses, 1)
        if ratio < 1:
            problems.append(f"store hit ratio {ratio:.3f} < 1: the store is not warm")
    return problems


class Run:
    """State and tallies of one benchmark invocation."""

    def __init__(self, workload, seed, bins, reference):
        self.workload = workload
        self.seed = seed
        self.bins = bins
        self.ref = reference
        self.work = WORK_ROOT / workload
        self.store = self.work / "store"
        self.out = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.trace_path = self.work / "trace.etl"
        self.trace_events = None
        self.command_digests = {}

    # -- bookkeeping ---------------------------------------------------
    def record(self, label, problems):
        """Counts one program command; any problem marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                self.problems.append(f"{label}: {p}")

    def env(self):
        env = dict(os.environ)
        env["PARASTAT_STORE"] = str(self.store)
        env.pop("PARASTAT_JOBS", None)
        return env

    # -- program commands ----------------------------------------------
    def repro(self, check=True):
        """One `repro all` pass against the workload's store."""
        shutil.rmtree(self.out, ignore_errors=True)
        child = run_child([str(self.bins / "repro"), *REPRO_ARGS, "--out", str(self.out)],
                          self.work, self.env())
        if not check:
            return child
        problems = [] if child.status == 0 else [f"exit {child.status}"]
        if not problems:
            ref = self.ref["repro"]
            got = digest_dir(self.out)
            got["<stdout>"] = sha(child.stdout)
            problems += [f"digest of {name} differs from the reference"
                         for name in digest_mismatches(got, ref["digests"])]
            problems += count_problems(self.workload, repro_counts(child.stderr),
                                       ref["counts"][self.workload])
        self.record("repro " + " ".join(REPRO_ARGS), problems)
        return child

    def gen(self, seed, seconds, path):
        """Writes a Chrome trace through the library; returns its event count."""
        path.unlink(missing_ok=True)
        child = run_child([str(self.bins / "e2ebench-layers"), "gen", str(seed),
                           str(seconds), str(path)], self.work)
        if child.status != 0:
            raise BenchError(f"trace generation failed: {child.stderr.decode(errors='replace')}")
        return json.loads(child.stdout)["events"]

    def tracetool(self, cmd, filtered, path, events, want_digests):
        """One tracetool command on `path`, checked; returns the Child."""
        args = [str(self.bins / "tracetool"), cmd, str(path)] + (["chrome"] if filtered else [])
        child = run_child(args, self.work)
        problems = [] if child.status == 0 else [f"exit {child.status}"]
        digest = sha(child.stdout)
        first = self.command_digests.setdefault((path, cmd), digest)
        if digest != first:
            problems.append("stdout differs from an earlier run of the same command")
        if want_digests and want_digests.get(cmd) != digest:
            problems.append("stdout digest differs from the reference")
        if cmd == "info" and f"events        : {events}\n".encode() not in child.stdout:
            problems.append(f"census does not report the generated {events} events")
        self.record(f"tracetool {cmd}", problems)
        return child

    # -- set-up ----------------------------------------------------------
    def setup(self):
        """One set-up of the workload; returns the CPU seconds it took.

        CPU time rather than wall time: clearing the store is a 0.1 s burst
        of file-system work whose wall time swung 2x with other guests'
        load on a shared two-core host, while its CPU time stayed within a
        few percent. CPU time also counts exactly the work a change might
        move into set-up.
        """
        # Flush the last pass's writes first, so a clear always deletes a
        # store whose blocks are on disk.
        os.sync()
        start = cpu_s()
        if self.workload == "trace-analyze":
            self.write_trace()
        else:
            shutil.rmtree(self.store, ignore_errors=True)
            shutil.rmtree(self.out, ignore_errors=True)
            if self.workload == "repro-warm":
                fill = self.repro(check=False)
                if fill.status != 0:
                    raise BenchError(f"filling the store failed: exit {fill.status}")
        return cpu_s() - start

    def write_trace(self):
        """Generates the trace-analyze trace at the run's seed; checks its size."""
        self.trace_events = self.gen(self.seed, BIG_TRACE_SECONDS, self.trace_path)
        ref = self.trace_reference()
        if ref and ref["events"] != self.trace_events:
            self.record("trace generation",
                        [f"{self.trace_events} events, pinned {ref['events']}"])

    def trace_reference(self):
        """Reference event count and digests at the run's seed; None when
        the seed is held out."""
        if 0 <= self.seed < REFERENCE_SEEDS:
            return self.ref["trace-analyze"][str(self.seed)]
        return None

    # -- one pass --------------------------------------------------------
    def command_pass(self):
        """The seven tracetool commands on the run's trace, each checked:
        (wall_s, peak_rss_mb, per-command s)."""
        ref = self.trace_reference() or {}
        start = time.perf_counter()
        children = {cmd: self.tracetool(cmd, filtered, self.trace_path,
                                        self.trace_events, ref.get("digests"))
                    for cmd, filtered in COMMANDS}
        wall = time.perf_counter() - start
        return (wall, max(c.rss_mb for c in children.values()),
                {cmd: c.wall_s for cmd, c in children.items()})

    def measure_pass(self):
        """One timed pass of the workload: (wall_s, peak_rss_mb, per-command s)."""
        if self.workload == "trace-analyze":
            return self.command_pass()
        child = self.repro()
        return child.wall_s, child.rss_mb, {}


def host_steal():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(t) for t in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def metric_name(cmd):
    return cmd.replace("-", "_") + "_s"


def summarize(name, values, unit):
    """stderr line: median, tail and sample count of one metric."""
    tail = max(values)
    sys.stderr.write(f"# {name}: median {statistics.median(values):.6g} {unit}, "
                     f"max {tail:.6g} {unit} over n={len(values)} "
                     "(too few samples for a tail percentile; max shown)\n")


def measure(run, seconds, spec):
    """The `--trace 0` run: timed passes with set-ups between them.

    Passes go on until `seconds` of them have been timed. A repro-cold pass
    fills the store, so clearing it after each pass sets up the next one;
    the other workloads set up before every second pass. Interleaving the
    set-ups spreads one run's passes over a longer stretch, so the host's
    slow drift in speed averages out better.
    """
    setups, walls, rss = [], [], []
    steal_before = host_steal()
    begin = time.perf_counter()
    while sum(walls) < seconds and (
            not walls or time.perf_counter() - begin + walls[-1] < RUN_DEADLINE_S):
        if run.workload != "repro-cold" and len(walls) % 2 == 0:
            setups.append(run.setup())
        wall, peak, _ = run.measure_pass()
        walls.append(wall)
        rss.append(peak)
        if run.workload == "repro-cold":
            setups.append(run.setup())
    while run.workload != "repro-cold" and len(setups) < 2:
        setups.append(run.setup())
    stolen, total = (b - a for a, b in zip(steal_before, host_steal()))
    sys.stderr.write(f"# host steal time during the run: {100 * stolen / max(total, 1):.1f}% "
                     "of all CPU time (other guests on the host; it inflates wall times)\n")
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    success = (run.attempted - run.failed) / max(run.attempted, 1)
    samples["success_rate"] = [success]
    metrics = {}
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        summarize(m["name"], values, m["unit"])
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return metrics


def traced(run, spec):
    """The `--trace 1` run: one untraced pass, then the helper's traced pass.

    The traced pass has the same sections on every workload, because every
    per-layer metric is reported on every workload. So a repro workload's
    traced run also generates the trace-analyze trace at its seed, and
    times the seven commands on it for `tracetool.*_s`. The tracing
    overhead compares the untraced pass with the traced section that
    repeats the workload.
    """
    run.setup()
    untraced_wall, _, cmds = run.measure_pass()
    if run.workload != "trace-analyze":
        run.write_trace()
        cmds = run.command_pass()[2]
    if run.workload != "repro-warm":
        shutil.rmtree(run.store, ignore_errors=True)  # the traced pass starts cold
    replay = run.work / "replay-store"
    shutil.rmtree(replay, ignore_errors=True)
    cmd = [str(run.bins / "e2ebench-layers"), "trace", str(run.store), str(replay),
           str(run.trace_path)]
    child = run_child(cmd, run.work)
    if child.status != 0:
        run.record("traced pass", [f"exit {child.status}: "
                                   + child.stderr.decode(errors="replace").strip()])
        raise BenchError("traced pass failed")
    result = json.loads(child.stdout)
    got = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    got.update({"tracetool." + metric_name(cmd): s for cmd, s in cmds.items()})
    same = "section.analyze_s" if run.workload == "trace-analyze" else "section.figures_cold_s"
    got["traced.untraced_wall_s"] = untraced_wall
    got["traced.overhead_s"] = got[same] - untraced_wall
    got["residual.bound_s"] = RESIDUAL_BOUND * got["traced.wall_s"]
    problems = list(result["failures"])
    if abs(got["residual_s"]) > got["residual.bound_s"]:
        problems.append(f"residual {got['residual_s']:.3f} s exceeds its bound "
                        f"{got['residual.bound_s']:.3f} s")
    pinned = dict(run.ref["traced"]["common"])
    pinned.update(run.ref["traced"][run.workload])
    for name, want in sorted(pinned.items()):
        if got.get(name) != want:
            problems.append(f"{name} = {got.get(name)}, pinned {want}")
    if run.workload == "repro-warm" and got["store.hit_ratio"] < 1:
        problems.append("store hit ratio below 1: the store is not warm")
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name not in got:
            problems.append(f"the traced pass did not report {name}")
            continue
        if name in units and units[name] != m["unit"]:
            problems.append(f"{name} is in {units[name]}, BENCHMARK.json says {m['unit']}")
        metrics[name] = {"value": got[name], "unit": m["unit"]}
    run.record("traced pass", problems)
    layers = sum(v for k, v in got.items() if k.startswith("layer."))
    sys.stderr.write(
        f"# traced wall {got['traced.wall_s']:.3f} s = layers {layers:.3f} s "
        f"+ residual {got['residual_s']:.3f} s (bound {got['residual.bound_s']:.3f} s)\n"
        f"# overhead {got['traced.overhead_s']:.3f} s = traced {same} {got[same]:.3f} s "
        f"- untraced wall {untraced_wall:.3f} s\n")
    for k in sorted(got):
        if k.startswith(("layer.", "section.")):
            sys.stderr.write(f"#   {k}: {got[k]:.3f} s\n")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        bins = build()
        run = Run(args.workload, args.seed, bins, reference)
        shutil.rmtree(run.work, ignore_errors=True)
        run.work.mkdir(parents=True)
        try:
            if args.trace:
                metrics = traced(run, spec)
            else:
                metrics = measure(run, args.seconds, spec)
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
    except (BenchError, OSError, KeyError, ValueError) as e:
        sys.stderr.write(f"e2ebench: {e}\n")
        return 2
    for p in run.problems:
        sys.stderr.write(f"# FAILED {p}\n")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
