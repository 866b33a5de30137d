#!/usr/bin/env python3
"""Re-records the output digests and event counts in reference.json.

    python3 e2ebench/record_reference.py

Run from the root of a checkout after a change that is meant to alter the
program's output bytes, and say so in the change. It runs `repro all` cold
and warm (which must agree), and the seven tracetool commands on the
trace-analyze trace for the seeds 0..REFERENCE_SEEDS-1 of run.py. The
pinned counts under `counts` and `traced` are kept as they are: they are
edited by hand, with a note, when the workload itself changes.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def command_digests(run, path):
    digests = {}
    for cmd, filtered in bench.COMMANDS:
        args = [str(run.bins / "tracetool"), cmd, str(path)] + (["chrome"] if filtered else [])
        child = bench.run_child(args, run.work)
        if child.status != 0:
            raise SystemExit(f"tracetool {cmd} exited {child.status}")
        digests[cmd] = bench.sha(child.stdout)
    return digests


def repro_digests(run):
    child = run.repro(check=False)
    if child.status != 0:
        raise SystemExit(f"repro exited {child.status}")
    got = bench.digest_dir(run.out)
    got["<stdout>"] = bench.sha(child.stdout)
    return got


def main():
    path = bench.BENCH_DIR / "reference.json"
    ref = json.loads(path.read_text())
    bins = bench.build()
    run = bench.Run("repro-cold", 0, bins, ref)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        cold = repro_digests(run)
        warm = repro_digests(run)
        if cold != warm:
            raise SystemExit("cold and warm repro outputs differ: "
                             + ", ".join(bench.digest_mismatches(warm, cold)))
        ref["repro"]["digests"] = cold
        seeds = {}
        for seed in range(bench.REFERENCE_SEEDS):
            events = run.gen(seed, bench.BIG_TRACE_SECONDS, run.trace_path)
            seeds[str(seed)] = {"events": events,
                                "digests": command_digests(run, run.trace_path)}
            print(f"seed {seed}: {events} events", file=sys.stderr)
        ref["trace-analyze"] = seeds
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
