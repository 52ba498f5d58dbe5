#!/usr/bin/env python3
"""Rewrite bench/reference.json from the current program at the default seed.

The reference holds the deterministic outputs of each workload's fixed set
(the first trials of the oracle workloads; the first fit steps and the first
sweep of cli_session), the tolerances they are checked with, and the span and
count names each workload's traced run calls (a hooked name that stops being
called is then reported as absent). Regenerate it only in a change that means
to move those outputs, and say why there.

    python3 bench/freeze_reference.py
"""

import json
import os
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, ROOT, WORKLOADS

REFERENCE = os.path.join(BENCH, "reference.json")


def main() -> int:
    with open(REFERENCE, encoding="utf-8") as fh:
        tolerance = json.load(fh)["tolerance"]
    work = os.path.join(BENCH, ".work")
    os.makedirs(work, exist_ok=True)
    unchecked = os.path.join(work, "reference-unchecked.json")
    with open(unchecked, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "tolerance": tolerance, "workloads": {}}, fh)
    workloads, called = {}, {}
    for w in WORKLOADS:
        for trace in (0, 1):
            subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", w,
                            "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace",
                            str(trace), "--reference", unchecked], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            with open(os.path.join(BENCH, ".out", f"{w}-seed{DEFAULT_SEED}-trace{trace}.json"),
                      encoding="utf-8") as fh:
                out = json.load(fh)
            if trace:
                called[w] = out["called"]
            else:
                workloads[w] = out["observed"]
    os.remove(unchecked)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "tolerance": tolerance, "workloads": workloads,
                   "called": called}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
