"""Regenerate ``oracle.json``: the reference output digests.

    python3 perfbench/oracle.py            # print, compare with the file
    python3 perfbench/oracle.py --write    # rewrite oracle.json

Runs every workload once per context seed (0 .. N_CONTEXT_SEEDS-1) and
records each operation's digest: the per-spec analysis for
``characterize``, each experiment's rows and text for the suites.
Rewrite the file only for an intended change of results, and say which
digests moved and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def generate() -> dict:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from workloads import N_CONTEXT_SEEDS, WORKLOADS

    workdir = os.path.join(run.OUT_ROOT, f"oracle-{os.getpid()}")
    oracle: dict = {}
    try:
        for name in WORKLOADS:
            oracle[name] = {}
            for seed in range(N_CONTEXT_SEEDS):
                deadline = time.monotonic() + run.DEADLINE_S
                rep = run.launch(name, seed, workdir, "timed", deadline)
                broken = [i for i in rep["invariants"] if not i[1]]
                if broken:
                    raise run.BenchError(f"{name} seed {seed}: {broken}")
                oracle[name][str(seed)] = rep["digests"]
                print(f"{name} seed {seed}: {len(rep['digests'])} digests",
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return oracle


def main(argv: list[str]) -> int:
    oracle = generate()
    path = os.path.join(run.HERE, "oracle.json")
    if "--write" in argv:
        with open(path, "w") as fh:
            json.dump(oracle, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
        return 0
    same = os.path.exists(path) and run.load_oracle() == oracle
    print("oracle.json matches" if same else "oracle.json DIFFERS")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
