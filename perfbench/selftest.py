"""Self-tests of the benchmark (about 1.5 minutes on 2 CPUs).

    python3 perfbench/selftest.py

Checks, on the small test-fidelity workload:

* every metric ``run.py`` prints is named in ``BENCHMARK.json``, and every
  named metric is printed, in both modes;
* the traced run's outputs still match the oracle, so installing the
  layer wrappers changes no result;
* two traced runs give identical per-layer counts;
* the suite digests repeat exactly on a cold inline run, a warm inline
  run and the journaled scheduler run.

Exits 0 when all hold, 1 with the failed checks listed otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

WORKLOAD = "suite-journaled"


def bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         WORKLOAD, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names_and_counts(failures: list[str]) -> None:
    spec = run.load_spec()
    counted = {m["name"] for m in spec["per_layer"]
               if m["unit"] in ("count", "bytes")}
    plain, traced, again = bench(0), bench(1), bench(1)
    for label, res, section in (("untraced", plain, "end_to_end"),
                                ("traced", traced, "per_layer")):
        want = [m["name"] for m in spec[section]]
        if sorted(res["metrics"]) != sorted(want):
            failures.append(f"{label} run prints {sorted(res['metrics'])}, "
                            f"BENCHMARK.json names {sorted(want)}")
        if not res["correct"]:
            failures.append(f"{label} run outputs diverge from the oracle")
    for name in sorted(counted):
        a, b = traced["metrics"][name]["value"], again["metrics"][name]["value"]
        if a != b:
            failures.append(f"per-layer count {name} differs: {a} vs {b}")


def check_cache_states(failures: list[str]) -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from repro.experiments.runner import run_all
    from workloads import WORKLOADS, result_digest

    expected = run.load_oracle()[WORKLOAD]["0"]
    workdir = os.path.join(run.OUT_ROOT, f"selftest-{os.getpid()}")
    try:
        for label in ("cold inline", "warm inline"):
            ctx = WORKLOADS[WORKLOAD].context(workdir, 0)
            got = {r.exp_id: result_digest(r) for r in run_all(ctx, jobs=1)}
            bad = sorted(k for k in expected if got.get(k) != expected[k])
            if bad or set(got) != set(expected):
                failures.append(f"{label} suite diverges from the journaled "
                                f"oracle in {bad}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    check_cache_states(failures)
    check_names_and_counts(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: ok" if not failures else
          f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
