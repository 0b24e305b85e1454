"""End-to-end benchmark of the NV-SCAVENGER reproduction.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload (see ``workloads.py``), each in a fresh
interpreter started by this process, until ``--seconds`` of repetitions
have run, then prints the median of every end-to-end metric named in
``BENCHMARK.json`` as the last line of standard output:

    {"correct": true, "attempted": 70, "failed": 0, "metrics": {...}}

Every repetition's outputs are checked against the committed digests in
``oracle.json``. ``--trace 1`` instead runs one plain and one traced
repetition and prints the per-layer metrics, after a self-time table;
the traced repetition's Chrome trace-event JSON and table land in
``.perfbench_out/traces/``. Caches live under ``.perfbench_out/`` in the
checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0
#: full repetitions per run, however long one takes
MIN_REPS = 2
#: set-up is sampled at least this often per run (extra set-up-only
#: repetitions when fewer full repetitions fit)
MIN_SETUPS = 3
#: A sample during which the hypervisor withheld more CPU time from this
#: machine (steal time, all CPUs) than this share of its wall clock timed
#: the host's other tenants, not the program: medians leave it out
#: while a sample under the limit exists.
STEAL_LIMIT = 0.05


class BenchError(Exception):
    """The benchmark itself could not run (not a program defect)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_oracle() -> dict:
    with open(os.path.join(HERE, "oracle.json")) as fh:
        return json.load(fh)


def host_steal_s() -> float:
    """CPU seconds the hypervisor has stolen from this machine so far
    (0 where ``/proc/stat`` does not report it)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def least_stolen(samples: list[dict], key: str) -> list[float]:
    """The *key* values of samples under :data:`STEAL_LIMIT`, or of the
    one with the smallest steal share when none is."""
    clean = [s for s in samples if s["steal_share"] <= STEAL_LIMIT]
    return [s[key] for s in
            clean or [min(samples, key=lambda s: s["steal_share"])]]


def launch(workload: str, ctx_seed: int, workdir: str, mode: str,
           deadline: float) -> dict:
    """Run one repetition in a fresh interpreter; its report plus
    ``setup_s`` (launch to timed-region start) and ``rep_s``."""
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, f"rep-{time.time_ns()}.json")
    env = dict(os.environ, TMPDIR=workdir)
    t_launch = time.time()
    steal0 = host_steal_s()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), workload,
         str(ctx_seed), workdir, mode, out],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload} {mode} repetition overran the "
                         f"{DEADLINE_S:.0f}s run deadline") from None
    finally:
        # scheduler workers are daemons of the repetition; none may
        # outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise BenchError(f"{workload} {mode} repetition exited {code}")
    with open(out) as fh:
        report = json.load(fh)
    os.unlink(out)
    report["rep_s"] = time.monotonic() - t0
    setup_s = report["timed_start_epoch"] - t_launch
    report["setup"] = {
        "setup_s": setup_s,
        "steal_share": (report["timed_start_steal_s"] - steal0) / setup_s}
    if "wall_s" in report:
        report["steal_share"] = report["steal_s"] / report["wall_s"]
    return report


def score(workload: str, seed: int, ctx_seed: int, reports: list[dict],
          expected: dict[str, str]) -> tuple[int, int]:
    """``(attempted, failed)`` over every operation and invariant of
    *reports*; each failure is named on stderr."""
    attempted = failed = 0
    for rep in reports:
        got = rep["digests"]
        for op in sorted(set(expected) | set(got)):
            attempted += 1
            if got.get(op) != expected.get(op):
                failed += 1
                print(f"perfbench: {workload} seed {seed} (context seed "
                      f"{ctx_seed}): output of {op!r} diverges from the "
                      f"oracle ({got.get(op)} != {expected.get(op)})",
                      file=sys.stderr)
        for name, held, detail in rep["invariants"]:
            attempted += 1
            if not held:
                failed += 1
                print(f"perfbench: {workload} seed {seed}: invariant "
                      f"{name} broken: {detail}", file=sys.stderr)
    return attempted, failed


def run(args, spec: dict, workdir: str) -> dict:
    from workloads import WORKLOADS, context_seed

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; know "
                         f"{sorted(WORKLOADS)}")
    ctx_seed = context_seed(args.seed)
    expected = load_oracle()[args.workload][str(ctx_seed)]
    deadline = time.monotonic() + DEADLINE_S

    def rep(mode: str) -> dict:
        return launch(args.workload, ctx_seed, workdir, mode, deadline)

    if args.trace:
        plain, traced = rep("timed"), rep("traced")
        reports = [plain, traced]
        layers = dict(traced["layers"])
        layers["bench.trace_overhead_frac"] = \
            traced["wall_s"] / plain["wall_s"] - 1.0
        metrics_spec, values = spec["per_layer"], layers
        trace_dir = os.path.join(OUT_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        stem = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}")
        with open(stem + ".trace.json", "w") as fh:
            json.dump(traced["chrome"], fh)
        with open(stem + ".txt", "w") as fh:
            fh.write(traced["table"] + "\n")
        print(traced["table"])
        print(f"trace: {stem}.trace.json")
    else:
        reports, setups, durations = [], [], []
        t_start = time.monotonic()
        while True:
            r = rep("timed")
            reports.append(r)
            setups.append(r["setup"])
            durations.append(r["rep_s"])
            elapsed = time.monotonic() - t_start
            if (len(reports) >= MIN_REPS and
                    elapsed + statistics.median(durations) > args.seconds):
                break
        while len(setups) < MIN_SETUPS:
            setups.append(rep("setup")["setup"])
        values = {
            key: statistics.median(least_stolen(reports, key))
            for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(least_stolen(setups, "setup_s"))
        metrics_spec = spec["end_to_end"]
        for label, samples, key in (("repetition", reports, "wall_s"),
                                    ("set-up", setups, "setup_s")):
            print(f"perfbench: {args.workload} seed {args.seed}: "
                  f"{len(samples)} {label}(s) {key} (steal share): " +
                  ", ".join(f"{s[key]:.3f} ({s['steal_share']:.1%})"
                            for s in samples), file=sys.stderr)
    attempted, failed = score(args.workload, args.seed, ctx_seed, reports,
                              expected)
    values["ok_fraction"] = (attempted - failed) / attempted
    missing = [m["name"] for m in metrics_spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # a terminated run still stops its repetition and removes its caches
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(OUT_ROOT, f"work-{os.getpid()}")
    try:
        result = run(args, load_spec(), workdir)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
