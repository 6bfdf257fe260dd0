"""invperm benchmark: CLI workloads measured end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration is a fresh interpreter (child.py) that imports the
package from ``src/``, builds the workload's fields and runs the
workload's subcommands through ``invperm.cli.run``, one after another.
Iterations repeat while the next one is expected to end within
``--seconds`` (at least two).  The
seed picks the irreducible modulus of every field; seed 0 is the
default modulus.  Every step's report is checked against the counts
pinned in workloads.py.

``--trace 0`` prints the end-to-end metrics, each the median over the
iterations: setup_s (interpreter start to ``import invperm.cli`` done
plus the ``make_field`` calls; at least five samples), verdict_s (set-up
end to the last subcommand's return), candidates_per_s (search
candidates, or census candidates when there is no search, per second
spent in those subcommands) and peak_rss_mb (process or pool worker,
whichever is larger).

``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics of the traced ones (medians), the tracing overhead
and, for a workload that uses a process pool, the speed-up over one
worker.  Spans go to ``.bench_build/perfbench/spans/``.

The last stdout line is the result object.  The line before it records
the machine, the moduli, the table working set, the report digests (not
gated: the audit sample differs by modulus), the per-iteration samples
and failed_frac, the share of attempted subcommands that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
MIN_REPEATS = 2  # a median of one sample is as noisy as the sample
RUN_CAP_S = 165.0  # one run ends within 180 s

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=str(ROOT), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"timed out after {timeout:.0f} s")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_child(spec: dict, deadline: float) -> dict:
    timeout = max(deadline - now(), 1.0)
    spec = dict(spec, t_spawn=now())
    proc = spawn([sys.executable, str(HERE / "child.py"), json.dumps(spec)], timeout)
    if proc.returncode != 0:
        raise ChildFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise ChildFailed(f"no result line: {proc.stdout.strip()[-300:]}") from None


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE; Python's os module exports no symbol for them
    for key, code in (("l1d_bytes", 188), ("l2_bytes", 191), ("l3_bytes", 194)):
        try:
            facts[key] = os.sysconf(code) if sys.platform == "linux" else None
        except (OSError, ValueError):
            facts[key] = None
    return facts


class Run:
    """The iterations of one benchmark run and their gate tally."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.moduli = workloads.choose_moduli(workload, seed)
        self.start = now()
        self.cap = self.start + RUN_CAP_S
        self.attempted = 0
        self.failed = 0
        self.done = []  # child results of the iterations that ran

    def spec(self, **extra) -> dict:
        return dict(
            workload=self.workload.name,
            moduli={str(n): m for n, m in self.moduli.items()},
            **extra,
        )

    def iterate(self, **extra):
        """One workload iteration; its steps are tallied against the gate."""
        steps = len(self.workload.steps)
        self.attempted += steps
        try:
            res = run_child(self.spec(**extra), self.cap)
        except ChildFailed as exc:
            self.failed += steps
            print(f"iteration failed: {exc}", file=sys.stderr)
            return None
        for st in res["steps"]:
            if st["problems"]:
                self.failed += 1
                print(f"FAILED {' '.join(st['argv'])}: {'; '.join(st['problems'])}", file=sys.stderr)
        self.done.append(res)
        return res

    def setup_sample(self) -> float:
        return run_child(self.spec(setup_only=True), self.cap)["setup_s"]


def warm_up() -> None:
    """Compile the package's bytecode once, outside every timed region."""
    proc = spawn([sys.executable, "-c", "import invperm.cli"], timeout=120)
    if proc.returncode != 0:
        raise ChildFailed(f"cannot import invperm: {proc.stderr.strip()[-500:]}")


def candidates_per_s(res: dict):
    """Search candidates per search second; census candidates per census
    second in a workload without a search.  None if no step reported."""
    for kind, key in (("search", "examined"), ("census", "candidates")):
        steps = [s for s in res["steps"] if s["kind"] == kind and s["result"]]
        if steps:
            return sum(s["result"][key] for s in steps) / sum(s["seconds"] for s in steps)
    return None


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def repeat(run: Run, seconds: float, once) -> None:
    """Call once() MIN_REPEATS times, and again while the next call is
    expected to end within ``seconds`` of the run's start."""
    deadline = run.start + seconds
    took = []
    while True:
        t = now()
        once()
        took.append(now() - t)
        if len(took) >= MIN_REPEATS and now() + statistics.mean(took) > deadline:
            return


def end_to_end(run: Run, seconds: float, units: dict):
    repeat(run, seconds, run.iterate)
    results = run.done
    rates = [c for c in map(candidates_per_s, results) if c is not None]
    if not rates:
        raise ChildFailed("no iteration completed")
    setups = [r["setup_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup_sample())
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": median_of(results, "verdict_s"),
        "candidates_per_s": statistics.median(rates),
        "peak_rss_mb": median_of(results, "peak_rss_mb"),
    }
    samples = {"setup_s": setups, "verdict_s": [r["verdict_s"] for r in results]}
    return {k: (v, units[k]) for k, v in values.items()}, samples


def per_layer(run: Run, seconds: float, units: dict):
    untraced, traced = [], []

    def pair():
        tag = f"{run.workload.name}-seed{run.seed}-{len(traced)}"
        spans_path = str(BUILD / "spans" / f"{tag}.json")
        for out, extra in ((untraced, {}), (traced, {"trace": True, "run_id": tag, "spans_path": spans_path})):
            res = run.iterate(**extra)
            if res is not None:
                out.append(res)

    repeat(run, seconds, pair)
    if not traced or not untraced:
        raise ChildFailed("no traced and untraced iteration pair completed")
    base = median_of(untraced, "verdict_s")
    values = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    values["trace.overhead_frac"] = median_of(traced, "verdict_s") / base - 1.0
    workers = max((s.workers for s in run.workload.steps), default=1)
    values["dispatch.speedup"] = values["dispatch.efficiency"] = 0.0
    if workers > 1:
        # one single-worker baseline of the same workload
        single = run.iterate(workers=1)
        if single is not None:
            values["dispatch.speedup"] = single["verdict_s"] / base
            values["dispatch.efficiency"] = values["dispatch.speedup"] / workers
    samples = {"verdict_s": [r["verdict_s"] for r in untraced], "traced_verdict_s": [r["verdict_s"] for r in traced]}
    return {k: (v, units[k]) for k, v in values.items()}, samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "invperm" / "cli.py").is_file():
        print(f"no invperm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    try:
        warm_up()
        if args.trace:
            metrics, samples = per_layer(run, seconds, units)
        else:
            metrics, samples = end_to_end(run, seconds, units)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    first = run.done[0]
    record = {
        "workload": run.workload.name,
        "seed": run.seed,
        "moduli": {str(n): f"{m:#x}" for n, m in run.moduli.items()},
        "machine": machine_facts(),
        "table_working_set_bytes": first["working_set_bytes"],
        "digests": {" ".join(s["argv"]): s["digest"] for s in first["steps"]},
        "iterations": len(run.done),
        "samples": samples,
        "failed_frac": run.failed / run.attempted,
    }
    print(json.dumps(record))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
