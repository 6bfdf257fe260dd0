"""One workload iteration in a fresh interpreter.

Run by run.py as ``python3 perfbench/child.py '<json spec>'`` with the
package source on PYTHONPATH.  The spec names the workload, the moduli,
the parent's clock reading just before it started this process, and
whether to trace.  The last stdout line is one JSON object with the
iteration's timings, every step's gate outcome and, when traced, the
per-layer figures.

Set-up is the interpreter start, ``import invperm.cli`` and the
``make_field`` calls of the workload's fields; the subcommands then go
through ``invperm.cli.run`` one after another, each starting after the
previous one returned.
"""

import json
import sys
import time


# CLOCK_MONOTONIC is one clock for every process on the machine, so the
# parent's reading before the spawn and the child's readings compare.
def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec: dict) -> dict:
    t_spawn = spec["t_spawn"]
    marks = [("setup.interpreter", now())]  # (set-up phase, its end)
    import numpy  # noqa: F401

    marks.append(("setup.import.numpy", now()))
    import invperm.gf2n

    marks.append(("gf2n.import", now()))
    import invperm.cli

    marks.append(("setup.import.invperm", now()))
    moduli = {int(n): m for n, m in spec["moduli"].items()}
    for n in sorted(moduli):
        invperm.gf2n.make_field(n, moduli[n])
        marks.append((f"gf2n.field_build.n{n}", now()))
    setup_end = marks[-1][1]
    out = {"setup_s": setup_end - t_spawn}
    if spec.get("setup_only"):
        return out

    import contextlib
    import io
    import resource

    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    recorder = None
    if spec.get("trace"):
        import spans

        recorder = spans.Recorder(spec["run_id"], now)
        prev = t_spawn
        for name, t in marks:
            recorder.add(name, prev, t)
            prev = t
        spans.install(recorder)

    steps = []
    for step in workload.steps:
        argv = workloads.step_argv(step, moduli, spec.get("workers"))
        stdout, stderr = io.StringIO(), io.StringIO()
        code = error = envelope = None
        t0 = now()
        span = recorder.span("cli." + argv[0]) if recorder else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = invperm.cli.run(argv)
        except Exception as exc:  # a raising subcommand is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        t1 = now()
        try:
            envelope = json.loads(stdout.getvalue())
        except ValueError:
            envelope = None
        problems = workloads.check_step(step, code, envelope, error)
        if problems and stderr.getvalue():
            problems.append("stderr: " + stderr.getvalue().strip()[-300:])
        steps.append({
            "argv": argv,
            "kind": step.kind,
            "seconds": t1 - t0,
            "exit_code": code,
            "problems": problems,
            "digest": (envelope or {}).get("manifest", {}).get("digest"),
            "result": (envelope or {}).get("result"),
        })
    end = now()
    out["verdict_s"] = end - setup_end
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_mb"] = kb / 1024.0
    out["working_set_bytes"] = table_working_set(moduli)
    out["steps"] = steps
    if recorder is not None:
        out["layers"] = spans.layer_metrics(recorder, steps, out["verdict_s"])
        recorder.write(spec["spans_path"], {"workload": spec["workload"], "moduli": spec["moduli"]})
    return out


def table_working_set(moduli) -> dict:
    """Bytes of the lookup tables the run built, per field."""
    import numpy as np
    from invperm import kloosterman
    from invperm.gf2n import make_field

    sizes = {}
    for n, m in moduli.items():
        ctx = make_field(n, m)
        arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
        # the Kloosterman and Q tables live in module caches with no public accessor
        for cache in (kloosterman._KALL_CACHE, kloosterman._QFORM_CACHE):
            if ctx in cache:
                arrays.append(cache[ctx])
        sizes[str(n)] = sum(a.nbytes for a in arrays)
    return sizes


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
