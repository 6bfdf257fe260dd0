"""The benchmark's trace hooks fit the package they wrap.

perfbench/child.py with tracing on wraps search and verify entry points
by name (spans.install) before it runs a workload's subcommands; a
renamed or removed name makes the child raise.  Each run here is one
traced child in a fresh interpreter, at the default moduli, with its
spans written under tmp_path.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invperm.gf2n import default_modulus
from invperm.search import canonical_pair_count

ROOT = Path(__file__).resolve().parent.parent

# the field degrees of each workload's subcommands (perfbench/workloads.py)
WORKLOAD_FIELDS = {"full-n3n4": (3, 4), "identity-n5-w2": (5,), "normalized-n7": (7,)}
# the audit's build_F calls, one per sampled pair: 256 per search at most
AUDIT_CALLS = {"full-n3n4": 296, "identity-n5-w2": 256, "normalized-n7": 256}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_FIELDS))
def test_traced_child_passes_every_step(workload, tmp_path):
    spans_path = tmp_path / "spans.json"
    spec = {
        "workload": workload,
        "moduli": {str(n): default_modulus(n) for n in WORKLOAD_FIELDS[workload]},
        "t_spawn": time.clock_gettime(time.CLOCK_MONOTONIC),
        "trace": True,
        "run_id": workload,
        "spans_path": str(spans_path),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["steps"] and all(step["problems"] == [] for step in out["steps"])
    layers = out["layers"]
    assert layers["search.audit_calls"] == AUDIT_CALLS[workload]
    spans = json.loads(spans_path.read_text())["summary"]
    if workload == "full-n3n4":
        # one row per representative in the canonical pass of full n = 4
        # and in that of verify proposition2
        assert layers["search.canonical_candidates"] == 2 * canonical_pair_count(4) == 617986
    elif workload == "identity-n5-w2":
        # two workers: the search's process pool was wrapped and opened
        assert spans["dispatch.pool"]["calls"] == 1
    else:
        # one worker: the fixed-L1 search runs in process and opens no pool
        assert "dispatch.pool" not in spans
        assert layers["search.blocks"] == 32
