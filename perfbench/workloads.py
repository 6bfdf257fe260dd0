"""Workload definitions, modulus choice and the correctness gate.

A workload is a fixed sequence of CLI subcommands ("steps") that one
fresh interpreter runs one after another.  Each step pins the report
fields that do not depend on which irreducible modulus represents the
field, so the gate holds for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Tuple

# The seed indexes the first few irreducible polynomials of each degree;
# seed 0 is the smallest one, which is the package's default modulus.
MODULUS_CHOICES = 8


@dataclass(frozen=True)
class Step:
    kind: str  # "search", "census" or "verify"
    argv: Tuple[str, ...]  # "{n}" is replaced by the field spec of degree n
    n: int
    pins: Dict[str, object] = field(default_factory=dict)

    @property
    def workers(self) -> int:
        return int(self.argv[self.argv.index("--workers") + 1]) if "--workers" in self.argv else 1


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Tuple[Step, ...]

    @property
    def fields(self) -> Tuple[int, ...]:
        return tuple(sorted({s.n for s in self.steps}))


def _search(mode: str, n: int, workers: int, pins: Dict[str, object]) -> Step:
    argv = ("search", mode, "--field", "{n}", "--workers", str(workers))
    return Step("search", argv, n, pins)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "normalized-n7",
            (
                _search("normalized", 7, 1, {
                    "examined": 2097152,
                    "stage:nonzero": 2097152,
                    "stage:kernel-intersection": 2097152,
                    "stage:mod16-necessary": 0,
                    "stage:kloosterman-zero": 0,
                    "stage:bijective": 0,
                    "witness_count": 0,
                }),
            ),
        ),
        Workload(
            "census-n15",
            (
                Step("census", ("kloosterman", "census", "--field", "{n}"), 15, {
                    "zero_count": 285,
                    "candidates": 8255,
                }),
                Step("verify", ("verify", "theorem3", "--field", "{n}"), 15, {
                    "cases_checked": 32768,
                    "ok": True,
                }),
            ),
        ),
        Workload(
            "full-n3n4",
            (
                _search("full", 3, 1, {
                    "examined": 261121,
                    "stage:nonzero": 261121,
                    "stage:kernel-intersection": 234024,
                    "stage:kloosterman-zero": 4704,
                    "stage:bijective": 4704,
                    "witness_count": 4704,
                }),
                _search("full", 4, 1, {
                    "examined": 308993,
                    "stage:nonzero": 308860,
                    "stage:kernel-intersection": 200785,
                    "stage:mod16-necessary": 10,
                    "stage:kloosterman-zero": 10,
                    "stage:bijective": 10,
                    "witness_count": 10,
                }),
                Step("verify", ("verify", "proposition2", "--field", "{n}"), 4, {
                    "cases_checked": 308860,
                    "ok": True,
                }),
            ),
        ),
        Workload(
            "identity-n5-w2",
            (
                _search("identity-l1", 5, 2, {
                    "examined": 33554432,
                    "stage:nonzero": 33554431,
                    "stage:kernel-intersection": 33554431,
                    "stage:mod16-necessary": 0,
                    "stage:kloosterman-zero": 0,
                    "stage:bijective": 0,
                    "witness_count": 0,
                }),
            ),
        ),
    )
}


def choose_moduli(workload: Workload, seed: int) -> Dict[int, int]:
    """One irreducible modulus per field degree of the workload."""
    from invperm.gf2n import irreducible_polys

    moduli = {}
    for n in workload.fields:
        choices = list(islice(irreducible_polys(n), MODULUS_CHOICES))
        moduli[n] = choices[seed % len(choices)]
    return moduli


def step_argv(step: Step, moduli: Dict[int, int], workers: Optional[int] = None) -> List[str]:
    spec = f"{step.n}:{moduli[step.n]:#x}"
    argv = [spec if a == "{n}" else a for a in step.argv]
    if workers is not None and "--workers" in argv:
        argv[argv.index("--workers") + 1] = str(workers)
    return argv


def _pinned_value(result: dict, key: str):
    if key.startswith("stage:"):
        stages = {s["name"]: s["survivors"] for s in result.get("stages", [])}
        return stages.get(key[len("stage:"):])
    return result.get(key)


def check_step(
    step: Step, exit_code: Optional[int], envelope: Optional[dict], error: Optional[str]
) -> List[str]:
    """Reasons the step failed; an empty list means it passed the gate."""
    if error is not None:
        return [f"raised {error}"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if envelope is None:
        return problems + ["no JSON report on stdout"]
    result = envelope.get("result", {})
    if result.get("verdict", "ok") != "ok":
        problems.append(f"verdict {result['verdict']!r}")
    if result.get("ok") is False:
        problems.append("ok is false")
    for key, want in step.pins.items():
        got = _pinned_value(result, key)
        if got != want:
            problems.append(f"{key} = {got!r}, pinned {want!r}")
    return problems

