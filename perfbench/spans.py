"""Span recording for the traced run, and the per-layer metrics.

``install`` wraps public invperm functions at the module attributes
other modules call them through, so each call records a span: name,
start, end, parent span and the run id shared by one workload run.
Wrappers return the callee's result unchanged and cache nothing.  Spans
stay in memory and are written once, when the run ends.  Only the
calling process is traced; pool workers are measured from the parent,
as the gaps between partitions it receives.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Recorder:
    def __init__(self, run_id: str, clock: Callable[[], float]):
        self.run_id = run_id
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def open(self, name: str, parent: Optional[int] = None, start: Optional[float] = None) -> dict:
        """Start a span that is not pushed on the call stack."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "start": self.clock() if start is None else start,
            "end": None,
        }
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        if span["end"] is None:
            span["end"] = self.clock()

    def add(self, name: str, start: float, end: float) -> dict:
        span = self.open(name, start=start)
        span["end"] = end
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        s = self.open(name, parent)
        self._stack.append(s["id"])
        try:
            yield s
        finally:
            self._stack.pop()
            self.close(s)

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self_times(self.spans)
        rows = [dict(s, self=selfs[s["id"]]) for s in self.spans]
        summary: Dict[str, dict] = {}
        for s in rows:
            agg = summary.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s["end"] - s["start"]
            agg["self_s"] += s["self"]
        with open(path, "w") as fh:
            json.dump(dict(meta, run_id=self.run_id, summary=summary, spans=rows), fh)


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: Dict[int, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# -- wrappers ------------------------------------------------------------------


def _traced(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _traced_claim(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(claim, *args, **kwargs):
        with rec.span("verify." + claim):
            return fn(claim, *args, **kwargs)

    return wrapper


def _traced_search(rec: Recorder, name: str, fn):
    """Times the search and, through its progress hook, every block."""

    @functools.wraps(fn)
    def wrapper(*args, progress=None, **kwargs):
        marks: List[float] = []

        def hook(record):
            marks.append(rec.clock())
            if progress is not None:
                progress(record)

        with rec.span(name) as s:
            s["marks"] = marks
            return fn(*args, progress=hook, **kwargs)

    return wrapper


def _traced_batches(rec: Recorder, name: str, fn):
    """One span per pass over the generator, one child span per batch made."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        pass_span = rec.open(name)
        pass_span["rows"] = 0
        try:
            while True:
                with rec.span(name + ".next", parent=pass_span["id"]):
                    try:
                        batch = next(it)
                    except StopIteration:
                        return
                pass_span["rows"] += len(batch["stacked"])
                yield batch
        finally:
            rec.close(pass_span)

    return wrapper


def _traced_pool(rec: Recorder, base):
    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._span = rec.open("dispatch.pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                rec.close(self._span)

    return TracedPool


_CALLERS = ("invperm.cli", "invperm.search", "invperm.verify", "invperm.inverse_perm", "invperm.kloosterman")


def install(rec: Recorder) -> None:
    """Wrap the layer entry points in every module that calls them."""
    mods = {m: importlib.import_module(m) for m in _CALLERS}

    def patch(attr: str, make):
        for mod in mods.values():
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, make(fn))

    patch("kloosterman_all", lambda f: _traced(rec, "kloosterman.transform", f))
    patch("qform_table", lambda f: _traced(rec, "kloosterman.qform", f))
    patch("kloosterman_zeros", lambda f: _traced(rec, "kloosterman.zeros", f))
    patch("kloosterman_sum", lambda f: _traced(rec, "kloosterman.literal_sum", f))
    patch("canonical_batches", lambda f: _traced_batches(rec, "search.canonical_batches", f))
    cli, search = mods["invperm.cli"], mods["invperm.search"]
    cli.run_claim = _traced_claim(rec, cli.run_claim)
    for attr in ("full_search", "normalized_search", "identity_L1_search"):
        setattr(cli, attr, _traced_search(rec, "search." + attr, getattr(cli, attr)))
    search.build_F = _traced(rec, "search.audit.build_F", search.build_F)
    search.ProcessPoolExecutor = _traced_pool(rec, search.ProcessPoolExecutor)


# -- per-layer metrics -----------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_metrics(rec: Recorder, steps: List[dict], verdict_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced iteration.

    A layer the workload never reaches reads 0 (no calls, no time).
    """
    by_name: Dict[str, List[dict]] = {}
    for s in rec.spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum((s["end"] - s["start"] for s in by_name.get(name, [])), 0.0)

    m: Dict[str, float] = {}
    m["gf2n.import_s"] = total("gf2n.import")
    m["gf2n.field_build_s"] = sum(total(k) for k in by_name if k.startswith("gf2n.field_build"))
    m["kloosterman.zeros_s"] = total("kloosterman.zeros")
    sums = by_name.get("kloosterman.literal_sum", [])
    m["kloosterman.literal_sums"] = len(sums)
    m["kloosterman.literal_sum_us"] = 1e6 * total("kloosterman.literal_sum") / len(sums) if sums else 0.0
    m["kloosterman.transform_s"] = total("kloosterman.transform")
    m["kloosterman.qform_s"] = total("kloosterman.qform")

    searches = [s for s in rec.spans if "marks" in s]
    gaps, first, tail, span_s, block_s = [], 0.0, 0.0, 0.0, 0.0
    for s in searches:
        marks = s["marks"]
        span_s += s["end"] - s["start"]
        if marks:
            first += marks[0] - s["start"]
            tail += s["end"] - marks[-1]
            block_s += marks[-1] - marks[0]
            gaps += [b - a for a, b in zip(marks, marks[1:])]
    m["search.first_block_ms"] = _ms(first)
    m["search.block_ms_p50"] = _ms(statistics.median(gaps)) if gaps else 0.0
    m["search.block_ms_max"] = _ms(max(gaps)) if gaps else 0.0
    m["search.blocks"] = sum(len(s["marks"]) for s in searches)
    m["search.tail_ms"] = _ms(tail)
    m["search.block_frac"] = block_s / span_s if span_s else 0.0
    audits = by_name.get("search.audit.build_F", [])
    m["search.audit_ms"] = _ms(total("search.audit.build_F"))
    m["search.audit_calls"] = len(audits)
    passes = by_name.get("search.canonical_batches", [])
    m["search.canonical_batches_s"] = total("search.canonical_batches.next")
    m["search.canonical_candidates"] = sum(p["rows"] for p in passes)
    m["search.canonical_pass_frac"] = total("search.canonical_batches") / verdict_s if verdict_s else 0.0

    reports = [st["result"] or {} for st in steps if st["kind"] == "search"]
    m["search.examined"] = sum(r.get("examined", 0) for r in reports)
    stage_sum: Dict[str, int] = {}
    kernel_base = mod16 = 0
    for r in reports:
        stages = {s["name"]: s["survivors"] for s in r.get("stages", [])}
        for k, v in stages.items():
            stage_sum[k] = stage_sum.get(k, 0) + v
        if "mod16-necessary" in stages:
            kernel_base += stages["kernel-intersection"]
            mod16 += stages["mod16-necessary"]
    for k in ("nonzero", "kernel-intersection", "mod16-necessary", "kloosterman-zero", "bijective"):
        m["search.stage." + k] = stage_sum.get(k, 0)
    m["search.mod16_pass_ratio"] = mod16 / kernel_base if kernel_base else 0.0
    m["search.audit_sampled"] = sum(r.get("audit", {}).get("sampled", 0) for r in reports)
    m["search.audit_violations"] = sum(r.get("audit", {}).get("violations", 0) for r in reports)

    m["verify.proposition2_s"] = total("verify.proposition2")
    m["verify.proposition2_cases"] = sum(
        (st["result"] or {}).get("cases_checked", 0)
        for st in steps
        if st["kind"] == "verify" and "proposition2" in st["argv"]
    )
    m["verify.theorem3_s"] = total("verify.theorem3")

    first_result, pool_gaps = 0.0, []
    for pool in by_name.get("dispatch.pool", []):
        inside = [t for s in searches for t in s["marks"] if pool["start"] <= t <= pool["end"]]
        if inside:
            first_result += inside[0] - pool["start"]
            pool_gaps += [b - a for a, b in zip(inside, inside[1:])]
    m["dispatch.first_result_ms"] = _ms(first_result)
    m["dispatch.gap_ms_p50"] = _ms(statistics.median(pool_gaps)) if pool_gaps else 0.0
    return m
