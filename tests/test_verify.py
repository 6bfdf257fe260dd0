"""Verification drivers: every claim checker runs clean on its field range."""

import functools
import json

import numpy as np
import pytest

from invperm import cli, verify
from invperm.gf2n import alternate_modulus, make_field


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_theorem3_driver(n):
    res = verify.verify_theorem3(n)
    assert res.ok and res.cases == 1 << n


def test_theorem3_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 4"):
        verify.verify_theorem3(3)


def test_proposition2_exhaustive_n3():
    res = verify.verify_proposition2(3)
    assert res.ok
    assert res.cases == 511 * 511
    assert res.details["mode"] == "exhaustive"


def test_proposition2_canonical_n4():
    res = verify.verify_proposition2(4)
    assert res.ok
    assert res.details["mode"] == "canonical"
    # nonzero canonical representatives
    assert res.cases == 308860


@pytest.mark.parametrize("n", [5, 6])
def test_proposition2_random(n):
    res = verify.verify_proposition2(n, samples=5000, seed=1)
    assert res.ok and res.cases == 5000


def test_lemma2_driver():
    for n in (3, 4, 5):
        res = verify.verify_lemma2(n)
        assert res.ok
        q = 1 << n
        assert res.cases == q * (q - 1) * q


def test_lemma4_driver_exhaustive():
    for n in (3, 4, 5):
        res = verify.verify_lemma4(n)
        assert res.ok
        q = 1 << n
        assert res.cases >= (q - 1) * (q - 2) * (q - 3)


def test_lemma4_driver_random_large():
    res = verify.verify_lemma4(8, samples=3000, seed=3)
    assert res.ok


def test_sampled_claims_keep_default_counts_and_reject_ignored_samples():
    assert verify.verify_lemma4(7).details["mode"] == "random(samples=20000, seed=99)"
    assert verify.verify_proposition2(5).details["mode"] == "random(samples=100000, seed=20240)"
    with pytest.raises(ValueError, match="samples"):
        verify.verify_lemma4(6, samples=10)
    with pytest.raises(ValueError, match="samples"):
        verify.verify_proposition2(4, samples=10)


@pytest.mark.parametrize("n", list(range(3, 11)))
def test_prop3_driver(n):
    res = verify.verify_prop3(n)
    assert res.ok and res.cases == (1 << n) - 1


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_theorem8_driver(n):
    res = verify.verify_theorem8(n)
    assert res.ok
    if n % 2:
        assert res.details["x8_parity"] == 1


def test_run_claim_dispatch():
    res = verify.run_claim("theorem3", 5)
    assert res.claim == "theorem3" and res.ok
    with pytest.raises(ValueError, match="unknown claim"):
        verify.run_claim("theorem9", 5)


def test_claims_work_on_alternate_modulus():
    alt = alternate_modulus(5)
    for name in ("theorem3", "prop3", "theorem8"):
        assert verify.run_claim(name, 5, alt).ok


@pytest.mark.parametrize("n", [3, 5, 8])
def test_invariants_suite(n):
    results = verify.invariants_suite(n)
    assert all(r.ok for r in results)
    names = {r.claim for r in results}
    assert {"field-axioms", "adjoint-duality", "census-existence"} <= names


def test_verify_result_json():
    res = verify.verify_theorem3(4)
    d = res.to_json_dict()
    assert d["ok"] is True
    assert d["cases_checked"] == 16
    assert d["violations"] == []


def _corrupted_at(fn, point, change):
    """fn with change applied to its answer where (a, b, c) or a equals point."""

    def wrapped(ctx, *args):
        out = np.asarray(fn(ctx, *args))
        hit = functools.reduce(np.logical_and, [np.asarray(v) == p for v, p in zip(args, point)])
        return np.where(hit, change(out), out)

    return wrapped


@pytest.mark.parametrize(
    "claim, n, attr, point, change, violation",
    [
        ("lemma2", 4, "quad_solvable", (3, 5, 7), np.logical_not, {"a": 3, "b": 5, "c": 7}),
        ("lemma4", 4, "hyperplane_union_size", (1, 2, 4), lambda s: s + 1,
         {"a": 1, "b": 2, "c": 4, "union_size": 15}),
        ("lemma4", 4, "hyperplane_union_size", (1, 2, 3), lambda s: s - 2,
         {"a": 1, "b": 2, "c": 3, "covers": False}),
        ("theorem3", 6, "divisible_by_16", (5,), np.logical_not, {"a": "5", "K": -8}),
    ],
)
def test_driver_reports_a_fault_in_the_library_function(
    monkeypatch, capsys, claim, n, attr, point, change, violation
):
    # each driver checks the exported function that states its claim, so
    # one wrong answer from that function is a violation and exit code 2
    assert verify.run_claim(claim, n).ok
    monkeypatch.setattr(verify, attr, _corrupted_at(getattr(verify, attr), point, change))
    res = verify.run_claim(claim, n)
    assert res.violations == [violation]
    assert cli.run(["verify", claim, "--field", str(n)]) == cli.EXIT_VIOLATION
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["violations"] == [violation]


def test_lemma4_random_mode_reports_a_fault(monkeypatch):
    real = verify.hyperplane_union_size
    monkeypatch.setattr(verify, "hyperplane_union_size", lambda ctx, a, b, c: real(ctx, a, b, c) - 1)
    res = verify.verify_lemma4(8, samples=50, seed=3)
    # every sampled triple reports, so the list is full before the subfield checks
    assert not res.ok
    assert len(res.violations) == verify.MAX_VIOLATIONS
    assert all("union_size" in v or "covers" in v for v in res.violations)
