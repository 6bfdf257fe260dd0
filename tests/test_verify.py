"""Verification drivers: every claim checker runs clean on its field range."""

import dataclasses
import functools
import json

import numpy as np
import pytest

from invperm import cli, verify
from invperm.gf2n import FieldContext, alternate_modulus, make_field
from invperm.linmap import Subspace


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
    with pytest.raises(ValueError, match="no seed at n <= 4"):
        verify.verify_proposition2(4, seed=1)
    with pytest.raises(ValueError, match="no seed at n <= 4"):
        verify.verify_proposition2(3, seed=20240)


@pytest.mark.parametrize("claim, n, samples", [
    ("proposition2", 5, 0), ("proposition2", 5, -3), ("lemma4", 7, 0), ("lemma4", 7, -2),
])
def test_sampled_claims_reject_samples_below_one(claim, n, samples):
    # with no sample drawn the claim would pass having checked nothing
    # (lemma4: only its 64 fixed triples)
    with pytest.raises(ValueError, match=f"samples must be at least 1; got {samples}"):
        verify.CLAIMS[claim](n, samples=samples)


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
        ("theorem8", 7, "x8_parity_via_interpolation", (3,), lambda p: 1 - p,
         {"c0": 3, "oracle_mismatch": True}),
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


def _drop_at(fn, a0, pick):
    """The set-valued fn(ctx, a) with the element pick(ctx, a0) left out at a = a0."""
    return lambda ctx, a: fn(ctx, a) - {pick(ctx, a0)} if a == a0 else fn(ctx, a)


def _prop3_formula_misses_a_point():
    real = verify.ma_hyperplane_form
    other = lambda ctx, a: max(real(ctx, a) - {ctx.inv0(a)})
    return {"ma_hyperplane_form": _drop_at(real, 3, other)}


def _prop3_both_miss_the_inverse():
    return {name: _drop_at(getattr(verify, name), 3, lambda ctx, a: ctx.inv0(a))
            for name in ("image_set_Ma", "ma_hyperplane_form")}


def _theorem8_even_recurrence_closes():
    real = verify.recurrence_coeffs
    return {"recurrence_coeffs": lambda ctx, c0: (
        verify.LinearizedPoly.identity(ctx) if c0 == 5 else real(ctx, c0))}


def _theorem8_a2_holds():
    real, target = verify.verify_conditions, verify.recurrence_coeffs(make_field(7), 5)
    return {"verify_conditions": lambda l2s: (
        dataclasses.replace(real(l2s), a2_holds=True) if l2s == target else real(l2s))}


def _theorem8_x8_parity_zero():
    return {"x8_coefficient_parity": lambda n: 0}


@pytest.mark.parametrize(
    "claim, n, patches, violations",
    [
        ("prop3", 4, _prop3_formula_misses_a_point,
         [{"a": 3, "direct_size": 7, "formula_size": 6}]),
        ("prop3", 4, _prop3_both_miss_the_inverse,
         [{"a": 3, "size": 6, "expected": 7}, {"a": 3, "missing": "a^-1"}]),
        ("theorem8", 6, _theorem8_even_recurrence_closes,
         [{"c0": 5, "unexpected": "consistent recurrence"}]),
        ("theorem8", 7, _theorem8_a2_holds, [{"c0": 5, "bits": [0, 0, 0]}]),
        # the interpolation oracle keeps the true parity 1 at each of its points
        ("theorem8", 7, _theorem8_x8_parity_zero,
         [{"x8_parity": 0}] + [{"c0": c0, "oracle_mismatch": True}
                               for c0 in (1, 2, 3, 5, 7, 11, 13, 19)]),
    ],
)
def test_driver_reports_a_fault_in_a_set_or_record_valued_function(
    monkeypatch, capsys, claim, n, patches, violations
):
    # these functions answer with sets, maps or records, or take no field,
    # so _corrupted_at does not apply; each fault is a violation and exit 2
    assert verify.run_claim(claim, n).ok
    for attr, fake in patches().items():
        monkeypatch.setattr(verify, attr, fake)
    res = verify.run_claim(claim, n)
    assert json.loads(json.dumps(res.violations)) == violations
    assert cli.run(["verify", claim, "--field", str(n)]) == cli.EXIT_VIOLATION
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["violations"] == violations


class _FaultyField(FieldContext):
    """A copy of a cached field with some attributes replaced.  Equal only
    to itself, so the caches keyed by field never mix it with the original."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, ctx, **replaced):
        vars(self).update(vars(ctx), **replaced)


def _field_with(**replace):
    """Patch verify.make_field to return one faulty copy of the field;
    each value of replace maps the original field to the new attribute."""
    real = verify.make_field

    @functools.lru_cache(maxsize=None)
    def fake(n, modulus=None):
        ctx = real(n, modulus)
        return _FaultyField(ctx, **{k: f(ctx) for k, f in replace.items()})

    return {"make_field": fake}


def _table_with(name, swaps=(), sets=None):
    """ctx.<name> as a writable copy with the (i, j) entries of swaps
    exchanged, then entry i set to v for each i: v of sets."""

    def build(ctx):
        t = getattr(ctx, name).copy()
        for i, j in swaps:
            t[[i, j]] = t[[j, i]]
        for i, v in (sets or {}).items():
            t[i] = v
        return t

    return build


def _frobenius_breaking_swap(ctx):
    # exchange Tr(x) = 0 and Tr(y) = 1 with x^2 != y: the count stays
    # balanced but Tr(x^2) != Tr(x)
    tr = ctx.trace_table
    x = next(a for a in range(2, ctx.order) if tr[a] == 0)
    y = next(b for b in range(2, ctx.order) if tr[b] == 1 and b != ctx.sqr(x))
    return _table_with("trace_table", swaps=[(x, y)])(ctx)


class _AdjointPlusIdentity(verify.LinearizedPoly):
    def adjoint(self):
        return super().adjoint() + verify.LinearizedPoly.identity(self.ctx)


class _TableXorOne(verify.LinearizedPoly):
    def table(self):
        return super().table() ^ 1


class _NoImage(verify.LinearizedPoly):
    def image(self):
        return Subspace(self.ctx, ())


class _ZeroWalshRow(verify.TruthTable):
    def walsh_matrix(self):
        w = super().walsh_matrix().copy()
        w[1] = 0
        return w


def _census(**replaced):
    real = verify.kloosterman_zeros
    return {"kloosterman_zeros": lambda ctx: dataclasses.replace(real(ctx), **replaced)}


def _extra_mismatch():
    # one (L1, L2) pair added to the first batch's disagreements
    real = verify.criterion_mismatches

    def fake(ctx, batches):
        for i, (checked, bad) in enumerate(real(ctx, batches)):
            yield checked, list(bad) + ([((1,) + (0,) * (ctx.n - 1), (0,) * ctx.n)] if i == 0 else [])

    return {"criterion_mismatches": fake}


def _mul_by_square(ctx):
    # a b^2 is bilinear but not associative
    return lambda a, b: ctx.mul(a, ctx.sqr(b))


def _swap_mul(ctx):
    # the product with 2 and 3 exchanged on inputs and output: associative,
    # not distributive
    phi = lambda a: {2: 3, 3: 2}.get(a, a)
    return lambda a, b: phi(ctx.mul(phi(a), phi(b)))


@pytest.mark.parametrize(
    "check, patches, key",
    [
        ("field-axioms", lambda: _field_with(mul=_mul_by_square), "assoc"),
        ("field-axioms", lambda: _field_with(mul=_swap_mul), "distrib"),
        ("inv0-involution", lambda: _field_with(inv_table=_table_with("inv_table", sets={2: 1})),
         "not_bijective"),
        ("inv0-involution", lambda: _field_with(inv_table=_table_with("inv_table", swaps=[(1, 2)])),
         "not_involution"),
        ("trace-frobenius", lambda: _field_with(trace_table=_frobenius_breaking_swap),
         "trace_not_frobenius_invariant"),
        ("trace-frobenius", lambda: _field_with(trace_table=_table_with("trace_table", sets={0: 1})),
         "trace_unbalanced"),
        ("adjoint-duality", lambda: {"LinearizedPoly": _AdjointPlusIdentity}, "involution"),
        ("adjoint-duality", lambda: {"LinearizedPoly": _TableXorOne}, "pair"),
        ("adjoint-duality", lambda: {"LinearizedPoly": _NoImage}, "dims"),
        ("census-existence", lambda: _census(zero_count=0), "zero_count"),
        ("census-existence", lambda: _census(subfield_hits={1: (1,)}), "subfield_hits"),
        ("theorem3", lambda: {"divisible_by_16": _corrupted_at(
            verify.divisible_by_16, (5,), np.logical_not)}, "K"),
        ("prop2-random", _extra_mismatch, "l1"),
        ("walsh-parseval", lambda: {"TruthTable": _ZeroWalshRow}, "b"),
    ],
)
def test_invariants_report_an_injected_fault(monkeypatch, capsys, check, patches, key):
    # one fault per invariant note, from a patched name: the field tables
    # are read-only, so no fault can come from an in-place write
    for attr, fake in patches().items():
        monkeypatch.setattr(verify, attr, fake)
    assert cli.run(["invariants", "--field", "5"]) == cli.EXIT_VIOLATION
    suite = {r["claim"]: r for r in json.loads(capsys.readouterr().out)["result"]["suite"]}
    assert not suite[check]["ok"]
    assert any(key in v for v in suite[check]["violations"])
