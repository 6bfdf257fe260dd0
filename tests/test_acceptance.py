"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every criterion prints a PASS line (visible with pytest -s); any
violation fails the test with the offending cases attached.  All
comparisons are exact; there are no tolerances anywhere.
"""

import random
from collections import Counter

import numpy as np
import pytest

from invperm import search, verify
from invperm.gf2n import alternate_modulus, make_field
from invperm.kloosterman import kloosterman_all, kloosterman_zeros
from invperm.vbf import AffineMap, AffineMapProduct, TruthTable, check_ccz_witness


def ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


# -- 1. mod-16 divisibility characterization ---------------------------------


@pytest.mark.parametrize("n", range(4, 13))
def test_criterion1_mod16_characterization(n):
    res = verify.verify_theorem3(n)
    assert res.ok, res.violations
    assert res.cases == 1 << n
    ok(f"criterion 1, n={n}: 16|K(a) <=> Tr(a)=Q(a)=0 on all {res.cases} elements")


# -- 2. exact permutation criterion ------------------------------------------


def test_criterion2_criterion_exhaustive_n3():
    res = verify.verify_proposition2(3)
    assert res.ok, res.violations
    assert res.cases == 261_121
    ok("criterion 2, n=3: criterion == bijectivity on all 261121 nonzero pairs")


def test_criterion2_criterion_canonical_n4():
    res = verify.verify_proposition2(4)
    assert res.ok, res.violations
    assert res.cases == 308_860
    ok(f"criterion 2, n=4: criterion == bijectivity on all {res.cases} canonical pairs")


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_criterion2_criterion_random(n):
    res = verify.verify_proposition2(n, samples=100_000, seed=31 + n)
    assert res.ok, res.violations
    assert res.cases == 100_000
    ok(f"criterion 2, n={n}: criterion == bijectivity on 100000 random pairs")


# -- 3. the dichotomy ----------------------------------------------------------


def test_criterion3_existence_n3(full3_report):
    assert full3_report.witness_count > 0
    ok(f"criterion 3, n=3: full search found {full3_report.witness_count} witnesses")


def test_criterion3_existence_n4(full4_report):
    assert full4_report.witness_count > 0
    ok(
        "criterion 3, n=4: canonical search found "
        f"{full4_report.witness_count} orbit witnesses"
    )


def test_criterion3_nonexistence_normalized5(normalized5_report):
    rep = normalized5_report
    assert rep.examined == 1 << 20
    assert rep.witness_count == 0
    ok("criterion 3, n=5: normalized search over 2^20 candidates found 0 witnesses")


def test_criterion3_nonexistence_normalized6(normalized6_report):
    assert normalized6_report.witness_count == 0
    ok("criterion 3, n=6: normalized search found 0 witnesses")


def test_criterion3_nonexistence_normalized7():
    rep = search.normalized_search(7)
    assert rep.witness_count == 0
    assert rep.examined == 1 << 21  # the whole trace-presolved coset
    assert dict(rep.stages) == {
        "nonzero": 1 << 21,
        "kernel-intersection": 1 << 21,
        "mod16-necessary": 0,
        "kloosterman-zero": 0,
        "bijective": 0,
    }
    assert rep.audit_violations == 0
    ok("criterion 3, n=7: normalized search over the 2^21 presolved coset found 0 witnesses")


def test_criterion3_nonexistence_identity5(identity5_report):
    rep = identity5_report
    assert rep.examined == 1 << 25
    assert rep.witness_count == 0
    ok("criterion 3, n=5: single-map search over 2^25 candidates found 0 witnesses")


# -- 4. the single-map boundary --------------------------------------------------


def test_criterion4_boundary(
    identity3_report, identity4_report, identity5_report, identity6_report
):
    assert identity3_report.witness_count > 0
    assert identity4_report.witness_count > 0
    assert identity5_report.witness_count == 0
    assert identity6_report.witness_count == 0
    ok(
        "criterion 4: x^-1 + L(x) witnesses at n=3,4 "
        f"({identity3_report.witness_count}, {identity4_report.witness_count}) "
        "and none at n=5,6"
    )


# -- 5. the coefficient-recurrence engine ----------------------------------------


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_criterion5_recurrence_odd(n):
    res = verify.verify_theorem8(n)
    assert res.ok, res.violations
    assert res.details["x8_parity"] == 1
    ok(
        f"criterion 5, n={n}: every c0 gives a1, a3 identically and a2 violated; "
        "x^8 coefficient 1 (interpolation oracle agrees)"
    )


@pytest.mark.parametrize("n", [6, 8, 10])
def test_criterion5_recurrence_even(n):
    res = verify.verify_theorem8(n)
    assert res.ok, res.violations
    ok(f"criterion 5, n={n}: forced coefficients inconsistent for every c0")


# -- 6. the small lemma suites -----------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_criterion6_quadratic_solvability(n):
    res = verify.verify_lemma2(n)
    assert res.ok, res.violations
    ok(f"criterion 6, n={n}: solvability formula == root scan on {res.cases} cases")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_criterion6_hyperplane_cover(n):
    res = verify.verify_lemma4(n)
    assert res.ok, res.violations
    ok(f"criterion 6, n={n}: three-hyperplane cover <=> a+b=c on {res.cases} triples")


@pytest.mark.parametrize("n", range(3, 11))
def test_criterion6_image_set_identity(n):
    res = verify.verify_prop3(n)
    assert res.ok, res.violations
    ok(f"criterion 6, n={n}: image-set identity on all {res.cases} nonzero a")


# -- 7. Kloosterman census ----------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 13))
def test_criterion7_census(n):
    census = kloosterman_zeros(make_field(n))
    assert census.zero_count >= 1
    if n >= 5:
        assert all(len(v) == 0 for v in census.subfield_hits.values())
    alt = alternate_modulus(n)
    other = kloosterman_zeros(make_field(n, alt))
    assert census.zero_count == other.zero_count
    assert Counter(map(int, kloosterman_all(make_field(n)))) == Counter(
        map(int, kloosterman_all(make_field(n, alt)))
    )
    ok(
        f"criterion 7, n={n}: {census.zero_count} zeros, subfield-free (n>=5), "
        "census invariant across moduli"
    )


# -- 8. differential uniformity spot checks -------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7])
def test_criterion8_cube_apn(n):
    d = TruthTable.from_exponent(make_field(n), 3).differential_uniformity()
    assert d == 2
    ok(f"criterion 8, n={n}: x^3 has differential uniformity 2")


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_criterion8_inverse_odd(n):
    d = TruthTable.inverse_map(make_field(n)).differential_uniformity()
    assert d == 2
    ok(f"criterion 8, n={n}: inverse map has differential uniformity 2")


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_criterion8_inverse_even(n):
    d = TruthTable.inverse_map(make_field(n)).differential_uniformity()
    assert d == 4
    ok(f"criterion 8, n={n}: inverse map has differential uniformity 4")


# -- 9. graph-equivalence witness sanity ------------------------------------------------


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_criterion9_swap_witness_involution(n):
    ctx = make_field(n)
    inv = TruthTable.inverse_map(ctx)
    assert check_ccz_witness(inv, inv, AffineMapProduct.swap(ctx))
    ok(f"criterion 9, n={n}: coordinate swap fixes the inverse-map graph")


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_criterion9_spectra_invariance(n):
    ctx = make_field(n)
    f = TruthTable.inverse_map(ctx)
    base_diff = f.differential_spectrum()
    base_walsh = f.walsh_spectrum()
    rng = random.Random(600 + n)
    for _ in range(100):
        a1 = AffineMap.random(ctx, rng, bijective=True)
        a2 = AffineMap.random(ctx, rng, bijective=True)
        a3 = AffineMap.random(ctx, rng)
        g = TruthTable(ctx, a1.table()[f.values[a2.table()]] ^ a3.table())
        assert g.differential_spectrum() == base_diff
        assert g.walsh_spectrum() == base_walsh
    ok(f"criterion 9, n={n}: spectra invariant under 100 random affine witnesses")
