"""Pair criteria, image sets, structure reports, and the recurrence engine."""

import random

import numpy as np
import pytest

from invperm import inverse_perm
from invperm.gf2n import make_field
from invperm.inverse_perm import (
    ConditionReport,
    build_F,
    hyperplane_union_size,
    image_set_Ma,
    kernel_structure_check,
    ma_hyperplane_form,
    necessary_mod16,
    perm_criterion_kloosterman,
    quad_solvable,
    recurrence_coeffs,
    verify_conditions,
    x8_coefficient_parity,
    x8_parity_via_interpolation,
    x8_tuples,
)
from invperm.kloosterman import kloosterman_all
from invperm.linmap import LinearizedPoly
from invperm.vbf import TruthTable


def test_build_f_degenerate_forms():
    ctx = make_field(5)
    ident = LinearizedPoly.identity(ctx)
    zero = LinearizedPoly.zero(ctx)
    assert build_F(zero, ident) == TruthTable.identity(ctx)
    assert build_F(ident, zero) == TruthTable.inverse_map(ctx)
    rng = random.Random(1)
    for _ in range(20):
        l1 = LinearizedPoly.random(ctx, rng)
        l2 = LinearizedPoly.random(ctx, rng)
        assert build_F(l1, l2)[0] == 0


def test_criterion_degenerate_l1_zero():
    # with L1 = 0 the map reduces to L2, and the criterion must still
    # agree with plain bijectivity of L2
    ctx = make_field(4)
    rng = random.Random(2)
    zero = LinearizedPoly.zero(ctx)
    for _ in range(50):
        l2 = LinearizedPoly.random(ctx, rng)
        assert perm_criterion_kloosterman(zero, l2) == l2.is_bijective()


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_criterion_agrees_with_bijectivity_random(n):
    ctx = make_field(n)
    rng = random.Random(n)
    for _ in range(300):
        l1 = LinearizedPoly.random(ctx, rng)
        l2 = LinearizedPoly.random(ctx, rng)
        assert perm_criterion_kloosterman(l1, l2) == build_F(l1, l2).is_permutation()


def test_necessary_mod16_requires_n4():
    ctx = make_field(3)
    with pytest.raises(ValueError, match="n >= 4"):
        necessary_mod16(LinearizedPoly.identity(ctx), LinearizedPoly.identity(ctx))


def test_necessary_mod16_implied_by_permutation(full4_report):
    # every permutation pair must pass the necessary condition (n >= 4)
    ctx = make_field(4)
    rep = full4_report
    assert rep.witness_count > 0
    for l1_text, l2_text in rep.witnesses:
        l1 = LinearizedPoly.from_text(ctx, l1_text)
        l2 = LinearizedPoly.from_text(ctx, l2_text)
        assert build_F(l1, l2).is_permutation()
        assert necessary_mod16(l1, l2)


def test_mod16_equals_exact_criterion_below_n6():
    # |K - 1| <= 2^(n/2+1) leaves 0 as the only multiple of 16 for
    # n in {4, 5}, so the necessary condition is exact there
    for n in (4, 5):
        ks = kloosterman_all(make_field(n))
        assert set(map(int, ks[ks % 16 == 0])) == {0}
    # from n = 6 on the conditions genuinely diverge element-wise
    ks6 = kloosterman_all(make_field(6))
    assert 16 in set(map(int, ks6))


def test_mod16_matches_criterion_pairwise_at_n5():
    ctx = make_field(5)
    rng = random.Random(55)
    for _ in range(300):
        l1 = LinearizedPoly.random(ctx, rng)
        l2 = LinearizedPoly.random(ctx, rng)
        assert necessary_mod16(l1, l2) == perm_criterion_kloosterman(l1, l2)


@pytest.mark.parametrize("n", range(3, 11))
def test_image_set_identity_and_size(n):
    ctx = make_field(n)
    expected = ctx.order // 2 - (1 - n % 2)
    rng = random.Random(n)
    sample = (
        range(1, ctx.order) if n <= 7 else [rng.randrange(1, ctx.order) for _ in range(40)]
    )
    for a in sample:
        ma = image_set_Ma(ctx, a)
        assert ma == ma_hyperplane_form(ctx, a)
        assert len(ma) == expected
        assert ctx.inv0(a) in ma  # reached at x = 0
        assert 0 not in ma
    with pytest.raises(ValueError, match="nonzero"):
        image_set_Ma(ctx, 0)
    with pytest.raises(ValueError, match="nonzero"):
        ma_hyperplane_form(ctx, 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quad_solvable_exhaustive(n):
    ctx = make_field(n)
    q = ctx.order
    for a in range(q):
        for b in range(1, q):
            roots = {ctx.mul(a, ctx.sqr(x)) ^ ctx.mul(b, x) for x in range(q)}
            for c in range(q):
                assert quad_solvable(ctx, a, b, c) == (c in roots)
    with pytest.raises(ValueError, match="nonzero"):
        quad_solvable(ctx, 1, 0, 1)


def test_quad_solvable_trivial_cases():
    ctx = make_field(6)
    for b in range(1, 64):
        assert quad_solvable(ctx, 5, b, 0)  # x = 0 is a root
        assert quad_solvable(ctx, 0, b, 17)  # linear equation


def _literal_union_size(ctx, a, b, c):
    return len(set().union(*(ctx.hyperplane(v) for v in (a, b, c))))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyperplane_union_size_every_nonzero_triple(n, monkeypatch):
    ctx = make_field(n)
    r = np.arange(1, ctx.order)
    a, b, c = (m.ravel() for m in np.meshgrid(r, r, r, indexing="ij"))
    sizes = hyperplane_union_size(ctx, a, b, c)
    assert sizes.shape == a.shape
    expected = [_literal_union_size(ctx, *t) for t in zip(a.tolist(), b.tolist(), c.tolist())]
    assert sizes.tolist() == expected
    # a 2-D call keeps its shape
    grid = hyperplane_union_size(ctx, a.reshape(-1, r.size), b.reshape(-1, r.size), c.reshape(-1, r.size))
    assert np.array_equal(grid.ravel(), sizes)
    # blocks of 7 triples, the last one short, give the same sizes
    monkeypatch.setattr(inverse_perm, "_UNION_WORDS", 7)
    assert np.array_equal(hyperplane_union_size(ctx, a, b, c), sizes)


@pytest.mark.parametrize("n", [8, 10])
def test_hyperplane_union_size_random_triples(n):
    ctx = make_field(n)
    rng = random.Random(n)
    triples = [tuple(rng.randrange(1, ctx.order) for _ in range(3)) for _ in range(40)]
    triples += [(a, b, a ^ b) for a, b, _ in triples[:10] if a != b]
    a, b, c = (np.array(v) for v in zip(*triples))
    sizes = hyperplane_union_size(ctx, a, b, c)
    # the hyperplanes of a, b and a + b cover the field
    assert (sizes[40:] == ctx.order).all() and sizes.size > 40
    for i, t in enumerate(triples):
        expected = _literal_union_size(ctx, *t)
        assert sizes[i] == expected
        # scalar calls give plain ints
        got = hyperplane_union_size(ctx, *t)
        assert type(got) is int and got == expected
    with pytest.raises(ValueError, match="same shape"):
        hyperplane_union_size(ctx, a, b, c[:-1])


def test_quad_solvable_array_matches_scalar():
    for n in (3, 4):
        ctx = make_field(n)
        q = ctx.order
        a, b, c = np.arange(q)[:, None, None], np.arange(1, q)[:, None], np.arange(q)
        grid = quad_solvable(ctx, a, b, c)
        assert grid.shape == (q, q - 1, q) and grid.dtype == bool
        for x in range(q):
            for y in range(1, q):
                for z in range(q):
                    got = quad_solvable(ctx, x, y, z)
                    assert type(got) is bool and got == grid[x, y - 1, z]
        with pytest.raises(ValueError, match="nonzero"):
            quad_solvable(ctx, a, np.arange(q)[:, None], c)


def test_pair_report_shared_kernel():
    # L1 = L2 = x^2 + x share the kernel {0, 1}: criterion must fail
    ctx = make_field(5)
    l = LinearizedPoly(ctx, (1, 1, 0, 0, 0))
    rep = kernel_structure_check(l, l)
    assert not rep.kernel_intersection_trivial
    assert not rep.kloosterman_criterion
    assert not rep.is_permutation
    assert rep.criterion_consistent
    assert rep.ker_l1_size == rep.ker_l2_size == 2
    assert rep.ker_l1_subfield == (1, 1)  # {0,1} is the prime subfield itself


def test_pair_report_bijective_l1_note():
    ctx = make_field(5)
    rng = random.Random(3)
    rep = kernel_structure_check(
        LinearizedPoly.identity(ctx), LinearizedPoly.random(ctx, rng)
    )
    assert rep.l1_bijective
    assert rep.bijective_part_note is not None
    assert not rep.is_permutation


def test_pair_report_on_n4_witness(full4_report):
    ctx = make_field(4)
    rep_search = full4_report
    for l1_text, l2_text in rep_search.witnesses[:4]:
        l1 = LinearizedPoly.from_text(ctx, l1_text)
        l2 = LinearizedPoly.from_text(ctx, l2_text)
        rep = kernel_structure_check(l1, l2)
        assert rep.is_permutation and rep.kloosterman_criterion
        assert rep.mod16_condition is True
        assert rep.kernel_intersection_trivial
        assert rep.criterion_consistent
        # flags outside the n >= 5 theory are recorded, not asserted
        assert isinstance(rep.transport_l1, bool)
        assert isinstance(rep.transport_l2, bool)


def test_pair_report_invariants_random():
    for n in (4, 5, 6):
        ctx = make_field(n)
        rng = random.Random(10 + n)
        for _ in range(60):
            rep = kernel_structure_check(
                LinearizedPoly.random(ctx, rng), LinearizedPoly.random(ctx, rng)
            )
            assert rep.criterion_consistent  # the exact criterion is an iff
            if rep.is_permutation:
                assert rep.kloosterman_criterion
                if rep.mod16_condition is not None:
                    assert rep.mod16_condition
            d = rep.to_json_dict()
            assert d["kernel_sizes"] == [rep.ker_l1_size, rep.ker_l2_size]


def test_recurrence_coeffs_pattern():
    ctx = make_field(7)
    for c0 in (0, 1, 5, 77):
        l2s = recurrence_coeffs(ctx, c0)
        assert l2s.coeffs[0] == c0
        assert l2s.coeffs[1] == ctx.sqr(c0)  # c1 = c0^2
        assert l2s.coeffs[2] == ctx.sqr(l2s.coeffs[1]) ^ 1  # c2 = c1^2 + 1
        for i in range(1, 7):
            expect = ctx.pow2k(c0, i) ^ (0 if i % 2 else 1)
            assert l2s.coeffs[i] == expect


@pytest.mark.parametrize("n", [6, 8, 10])
def test_recurrence_inconsistent_even_n(n):
    ctx = make_field(n)
    for c0 in range(0, ctx.order, max(1, ctx.order // 64)):
        assert recurrence_coeffs(ctx, c0) is None


def test_recurrence_requires_n5():
    with pytest.raises(ValueError, match="n >= 5"):
        recurrence_coeffs(make_field(4), 1)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_recurrence_conditions_all_c0(n):
    ctx = make_field(n)
    for c0 in ctx.elements():
        rep = verify_conditions(recurrence_coeffs(ctx, c0))
        assert rep.a1_holds and rep.a3_holds and not rep.a2_holds
        assert rep.witness_a2 is not None
        assert rep.bits() == (0, 1, 0)


def test_conditions_for_zero_map():
    # L2* = 0 satisfies a1 and a2 vacuously; a3 collapses to Q(x^2+x) = 0,
    # which fails somewhere for every n >= 3
    for n in range(3, 9):
        ctx = make_field(n)
        rep = verify_conditions(LinearizedPoly.zero(ctx))
        assert rep.a1_holds and rep.a2_holds and not rep.a3_holds
        x = rep.witness_a3
        u = ctx.sqr(x) ^ x
        from invperm.kloosterman import qform

        assert qform(ctx, u) == 1


def test_x8_tuple_enumeration_n5_frozen():
    # exactly five index tuples reduce to the x^8 term at n = 5; three
    # of them contribute 1, so the parity is 1
    tuples = x8_tuples(5)
    assert sorted(tuples) == sorted(
        [
            ((0, 0, 1, 2), 1),
            ((0, 2, 0, 1), 0),
            ((0, 1, 0, 2), 0),
            ((1, 0, 0, 2), 1),
            ((2, 0, 0, 1), 1),
        ]
    )
    assert x8_coefficient_parity(5) == 1


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_x8_parity_odd_n(n):
    assert x8_coefficient_parity(n) == 1


def test_x8_parity_requires_n5():
    with pytest.raises(ValueError, match="n >= 5"):
        x8_coefficient_parity(4)
    with pytest.raises(ValueError, match="even n"):
        x8_parity_via_interpolation(make_field(6), 0)


@pytest.mark.parametrize("n", [5, 7])
def test_x8_interpolation_oracle_agrees(n):
    ctx = make_field(n)
    c0s = ctx.elements() if n == 5 else [0, 1, 2, 3, 19, 55]
    for c0 in c0s:
        assert x8_parity_via_interpolation(ctx, c0) == 1
