"""Linearized polynomial, adjoint, kernel and subspace checks."""

import random

import numpy as np
import pytest

from invperm import gf2mat
from invperm.gf2n import alternate_modulus, make_field
from invperm.linmap import (
    LinearizedPoly,
    Subspace,
    kernels_intersect_trivially,
)


def test_eval_basics():
    ctx = make_field(5)
    ident = LinearizedPoly.identity(ctx)
    frob = LinearizedPoly.frobenius(ctx, 1)
    l = LinearizedPoly.random(ctx, random.Random(1))
    for x in ctx.elements():
        assert ident(x) == x
        assert frob(x) == ctx.sqr(x)
    assert l(0) == 0


@pytest.mark.parametrize("n", [3, 4, 6, 8, 10])
def test_gf2_linearity_exhaustive(n):
    ctx = make_field(n)
    l = LinearizedPoly.random(ctx, random.Random(n))
    tab = l.table()
    xs = np.arange(ctx.order)
    rng = random.Random(n + 1)
    pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(500)]
    for x, y in pairs:
        assert tab[x ^ y] == tab[x] ^ tab[y]
    assert np.array_equal(tab[xs], tab)  # table covers every input


def test_table_matches_pointwise_eval():
    ctx = make_field(6)
    l = LinearizedPoly.random(ctx, random.Random(2))
    tab = l.table()
    for x in ctx.elements():
        assert int(tab[x]) == l(x)


@pytest.mark.parametrize("n", range(2, 11))
def test_basis_images_match_pointwise_eval(n):
    # table, matrix and image share one vectorized step; __call__ is the oracle
    for modulus in {None, alternate_modulus(n)}:
        ctx = make_field(n, modulus)
        rng = random.Random(n)
        # the step reads the nonzero coefficients only: the zero map and the
        # single-term maps c x^(2^i) (every c at n <= 4) are its edge cases
        scalars = range(1, ctx.order) if n <= 4 else (1, rng.randrange(2, ctx.mask), ctx.mask)
        edges = [LinearizedPoly.frobenius(ctx, i, c) for i in range(n) for c in scalars]
        for l in [LinearizedPoly.zero(ctx), *edges]:
            assert l.table().tolist() == [l(x) for x in ctx.elements()]
        for _ in range(4):
            l = LinearizedPoly.random(ctx, rng)
            assert l.table().tolist() == [l(x) for x in ctx.elements()]
            cols = [l(1 << j) for j in range(n)]
            assert l.matrix() == [sum(((cols[j] >> i) & 1) << j for j in range(n)) for i in range(n)]
            assert l.image() == Subspace(ctx, cols)


def test_table_is_built_once_and_read_only():
    l = LinearizedPoly.random(make_field(5), random.Random(3))
    tab = l.table()
    assert l.table() is tab
    with pytest.raises(ValueError, match="read-only"):
        tab[0] = 1
    # the cache is no field: equality, hashing and the coefficients ignore it
    fresh = LinearizedPoly(l.ctx, l.coeffs)
    assert fresh == l and hash(fresh) == hash(l)


def test_coefficient_forms_give_equal_maps():
    ctx = make_field(3)
    forms = [[1, 0, 5], (1, 0, 5), np.array([1, 0, 5]), (np.uint8(1), np.int64(0), np.int32(5))]
    maps = [LinearizedPoly(ctx, c) for c in forms]
    assert all(m == maps[0] and hash(m) == hash(maps[0]) for m in maps)
    assert all(m.coeffs == (1, 0, 5) and {type(c) for c in m.coeffs} == {int} for m in maps)
    with pytest.raises(TypeError):
        LinearizedPoly(ctx, (1.0, 0, 5))


def test_adjoint_formula_examples():
    for n in (3, 5, 8):
        ctx = make_field(n)
        ident = LinearizedPoly.identity(ctx)
        assert ident.adjoint() == ident
        # adjoint of x^2 is x^(2^(n-1))
        assert LinearizedPoly.frobenius(ctx, 1).adjoint() == LinearizedPoly.frobenius(
            ctx, n - 1
        )
        # adjoint of x^2+x is x^(2^(n-1))+x and vice versa
        sq_plus_x = LinearizedPoly(ctx, (1, 1) + (0,) * (n - 2))
        expect = [0] * n
        expect[0] = 1
        expect[n - 1] = 1
        assert sq_plus_x.adjoint() == LinearizedPoly(ctx, tuple(expect))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_adjoint_duality_exhaustive(n):
    # Tr(L(x) y) == Tr(x L*(y)) over every (x, y) pair
    ctx = make_field(n)
    rng = random.Random(10 * n)
    tr = ctx.trace_table
    ys = np.arange(ctx.order)
    for _ in range(10):
        l = LinearizedPoly.random(ctx, rng)
        ls = l.adjoint()
        assert ls.adjoint() == l
        ltab, lstab = l.table(), ls.table()
        lhs = tr[ctx.mul_vec(ltab[:, None], ys[None, :])]
        rhs = tr[ctx.mul_vec(ys[:, None], lstab[None, :])]
        assert np.array_equal(lhs, rhs)


def test_adjoint_duality_random_n12():
    ctx = make_field(12)
    rng = random.Random(120)
    l = LinearizedPoly.random(ctx, rng)
    ls = l.adjoint()
    ltab, lstab = l.table(), ls.table()
    for _ in range(500):
        x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.trace(ctx.mul(int(ltab[x]), y)) == ctx.trace(
            ctx.mul(x, int(lstab[y]))
        )


def test_kernel_examples():
    ctx = make_field(4)
    assert LinearizedPoly.identity(ctx).kernel().elements() == [0]
    sq_plus_x = LinearizedPoly(ctx, (1, 1, 0, 0))
    assert sq_plus_x.kernel().elements() == [0, 1]
    assert sq_plus_x.rank() == ctx.n - 1


def test_kernel_dim_equals_adjoint_kernel_dim():
    # rank-nullity makes equal ranks cover both halves (kernel and image)
    ctx = make_field(8)
    rng = random.Random(99)
    for _ in range(10_000):
        l = LinearizedPoly.random(ctx, rng)
        assert l.rank() == l.adjoint().rank()


def test_image_dim_equals_adjoint_image_dim():
    ctx = make_field(6)
    rng = random.Random(4)
    for _ in range(300):
        l = LinearizedPoly.random(ctx, rng)
        assert l.image().dim == l.adjoint().image().dim
        assert l.image().dim + l.kernel().dim == ctx.n


def test_kernel_matches_exhaustive_scan():
    for n in (3, 4, 5, 6):
        ctx = make_field(n)
        rng = random.Random(n)
        for _ in range(30):
            l = LinearizedPoly.random(ctx, rng)
            tab = l.table()
            brute = sorted(int(x) for x in np.nonzero(tab == 0)[0])
            assert l.kernel().elements() == brute


def test_matrix_functoriality():
    ctx = make_field(5)
    rng = random.Random(21)
    for _ in range(50):
        l = LinearizedPoly.random(ctx, rng)
        m = LinearizedPoly.random(ctx, rng)
        comp = l.compose(m)
        for x in range(ctx.order):
            assert comp(x) == l(m(x))
        assert comp.matrix() == gf2mat.matmul(l.matrix(), m.matrix())
        assert (l + m).table().tolist() == (l.table() ^ m.table()).tolist()


def fields(top=16):
    """Every GF(2^n) with 2 <= n <= top, at the default and, for n > 2,
    the alternate modulus."""
    for n in range(2, top + 1):
        yield make_field(n)
        if n > 2:
            yield make_field(n, alternate_modulus(n))


def test_from_matrix_roundtrip():
    for ctx in fields():
        n = ctx.n
        rng = random.Random(n * 7 + ctx.modulus)
        for t in range(12):
            l = LinearizedPoly.random(ctx, rng)
            assert LinearizedPoly.from_matrix(ctx, l.matrix()) == l
            rows = [rng.getrandbits(n) for _ in range(n)]
            if t % 3 == 0:  # singular: a zero row or a repeated row
                rows[rng.randrange(n)] = rows[rng.randrange(n)] if t % 2 else 0
            assert LinearizedPoly.from_matrix(ctx, rows).matrix() == rows


def test_text_roundtrip():
    ctx = make_field(4)
    l = LinearizedPoly(ctx, (0xA, 0x3, 0x0, 0xF))
    assert LinearizedPoly.from_text(ctx, l.to_text()) == l
    assert l.to_text() == "a,3,0,f"


def test_subspace_canonical_equality_and_membership():
    ctx = make_field(6)
    rng = random.Random(31)
    for _ in range(50):
        vecs = [rng.randrange(ctx.order) for _ in range(3)]
        s1 = Subspace(ctx, vecs)
        # same span, different generating set
        mixed = [vecs[0] ^ vecs[1], vecs[1], vecs[2] ^ vecs[0]] + vecs
        s2 = Subspace(ctx, mixed)
        assert s1 == s2
        assert hash(s1) == hash(s2)
        span = s1.elements()
        assert len(span) == len(s1)
        for x in span:
            assert x in s1
        outside = [x for x in range(ctx.order) if x not in set(span)]
        for x in outside[:20]:
            assert x not in s1


def test_subspace_intersection():
    ctx = make_field(6)
    rng = random.Random(41)
    for _ in range(50):
        a = Subspace(ctx, [rng.randrange(64) for _ in range(3)])
        b = Subspace(ctx, [rng.randrange(64) for _ in range(3)])
        inter = a.intersection(b)
        brute = sorted(set(a.elements()) & set(b.elements()))
        assert inter.elements() == brute
    for ctx in fields(8):  # every dimension from 0 to n
        for _ in range(30):
            a, b = (
                Subspace(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(ctx.n + 1))])
                for _ in range(2)
            )
            assert a.intersection(b).elements() == sorted(set(a.elements()) & set(b.elements()))


def test_apply_to_subspace():
    ctx = make_field(5)
    rng = random.Random(51)
    ident = LinearizedPoly.identity(ctx)
    for _ in range(30):
        s = Subspace(ctx, [rng.randrange(32) for _ in range(2)])
        l = LinearizedPoly.random(ctx, rng)
        assert ident.apply_to_subspace(s) == s
        img = l.apply_to_subspace(s)
        brute = sorted({l(x) for x in s.elements()})
        assert img.elements() == brute
    assert l.apply_to_subspace(Subspace(ctx, ())).elements() == [0]


def test_subfield_translate_detection():
    ctx = make_field(4)
    # F_2 itself
    assert Subspace(ctx, [1]).is_subfield_translate() == (1, 1)
    # g * F_4 inside GF(16): F_4 = {0,1,w,w^2} with w of order 3
    f4 = sorted(ctx.subfield_elements(2))
    g = ctx.generator
    coset = Subspace(ctx, [ctx.mul(g, x) for x in f4])
    hit = coset.is_subfield_translate()
    assert hit is not None and hit[1] == 2
    a, k = hit
    assert frozenset(ctx.mul(a, x) for x in ctx.subfield_elements(k)) == frozenset(
        coset.elements()
    )
    # span{1, g} is not multiplicatively closed after descaling
    assert Subspace(ctx, [1, g]).is_subfield_translate() is None


def _subfield_translate_by_search(space):
    """Oracle of Subspace.is_subfield_translate: every nonzero member is
    tried as the scale, smallest first."""
    ctx, k = space.ctx, space.dim
    if k < 1 or ctx.n % k != 0:
        return None
    span = space.elements()
    for s in span[1:]:
        if frozenset(ctx.mul(ctx.inv0(s), x) for x in span) == ctx.subfield_elements(k):
            return (s, k)
    return None


@pytest.mark.parametrize("n", range(2, 9))
def test_subfield_translate_matches_search(n):
    # random subspaces of every dimension and scaled subfields a * F_{2^k}
    # (every k | n), at the default and the alternate modulus
    rng = random.Random(n)
    moduli = dict.fromkeys([None, alternate_modulus(n)])
    translates = 0
    for modulus in moduli:
        ctx = make_field(n, modulus)
        spaces = [
            Subspace(ctx, [rng.randrange(ctx.order) for _ in range(dim)])
            for dim in range(n + 1)
            for _ in range(12)
        ]
        for k in (k for k in range(1, n + 1) if n % k == 0):
            sub = sorted(ctx.subfield_elements(k))
            for _ in range(12):
                a = rng.randrange(1, ctx.order)
                spaces.append(Subspace(ctx, [ctx.mul(a, x) for x in sub]))
        for space in spaces:
            want = _subfield_translate_by_search(space)
            assert space.is_subfield_translate() == want
            translates += want is not None
    assert translates >= 12 * len(moduli)


def test_kernels_intersect_trivially():
    ctx = make_field(5)
    rng = random.Random(61)
    for _ in range(100):
        l1 = LinearizedPoly.random(ctx, rng)
        l2 = LinearizedPoly.random(ctx, rng)
        got = kernels_intersect_trivially(l1, l2)
        brute = l1.kernel().intersection(l2.kernel()).dim == 0
        assert got == brute


def test_context_mismatch_raises():
    a = make_field(4)
    b = make_field(5)
    with pytest.raises(ValueError, match="context mismatch"):
        LinearizedPoly.identity(a).compose(LinearizedPoly.identity(b))
    with pytest.raises(ValueError, match="context mismatch"):
        LinearizedPoly.identity(a).apply_to_subspace(Subspace(b, ()))
    with pytest.raises(ValueError, match="context mismatch"):
        Subspace(a, ()).intersection(Subspace(b, ()))
