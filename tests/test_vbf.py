"""Truth-table analytics: spectra, interpolation, equivalence witnesses."""

import random

import numpy as np
import pytest

from invperm.gf2n import make_field
from invperm.linmap import LinearizedPoly
from invperm.vbf import (
    AffineMap,
    AffineMapProduct,
    TruthTable,
    check_ccz_witness,
    check_ea_witness,
    ea_to_ccz,
    power_ccz_equivalent,
)


def test_is_permutation():
    ctx = make_field(5)
    assert TruthTable.identity(ctx).is_permutation()
    assert not TruthTable(ctx, [0] * ctx.order).is_permutation()
    assert TruthTable.inverse_map(ctx).is_permutation()


def test_differential_uniformity_known_maps():
    # cube map is APN whenever gcd(1, n) = 1; inverse map is APN for odd n
    assert TruthTable.from_exponent(make_field(5), 3).differential_uniformity() == 2
    assert TruthTable.inverse_map(make_field(5)).differential_uniformity() == 2
    assert TruthTable.inverse_map(make_field(4)).differential_uniformity() == 4


def test_differential_spectrum_total():
    ctx = make_field(4)
    f = TruthTable.from_exponent(ctx, 3)
    spec = f.differential_spectrum()
    q = ctx.order
    assert sum(spec.values()) == (q - 1) * q
    # every difference equation over a fixed a has 2^n solutions in total
    assert sum(v * c for v, c in spec.items()) == (q - 1) * q
    assert all(v % 2 == 0 for v in spec)  # solution counts come in pairs


def test_walsh_constant_function():
    ctx = make_field(4)
    spec = TruthTable(ctx, [0] * ctx.order).walsh_spectrum()
    assert set(spec) == {0, 16}
    assert spec[16] == ctx.order - 1  # only a = 0 survives, for each b != 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_walsh_parseval(n):
    ctx = make_field(n)
    f = TruthTable.from_exponent(ctx, 3)
    w = f.walsh_matrix()
    for b in range(1, ctx.order):
        assert int(np.sum(w[b] ** 2)) == ctx.order**2


@pytest.mark.parametrize("n", range(3, 9))
def test_walsh_fast_equals_direct(n):
    ctx = make_field(n)
    rng = np.random.default_rng(n)
    f = TruthTable(ctx, rng.permutation(ctx.order))
    assert np.array_equal(f.walsh_matrix("fast"), f.walsh_matrix("direct"))


def test_walsh_single_value_against_literal_sum():
    ctx = make_field(4)
    rng = random.Random(8)
    f = TruthTable(ctx, [rng.randrange(16) for _ in range(16)])
    w = f.walsh_matrix()
    for _ in range(40):
        a = rng.randrange(16)
        b = rng.randrange(16)
        lit = sum(
            (-1) ** (ctx.trace(ctx.mul(b, f[x])) ^ ctx.trace(ctx.mul(a, x)))
            for x in range(16)
        )
        assert w[b][a] == lit


def test_truth_table_copies_its_values():
    # the table freezes its own copy, never the caller's array
    ctx = make_field(5)
    a = np.arange(32)
    table = TruthTable(ctx, a)
    a[0] = 1
    assert table.values[0] == 0
    with pytest.raises(ValueError, match="read-only"):
        table.values[0] = 1


def test_walsh_spectrum_affine_invariance():
    ctx = make_field(5)
    rng = random.Random(123)
    f = TruthTable.inverse_map(ctx)
    for _ in range(5):
        a1 = AffineMap.random(ctx, rng, bijective=True)
        a2 = AffineMap.random(ctx, rng, bijective=True)
        t1, t2 = a1.table(), a2.table()
        g = TruthTable(ctx, t1[f.values[t2]])
        assert g.walsh_spectrum() == f.walsh_spectrum()
        assert g.differential_spectrum() == f.differential_spectrum()


def test_interpolate_identity_and_constant():
    ctx = make_field(4)
    coeffs = TruthTable.identity(ctx).interpolate()
    assert coeffs[1] == 1 and np.count_nonzero(coeffs) == 1
    coeffs = TruthTable(ctx, [7] * ctx.order).interpolate()
    assert coeffs[0] == 7 and np.count_nonzero(coeffs) == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_interpolate_roundtrip_random(n):
    ctx = make_field(n)
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        f = TruthTable(ctx, rng.integers(0, ctx.order, ctx.order))
        coeffs = f.interpolate()
        assert np.array_equal(f.evaluate_poly(coeffs), f.values)


def test_interpolate_roundtrip_spot_n12():
    ctx = make_field(12)
    rng = np.random.default_rng(5)
    l = LinearizedPoly.random(ctx, random.Random(5))
    f = TruthTable(ctx, l.table())
    coeffs = f.interpolate()
    xs = rng.integers(0, ctx.order, 50)
    evals = f.evaluate_poly(coeffs)
    assert all(evals[x] == f[int(x)] for x in xs)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_interpolate_linearized_supports(n):
    ctx = make_field(n)
    rng = random.Random(n * 3)
    for _ in range(10):
        l = LinearizedPoly.random(ctx, rng)
        coeffs = TruthTable(ctx, l.table()).interpolate()
        support = {int(j) for j in np.nonzero(coeffs)[0]}
        assert support <= {1 << i for i in range(n)}
        for i in range(n):
            assert coeffs[1 << i] == l.coeffs[i]


def test_ccz_identity_witness():
    ctx = make_field(4)
    f = TruthTable.from_exponent(ctx, 3)
    assert check_ccz_witness(f, f, AffineMapProduct.identity(ctx))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ccz_swap_maps_graph_to_inverse(n):
    ctx = make_field(n)
    rng = np.random.default_rng(n)
    perm = rng.permutation(ctx.order)
    f = TruthTable(ctx, perm)
    finv = TruthTable(ctx, np.argsort(perm))
    assert check_ccz_witness(f, finv, AffineMapProduct.swap(ctx))
    # the inverse map is an involution, so swap fixes its graph
    inv = TruthTable.inverse_map(ctx)
    assert check_ccz_witness(inv, inv, AffineMapProduct.swap(ctx))


def test_ccz_rejects_non_invertible():
    ctx = make_field(3)
    f = TruthTable.identity(ctx)
    bad = AffineMapProduct(ctx, [0] * 6)
    with pytest.raises(ValueError, match="invertible"):
        check_ccz_witness(f, f, bad)
    with pytest.raises(ValueError, match="2n x 2n"):
        AffineMapProduct(ctx, [0] * 5)
    with pytest.raises(ValueError, match="context mismatch"):
        check_ccz_witness(f, TruthTable.identity(make_field(4)), AffineMapProduct.identity(ctx))
    ident, zero = AffineMap.identity(ctx), AffineMap.zero(ctx)
    with pytest.raises(ValueError, match="inner map must be bijective"):
        ea_to_ccz(ident, zero, zero)


def test_ea_witness_rejects_bad_input():
    ctx = make_field(3)
    f = TruthTable.identity(ctx)
    ident, zero = AffineMap.identity(ctx), AffineMap.zero(ctx)
    with pytest.raises(ValueError, match="context mismatch"):
        check_ea_witness(f, TruthTable.identity(make_field(4)), ident, ident, zero)
    with pytest.raises(ValueError, match="must be bijective"):
        check_ea_witness(f, f, zero, ident, zero)


def test_ea_witness_and_induced_ccz():
    ctx = make_field(5)
    rng = random.Random(17)
    f = TruthTable.inverse_map(ctx)
    ident = AffineMap.identity(ctx)
    zero = AffineMap.zero(ctx)
    assert check_ea_witness(f, f, ident, ident, zero)
    for _ in range(10):
        a1 = AffineMap.random(ctx, rng, bijective=True)
        a2 = AffineMap.random(ctx, rng, bijective=True)
        a3 = AffineMap.random(ctx, rng)
        t1, t2, t3 = a1.table(), a2.table(), a3.table()
        g = TruthTable(ctx, t1[f.values[t2]] ^ t3)
        assert check_ea_witness(f, g, a1, a2, a3)
        # an affine-triple witness induces a block product-space witness
        assert check_ccz_witness(f, g, ea_to_ccz(a1, a2, a3))


def test_ea_witness_additive_l():
    ctx = make_field(4)
    rng = random.Random(3)
    f = TruthTable.from_exponent(ctx, 3)
    l = LinearizedPoly.random(ctx, rng)
    g = TruthTable(ctx, f.values ^ l.table())
    assert check_ea_witness(
        f, g, AffineMap.identity(ctx), AffineMap.identity(ctx), AffineMap(l, 0)
    )


def test_power_ccz_equivalent():
    assert power_ccz_equivalent(3, 3, 5)
    assert power_ccz_equivalent(6, 3, 5)  # doubling is a cyclotomic shift
    assert power_ccz_equivalent(2**5 - 2, 2**5 - 2, 5)
    # Gold exponent 3 vs the inverse exponent on GF(32): inequivalent
    assert not power_ccz_equivalent(3, 2**5 - 2, 5)
    with pytest.raises(ValueError, match="exponents must lie"):
        power_ccz_equivalent(0, 1, 3)
    # oracle: direct scan over both congruences
    def brute(k, l, n):
        group = (1 << n) - 1
        return any(
            k % group == (l << i) % group or (k * l) % group == (1 << i) % group
            for i in range(n)
        )

    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(3, 8)
        k = rng.randrange(1, (1 << n) - 1)
        l = rng.randrange(1, (1 << n) - 1)
        assert power_ccz_equivalent(k, l, n) == brute(k, l, n)


def test_truth_table_file_roundtrip(tmp_path):
    ctx = make_field(5, 0x29)
    rng = np.random.default_rng(2)
    f = TruthTable(ctx, rng.integers(0, 32, 32))
    p = tmp_path / "table.txt"
    f.save(p)
    g = TruthTable.load(p)
    assert g.ctx is ctx
    assert g == f
    assert hash(g) == hash(f)
    assert p.read_text().splitlines()[0] == "5:0x29"


@pytest.mark.parametrize(
    "values, match", [(["0"] * 15, "exactly 16 values"), (["0"] * 15 + ["1f"], "range")]
)
def test_truth_table_load_rejects_bad_file(tmp_path, values, match):
    p = tmp_path / "table.txt"
    p.write_text("\n".join(["4", *values]) + "\n")
    with pytest.raises(ValueError, match=match):
        TruthTable.load(p)


def test_truth_table_validation():
    ctx = make_field(3)
    with pytest.raises(ValueError, match="exactly"):
        TruthTable(ctx, [0] * 7)
    with pytest.raises(ValueError, match="range"):
        TruthTable(ctx, [9] * 8)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        TruthTable.from_exponent(ctx, 0)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        TruthTable.identity(ctx).walsh_matrix("bogus")
