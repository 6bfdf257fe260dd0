"""Field construction and arithmetic checks for GF(2^n)."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invperm.gf2n import (
    MAX_N,
    MIN_N,
    FieldContext,
    alternate_modulus,
    default_modulus,
    irreducible_polys,
    is_irreducible,
    make_field,
    parse_field_spec,
    span_table,
)


PINNED_DEFAULT_MODULI = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B, 9: 0x203,
    10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021, 15: 0x8003,
    16: 0x1002B,
}


def test_default_moduli_are_smallest_irreducibles():
    for n, m in PINNED_DEFAULT_MODULI.items():
        assert default_modulus(n) == m == next(irreducible_polys(n))
        assert is_irreducible(m)
        assert not any(is_irreducible(p) for p in range(1 << n, m))
        assert make_field(n).modulus == m
    for bad in (MIN_N - 1, MAX_N + 1):
        with pytest.raises(ValueError, match="out of range"):
            default_modulus(bad)


def test_make_field_default_n3():
    # smallest irreducible of degree 3 is x^3 + x + 1
    assert make_field(3).modulus == 0b1011


def test_make_field_explicit_modulus():
    ctx = make_field(4, 0b10011)
    assert ctx.n == 4 and ctx.modulus == 0b10011


def test_make_field_all_ones_quartic_is_irreducible():
    # x^4+x^3+x^2+x+1 has no roots and is not the square of x^2+x+1,
    # so the irreducibility oracle accepts it
    assert is_irreducible(0b11111)
    assert make_field(4, 0b11111).modulus == 0b11111


def test_irreducible_counts():
    # the number of irreducible binary polynomials of degree n = 1..10
    counts = [sum(1 for _ in irreducible_polys(n)) for n in range(1, 11)]
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]


def test_negative_modulus_is_rejected():
    # a negative int is no polynomial and is rejected; trial division on
    # one never ends, so the checks run in a child process with a timeout,
    # where a regression fails instead of hanging the suite
    code = (
        "from invperm.gf2n import is_irreducible, make_field\n"
        "assert is_irreducible(-37) is False\n"
        "try:\n"
        "    make_field(5, -37)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "modulus -0x25 does not have degree 5\n"


def test_make_field_rejects_reducible():
    with pytest.raises(ValueError, match="reducible"):
        make_field(4, 0b11001 ^ 0b1)  # x^4+x^3+x: divisible by x
    with pytest.raises(ValueError, match="reducible"):
        make_field(4, 0b10101)  # x^4+x^2+1 = (x^2+x+1)^2


def test_make_field_rejects_bad_degree_or_range():
    with pytest.raises(ValueError, match="out of range"):
        make_field(MIN_N - 1)
    with pytest.raises(ValueError, match="out of range"):
        make_field(MAX_N + 1)
    with pytest.raises(ValueError, match="degree"):
        make_field(4, 0b1011)


def test_parse_field_spec():
    assert parse_field_spec("5") == (5, None)
    assert parse_field_spec("5:0x25") == (5, 0x25)
    with pytest.raises(ValueError):
        parse_field_spec("x")


def test_mul_identities():
    ctx = make_field(5)
    for b in ctx.elements():
        assert ctx.mul(0, b) == 0
        assert ctx.mul(1, b) == b


def test_generator_order_in_gf8():
    # every generator g of GF(8)* satisfies g * g^6 = 1
    ctx = make_field(3)
    for g in range(2, 8):
        powers = {ctx.pow(g, e) for e in range(1, 8)}
        if len(powers) == 7:  # g generates
            assert ctx.mul(g, ctx.pow(g, 6)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_field_axioms_exhaustive(n):
    # associativity, commutativity and distributivity over every triple,
    # chunked along the first operand to keep memory flat
    ctx = make_field(n)
    m = ctx.mul_table
    xs = np.arange(ctx.order)
    assert np.array_equal(m, m.T)  # commutativity
    for a in range(ctx.order):
        assert np.array_equal(m[m[a]][:, xs], m[a][m])  # a(bc) == (ab)c
        assert np.array_equal(
            m[a][xs[:, None] ^ xs[None, :]], m[a][:, None] ^ m[a][None, :]
        )  # a(b+c) == ab + ac


def test_mul_matches_raw_schoolbook():
    for n in (3, 5, 8):
        ctx = make_field(n)
        rng = random.Random(n)
        for _ in range(500):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx.mul(a, b) == ctx._mul_raw(a, b)


@pytest.mark.parametrize("n", range(2, 13))
def test_inv0_involution_and_bijection(n):
    ctx = make_field(n)
    tab = ctx.inv_table
    assert tab[0] == 0 and tab[1] == 1
    assert np.array_equal(np.sort(tab), np.arange(ctx.order))  # bijection
    assert np.array_equal(tab[tab], np.arange(ctx.order))  # involution
    for a in range(1, min(ctx.order, 256)):
        assert ctx.mul(a, ctx.inv0(a)) == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_trace_properties(n):
    ctx = make_field(n)
    tr = ctx.trace_table
    assert tr[0] == 0
    assert tr[1] == n % 2
    assert int(np.sum(tr == 0)) == ctx.order // 2
    assert np.array_equal(tr[ctx.sqr_table], tr)  # Tr(a^2) = Tr(a), all a
    # additivity over every pair
    xs = np.arange(ctx.order)
    assert np.array_equal(tr[xs[:, None] ^ xs[None, :]], tr[:, None] ^ tr[None, :])


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_pow2k(n):
    ctx = make_field(n)
    for a in range(ctx.order):
        assert ctx.pow2k(a, 0) == a
        r = ctx.pow2k(a, n - 1)
        assert ctx.mul(r, r) == a  # square root
        x = a
        for _ in range(n):
            x = ctx.sqr(x)
        assert x == a  # Frobenius has order dividing n
    with pytest.raises(ValueError):
        ctx.pow2k(1, n)
    with pytest.raises(ValueError, match="negative exponent"):
        ctx.pow(2, -1)
    with pytest.raises(ValueError, match="e >= 1"):
        ctx.pow_vec([1, 2], 0)


def test_hyperplane_sizes_and_intersections():
    ctx = make_field(6)
    rng = random.Random(9)
    for _ in range(20):
        a = rng.randrange(1, ctx.order)
        b = rng.randrange(1, ctx.order)
        ha = ctx.hyperplane(a)
        assert len(ha) == ctx.order // 2
        assert 0 in ha
        if a != b:
            assert len(ha & ctx.hyperplane(b)) == ctx.order // 4
    # closed under xor
    ha = ctx.hyperplane(5)
    sample = random.Random(0).sample(sorted(ha), 12)
    for x in sample:
        for y in sample:
            assert (x ^ y) in ha
    with pytest.raises(ValueError):
        ctx.hyperplane(0)


def test_subfields():
    ctx = make_field(6)
    assert ctx.subfield_elements(1) == frozenset({0, 1})
    assert ctx.subfield_elements(6) == frozenset(range(64))
    sub = ctx.subfield_elements(2)
    assert len(sub) == 4
    for x in sub:
        if x:
            assert ctx.pow(x, 3) == 1
        for y in sub:
            assert ctx.mul(x, y) in sub
            assert (x ^ y) in sub
    with pytest.raises(ValueError):
        ctx.subfield_elements(4)


def test_alternate_modulus():
    assert alternate_modulus(2) is None
    for n in (3, 4, 5, 8):
        alt = alternate_modulus(n)
        assert alt is not None and alt != default_modulus(n)
        assert is_irreducible(alt)


def test_mul_vec_matches_scalar():
    ctx = make_field(7)
    rng = np.random.default_rng(5)
    a = rng.integers(0, ctx.order, 300)
    b = rng.integers(0, ctx.order, 300)
    got = ctx.mul_vec(a, b)
    assert all(int(g) == ctx.mul(int(x), int(y)) for g, x, y in zip(got, a, b))


def test_context_cache_and_pickle_roundtrip():
    import pickle

    ctx = make_field(5)
    assert make_field(5) is ctx
    assert pickle.loads(pickle.dumps(ctx)) is ctx


def loop_tables(ctx):
    """exp, log, trace and squaring tables by per-element loops of the
    shift-and-reduce product, independent of the XOR-span construction."""
    q = ctx.order
    exp = np.zeros(2 * q, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    v = 1
    for i in range(q - 1):
        exp[i] = v
        log[v] = i
        v = ctx._mul_raw(v, ctx.generator)
    exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
    tr = np.zeros(q, dtype=np.uint8)
    for a in range(q):
        t, x = 0, a
        for _ in range(ctx.n):
            t ^= x
            x = ctx._mul_raw(x, x)
        tr[a] = t
    sqr = np.array([ctx._mul_raw(a, a) for a in range(q)], dtype=np.int64)
    return exp, log, tr, sqr


@pytest.mark.parametrize(
    "n,alternate",
    # n = 2 has a single irreducible, so no alternate modulus
    [(n, alt) for n in range(2, 11) for alt in (False, True) if n > 2 or not alt],
)
def test_span_built_tables_match_loop_oracle(n, alternate):
    ctx = FieldContext(n, alternate_modulus(n) if alternate else None)
    built = (ctx.exp_table, ctx.log_table, ctx.trace_table, ctx.sqr_table)
    for got, want in zip(built, loop_tables(ctx)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_span_table_keeps_dtype_and_trailing_dims():
    images = np.array([[1, 2], [4, 8], [16, 32]], dtype=np.uint8)
    tab = span_table(images)
    assert tab.shape == (8, 2) and tab.dtype == np.uint8
    for m in range(8):
        want = np.zeros(2, dtype=np.uint8)
        for k in range(3):
            if (m >> k) & 1:
                want ^= images[k]
        assert np.array_equal(tab[m], want)


def test_top_of_range_n16():
    # the supported ceiling: construction is table-heavy but everything
    # downstream is table lookups
    ctx = make_field(16)
    assert ctx.modulus == 0x1002B
    assert ctx.mul(ctx.inv0(12345), 12345) == 1
    assert ctx.trace_table.shape == (1 << 16,)
    assert int((ctx.trace_table == 0).sum()) == 1 << 15


BOTH_MODULI = [(n, alt) for n in range(2, 17) for alt in (False, True) if n > 2 or not alt]


@pytest.mark.parametrize("n,alternate", BOTH_MODULI)
def test_trace_dual_table_meets_definition(n, alternate):
    ctx = make_field(n, alternate_modulus(n) if alternate else None)
    t = ctx.trace_dual_table
    if n <= 8:
        a, x = (v.ravel() for v in np.meshgrid(np.arange(ctx.order), np.arange(ctx.order)))
    else:
        rng = np.random.default_rng(n)
        a, x = rng.integers(0, ctx.order, size=(2, 4096))
    parity = np.bitwise_count(t[a] & x) & 1
    assert np.array_equal(parity, ctx.trace_table[ctx.mul_vec(a, x)])


@pytest.mark.parametrize("n,alternate", BOTH_MODULI)
def test_trace_dual_basis(n, alternate):
    ctx = make_field(n, alternate_modulus(n) if alternate else None)
    t = ctx.trace_dual_table
    assert np.array_equal(np.sort(t), np.arange(ctx.order))  # a permutation
    theta = ctx.trace_dual_basis
    assert [int(t[a]) for a in theta] == [1 << j for j in range(n)]
    for j in range(n):
        assert [ctx.trace(ctx.mul(theta[j], 1 << k)) for k in range(n)] == [
            int(j == k) for k in range(n)
        ]


def test_field_tables_are_cached_and_read_only():
    ctx = FieldContext(6)
    for name in ("pow2k_table", "trace_dual_table", "mul_table"):
        table = getattr(ctx, name)
        assert getattr(ctx, name) is table
        assert not table.flags.writeable
    assert isinstance(ctx.trace_dual_basis, tuple)
    with pytest.raises(ValueError, match="n <= 8"):
        FieldContext(9).mul_table
    # every table the context holds, eager or cached, rejects in-place writes
    tables = {name: v for name, v in vars(ctx).items() if isinstance(v, np.ndarray)}
    assert {"exp_table", "log_table", "inv_table", "sqr_table", "trace_table",
            "pow2k_table", "trace_dual_table", "mul_table"} <= set(tables)
    for name, table in tables.items():
        assert not table.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            table.flat[1] = 0


def _order(ctx, g):
    """Multiplicative order of g != 0 by repeated shift-and-reduce products."""
    k, v = 1, g
    while v != 1:
        k, v = k + 1, ctx._mul_raw(v, g)
    return k


@pytest.mark.parametrize("n", range(2, 13))
def test_generator_is_smallest_primitive_element(n):
    # the first 8 moduli include fields whose smallest generator is 3, 6,
    # 7 and 13 (n = 8 at 0x11b; the 4th modulus at n = 12)
    for modulus in itertools.islice(irreducible_polys(n), 8):
        ctx = FieldContext(n, modulus)
        assert _order(ctx, ctx.generator) == ctx.order - 1
        assert all(_order(ctx, g) < ctx.order - 1 for g in range(2, ctx.generator))
