"""Kloosterman sums, the quadratic/bilinear forms, and the zero census."""

from collections import Counter

import numpy as np
import pytest

from invperm import kloosterman
from invperm.gf2n import alternate_modulus, default_modulus, make_field
from invperm.kloosterman import (
    bform,
    divisible_by_16,
    kloosterman_all,
    kloosterman_sum,
    kloosterman_sums,
    kloosterman_zeros,
    qform,
    qform_table,
)

BOTH_MODULI = [
    (n, m) for n in range(2, 17) for m in (default_modulus(n), alternate_modulus(n)) if m is not None
]


def naive_kloosterman(ctx, a):
    return sum(
        (-1) ** (ctx.trace(ctx.inv0(x) ^ ctx.mul(a, x))) for x in ctx.elements()
    )


def test_k_at_zero_is_zero():
    for n in (3, 4, 5, 8):
        assert kloosterman_sum(make_field(n), 0) == 0


def test_k_gf8_frozen_values():
    # frozen from the literal 8-term sums over GF(8) with modulus 0xb
    ctx = make_field(3)
    assert kloosterman_sum(ctx, 1) == -4
    assert [kloosterman_sum(ctx, a) for a in range(8)] == [0, -4, 0, 4, 0, 4, 0, 4]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_fast_transform_matches_direct(n):
    ctx = make_field(n)
    ks = kloosterman_all(ctx)
    for a in range(ctx.order):
        assert int(ks[a]) == naive_kloosterman(ctx, a)


@pytest.mark.parametrize("n", range(3, 13))
def test_weil_bound_and_evenness(n):
    # magnitude bound from standard character-sum theory (not a claim
    # under verification here, just a sanity invariant); the classical
    # bound covers the sum over nonzero x, which is K(a) - 1 under the
    # 0^-1 = 0 convention
    ctx = make_field(n)
    ks = kloosterman_all(ctx)
    assert int(np.abs(ks - 1).max()) <= 2 ** (n / 2 + 1)
    assert not np.any(ks % 2)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_kloosterman_multiset_is_modulus_invariant(n):
    a = make_field(n)
    b = make_field(n, alternate_modulus(n))
    assert Counter(map(int, kloosterman_all(a))) == Counter(map(int, kloosterman_all(b)))


def qform_double_loop(ctx):
    """Q(x) for every x by the defining double sum, one product per pair i < j."""
    pw = ctx.pow2k_table
    acc = np.zeros(ctx.order, dtype=np.int64)
    for i in range(ctx.n):
        for j in range(i + 1, ctx.n):
            acc ^= ctx.mul_vec(pw[i], pw[j])
    return acc


@pytest.mark.parametrize("n,modulus", BOTH_MODULI)
def test_qform_table_matches_double_loop(n, modulus):
    ctx = make_field(n, modulus)
    assert np.array_equal(qform_table(ctx), qform_double_loop(ctx))


def test_qform_basics():
    for n in (3, 4, 5, 6, 8):
        ctx = make_field(n)
        assert qform(ctx, 0) == 0
        assert qform(ctx, 1) == (n * (n - 1) // 2) % 2
        qt = qform_table(ctx)
        assert np.array_equal(qt[ctx.sqr_table], qt)  # Q(x^2) = Q(x)


def test_qform_against_pointwise_definition():
    for n in (3, 5, 6):
        ctx = make_field(n)
        for x in ctx.elements():
            acc = 0
            for i in range(n):
                for j in range(i + 1, n):
                    acc ^= ctx.mul(ctx.pow2k(x, i), ctx.pow2k(x, j))
            assert acc == qform(ctx, x)


def test_bform_basics():
    ctx = make_field(6)
    for x in ctx.elements():
        assert bform(ctx, x, x) == 0
        assert bform(ctx, x, 0) == 0


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_bform_is_polarization_of_qform(n):
    ctx = make_field(n)
    qt = qform_table(ctx)
    xs = np.arange(ctx.order)
    for x in ctx.elements():
        lhs = qt[x] ^ qt[xs] ^ qt[x ^ xs]
        rhs = ctx.trace_table[ctx.mul_vec(x, xs)] ^ (
            ctx.trace_table[x] & ctx.trace_table[xs]
        )
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("n", range(4, 13))
def test_mod16_iff_trace_and_qform(n):
    ctx = make_field(n)
    ks = kloosterman_all(ctx)
    qt = qform_table(ctx)
    by_theorem = (ctx.trace_table == 0) & (qt == 0)
    by_sum = ks % 16 == 0
    assert np.array_equal(by_theorem, by_sum)


def test_divisible_by_16_api():
    ctx = make_field(5)
    assert divisible_by_16(ctx, 0)
    for a in ctx.elements():
        if ctx.trace(a) == 1:
            assert not divisible_by_16(ctx, a)
    with pytest.raises(ValueError, match="n >= 4"):
        divisible_by_16(make_field(3), 1)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_divisible_by_16_array_matches_scalar(n):
    ctx = make_field(n)
    xs = np.arange(ctx.order)
    arr = divisible_by_16(ctx, xs)
    assert arr.dtype == bool and arr.shape == xs.shape
    for a in ctx.elements():
        got = divisible_by_16(ctx, a)
        assert type(got) is bool and got == arr[a]
    assert np.array_equal(divisible_by_16(ctx, xs.reshape(4, -1)), arr.reshape(4, -1))
    assert divisible_by_16(ctx, xs[:0]).shape == (0,)
    for bad in (-1, ctx.order):
        with pytest.raises(ValueError, match="out of range"):
            divisible_by_16(ctx, bad)
        with pytest.raises(ValueError, match="out of range"):
            divisible_by_16(ctx, np.array([1, bad]))
    with pytest.raises(ValueError, match="n >= 4"):
        divisible_by_16(make_field(3), np.arange(8))


@pytest.mark.parametrize("n", range(3, 13))
def test_census_zero_count_positive(n):
    census = kloosterman_zeros(make_field(n))
    assert census.zero_count >= 1
    assert 0 not in census.zeros
    assert census.k_at_zero_element == 0
    for z in census.zeros:
        assert kloosterman_sum(make_field(n), z) == 0


@pytest.mark.parametrize("n", range(5, 13))
def test_census_zeros_avoid_proper_subfields(n):
    census = kloosterman_zeros(make_field(n))
    assert all(len(v) == 0 for v in census.subfield_hits.values())


@pytest.mark.parametrize("n", range(3, 13))
def test_census_cross_modulus_invariance(n):
    a = kloosterman_zeros(make_field(n))
    b = kloosterman_zeros(make_field(n, alternate_modulus(n)))
    assert a.zero_count == b.zero_count


def test_census_agrees_with_transform_route():
    for n in (3, 4, 5, 6, 7, 8):
        ctx = make_field(n)
        census = kloosterman_zeros(ctx)
        ks = kloosterman_all(ctx)
        transform_zeros = [a for a in range(1, ctx.order) if ks[a] == 0]
        assert list(census.zeros) == transform_zeros


@pytest.mark.parametrize("n", range(2, 11))
def test_batched_sums_match_scalar_sums(n):
    ctx = make_field(n)
    ks = kloosterman_sums(ctx, np.arange(ctx.order))
    assert ks.tolist() == [kloosterman_sum(ctx, a) for a in ctx.elements()]


@pytest.mark.parametrize("n", [6, 7, 12])
def test_batched_sums_block_edges(n):
    # windows of one partial word (n = 6), two words (n = 7) and 64 words,
    # the last partial (n = 12).  One shuffled array over several blocks
    # holds 0 in two different blocks, every element whose log is 63 mod 64
    # (a window that starts at the last bit offset of a word) and g^(q-2),
    # whose window starts at the last term of the sequence.
    ctx = make_field(n)
    block = kloosterman._SUMS_BLOCK
    rng = np.random.default_rng(n)
    edges = ctx.exp_table[np.append(np.arange(63, ctx.order - 2, 64), ctx.order - 2)]
    avals = rng.permutation(np.concatenate([edges, rng.integers(1, ctx.order, size=2 * block)]))
    avals = np.insert(avals, [1, block], 0)
    assert avals.size > block
    assert len({i // block for i in np.flatnonzero(avals == 0)}) == 2
    assert kloosterman_sums(ctx, avals).tolist() == [kloosterman_sum(ctx, int(a)) for a in avals]


@pytest.mark.parametrize("n,modulus", BOTH_MODULI)
def test_batched_sums_match_transform(n, modulus):
    ctx = make_field(n, modulus)
    assert np.array_equal(kloosterman_sums(ctx, np.arange(1, ctx.order)), kloosterman_all(ctx)[1:])


def test_batched_sums_keep_order_and_reject_out_of_range():
    ctx = make_field(9)
    avals = np.array([5, 0, 511, 5, 17])
    assert kloosterman_sums(ctx, avals).tolist() == [kloosterman_sum(ctx, int(a)) for a in avals]
    assert kloosterman_sums(ctx, []).size == 0
    for bad in ([512], [3, -1]):
        with pytest.raises(ValueError, match="out of range"):
            kloosterman_sums(ctx, bad)


@pytest.mark.parametrize("n,modulus", [(n, m) for n, m in BOTH_MODULI if n >= 4])
def test_census_zero_set_is_exact(n, modulus):
    ctx = make_field(n, modulus)
    census = kloosterman_zeros(ctx)
    assert set(census.zeros) | {0} == set(np.flatnonzero(kloosterman_all(ctx) == 0).tolist())


def test_census_never_reads_the_transform(monkeypatch):
    fields = [make_field(n) for n in (4, 7, 10)]
    before = [kloosterman_zeros(ctx).zeros for ctx in fields]
    # a transform that calls every element a zero would change any census that read it
    monkeypatch.setattr(kloosterman, "kloosterman_all", lambda ctx: np.zeros(ctx.order, dtype=np.int64))
    assert [kloosterman_zeros(ctx).zeros for ctx in fields] == before


def test_census_json_and_dump():
    census = kloosterman_zeros(make_field(4))
    d = census.to_json_dict()
    assert d["field"] == "4:0x13"
    assert d["zero_count"] == len(d["zeros"])
