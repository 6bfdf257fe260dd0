"""Criteria and structure checks for maps F(x) = L1(x^-1) + L2(x).

Everything here mechanizes one question: when is the sum of a
linearized map of the field inverse and a second linearized map a
permutation?  The exact criterion is Kloosterman-based:

    F is a permutation  <=>  K_n(L1*(b) L2*(b)) = 0 for every b,
                             and ker(L1*) meets ker(L2*) only in 0.

A cheaper necessary condition (n >= 4) replaces the zero test with the
mod-16 divisibility test Tr(R) = Q(R) = 0 for R(b) = L1*(b) L2*(b).

The coefficient-recurrence engine reproduces the contradiction that
rules out such permutations for n >= 5: normalizing to L1* = x^2 + x
forces L2*'s coefficient vector into a rigid pattern that is
inconsistent for even n and, for odd n, violates the quadratic-form
condition (the reduced polynomial acquires a nonzero x^8 coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .gf2n import FieldContext, span_table
from .kloosterman import divisible_by_16, kloosterman_all, qform_table
from .linmap import LinearizedPoly, kernels_intersect_trivially
from .vbf import TruthTable

__all__ = [
    "build_F",
    "perm_criterion_kloosterman",
    "necessary_mod16",
    "image_set_Ma",
    "ma_hyperplane_form",
    "quad_solvable",
    "hyperplane_union_size",
    "PairReport",
    "kernel_structure_check",
    "recurrence_coeffs",
    "ConditionReport",
    "verify_conditions",
    "x8_coefficient_parity",
    "x8_tuples",
    "x8_parity_via_interpolation",
]

# words per row array in one block of hyperplane_union_size (512 KB)
_UNION_WORDS = 1 << 16


def build_F(l1: LinearizedPoly, l2: LinearizedPoly) -> TruthTable:
    """Truth table of x -> l1(x^-1) + l2(x)."""
    l1.check_same_ctx(l2)
    ctx = l1.ctx
    return TruthTable(ctx, l1.table()[ctx.inv_table] ^ l2.table())


def _r_table(l1: LinearizedPoly, l2: LinearizedPoly) -> Optional[np.ndarray]:
    """R(b) = L1*(b) L2*(b) over all b, or None when the adjoint kernels
    meet outside 0 (then F is no permutation)."""
    l1.check_same_ctx(l2)
    l1s, l2s = l1.adjoint(), l2.adjoint()
    if not kernels_intersect_trivially(l1s, l2s):
        return None
    return l1.ctx.mul_vec(l1s.table(), l2s.table())


def perm_criterion_kloosterman(l1: LinearizedPoly, l2: LinearizedPoly) -> bool:
    """Exact permutation criterion via Kloosterman zeros of R(b)."""
    r = _r_table(l1, l2)
    return r is not None and bool(np.all(kloosterman_all(l1.ctx)[r] == 0))


def necessary_mod16(l1: LinearizedPoly, l2: LinearizedPoly) -> bool:
    """Necessary condition (n >= 4): Tr(R(a)) = Q(R(a)) = 0 for all a,
    plus trivially intersecting adjoint kernels.  Never sufficient."""
    ctx = l1.ctx
    if ctx.n < 4:
        raise ValueError("the mod-16 condition requires n >= 4")
    r = _r_table(l1, l2)
    return r is not None and bool(np.all(divisible_by_16(ctx, r)))


# -- image sets and hyperplane geometry ------------------------------------


def image_set_Ma(ctx: FieldContext, a: int) -> frozenset:
    """{x^-1 + (x+a)^-1 : x in the field} for a != 0, by enumeration."""
    if a == 0:
        raise ValueError("a must be nonzero")
    xs = np.arange(ctx.order)
    vals = ctx.inv_table ^ ctx.inv_table[xs ^ a]
    return frozenset(int(v) for v in vals)


def ma_hyperplane_form(ctx: FieldContext, a: int) -> frozenset:
    """The closed form 1/H_{1/a} union {a^-1} of the same image set."""
    if a == 0:
        raise ValueError("a must be nonzero")
    a_inv = ctx.inv0(a)
    inverted = {ctx.inv0(h) for h in ctx.hyperplane(a_inv) if h != 0}
    return frozenset(inverted | {a_inv})


def quad_solvable(ctx: FieldContext, a, b, c):
    """Solvability of a x^2 + b x + c = 0 with b != 0: Tr(ac / b^2) = 0.
    A bool for elements, a bool array for arrays (broadcast together).

    ac / b^2 is g^(log a + log c - 2 log b), or 0 when a or c is 0.
    """
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    if np.count_nonzero(b) < b.size:
        raise ValueError("b must be nonzero")
    log = ctx.log_table
    ac_b2 = ctx.exp_table[(log[a] + log[c] - 2 * log[b]) % (ctx.order - 1)]
    ok = (ctx.trace_table[ac_b2] == 0) | (a == 0) | (c == 0)
    return bool(ok) if ok.ndim == 0 else ok


def hyperplane_union_size(ctx: FieldContext, a, b, c):
    """Size of the union of the hyperplanes Tr(a x) = 0, Tr(b x) = 0 and
    Tr(c x) = 0: an int for elements, an array for equal-shape arrays.

    Tr(v x) is the parity of t[v] & x (t = trace_dual_table), so the
    packed row of the x outside H_v is the XOR of the bit planes of x
    that t[v] picks, read from the spans of the low and the high planes.
    The union misses the x in all three rows.  Triples go in blocks of
    at most _UNION_WORDS words per row array.
    """
    if not np.shape(a) == np.shape(b) == np.shape(c):
        raise ValueError("a, b and c must have the same shape")
    q, h = ctx.order, ctx.n // 2
    xs = np.arange(-(-q // 64) * 64)
    bits = (xs >> np.arange(ctx.n)[:, None]) & 1 & (xs < q)
    planes = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    low, high = span_table(planes[:h]), span_table(planes[h:])
    t = [ctx.trace_dual_table[np.reshape(v, -1)] for v in (a, b, c)]
    sizes = np.empty(t[0].size, dtype=np.int64)
    step = max(1, _UNION_WORDS // planes.shape[1])
    for lo in range(0, sizes.size, step):
        ra, rb, rc = (low[u & ((1 << h) - 1)] ^ high[u >> h] for u in (v[lo : lo + step] for v in t))
        sizes[lo : lo + step] = q - np.bitwise_count(ra & rb & rc).sum(axis=1, dtype=np.int64)
    sizes = sizes.reshape(np.shape(a))
    return int(sizes) if sizes.ndim == 0 else sizes


# -- pair structure report ---------------------------------------------------


@dataclass(frozen=True)
class PairReport:
    """Every flag the theory attaches to one (L1, L2) pair."""

    field_spec: str
    l1: str
    l2: str
    is_permutation: bool
    kloosterman_criterion: bool
    mod16_condition: Optional[bool]  # None when n < 4
    kernel_intersection_trivial: bool  # ker(L1*) vs ker(L2*)
    ker_l1_size: int
    ker_l2_size: int
    ker_l1_subfield: Optional[Tuple[int, int]]  # (a, k) with ker = a F_{2^k}
    ker_l2_subfield: Optional[Tuple[int, int]]
    transport_l1: bool  # ker(L1) == L2*(ker(L1*))
    transport_l2: bool  # ker(L2) == L1*(ker(L2*))
    l1_bijective: bool
    l2_bijective: bool
    bijective_part_note: Optional[str]
    criterion_consistent: bool  # kloosterman criterion == direct bijectivity

    def to_json_dict(self) -> dict:
        d = {
            "field": self.field_spec,
            "l1": self.l1,
            "l2": self.l2,
            "is_permutation": self.is_permutation,
            "kloosterman_criterion": self.kloosterman_criterion,
            "mod16_condition": self.mod16_condition,
            "kernel_intersection_trivial": self.kernel_intersection_trivial,
            "kernel_sizes": [self.ker_l1_size, self.ker_l2_size],
            "ker_l1_subfield": list(self.ker_l1_subfield) if self.ker_l1_subfield else None,
            "ker_l2_subfield": list(self.ker_l2_subfield) if self.ker_l2_subfield else None,
            "adjoint_kernel_transport": [self.transport_l1, self.transport_l2],
            "l1_bijective": self.l1_bijective,
            "l2_bijective": self.l2_bijective,
            "criterion_consistent": self.criterion_consistent,
        }
        if self.bijective_part_note:
            d["note"] = self.bijective_part_note
        return d


def kernel_structure_check(l1: LinearizedPoly, l2: LinearizedPoly) -> PairReport:
    """Populate every PairReport flag for one pair.

    Flags are computed unconditionally (also where the n >= 5 theory
    makes them vacuous) so the exceptional n = 3, 4 world is fully
    observable.
    """
    l1.check_same_ctx(l2)
    ctx = l1.ctx
    f = build_F(l1, l2)
    is_perm = f.is_permutation()
    crit = perm_criterion_kloosterman(l1, l2)
    mod16 = necessary_mod16(l1, l2) if ctx.n >= 4 else None
    l1s, l2s = l1.adjoint(), l2.adjoint()
    k1, k2 = l1.kernel(), l2.kernel()
    k1s, k2s = l1s.kernel(), l2s.kernel()
    transport_l1 = l2s.apply_to_subspace(k1s) == k1
    transport_l2 = l1s.apply_to_subspace(k2s) == k2
    l1_bij = k1.dim == 0
    l2_bij = k2.dim == 0
    note = None
    if (l1_bij or l2_bij) and ctx.n >= 5:
        note = (
            "a bijective component map rules the pair out for n >= 5 "
            "(reduction to the single-map form)"
        )
    return PairReport(
        field_spec=ctx.spec,
        l1=l1.to_text(),
        l2=l2.to_text(),
        is_permutation=is_perm,
        kloosterman_criterion=crit,
        mod16_condition=mod16,
        kernel_intersection_trivial=kernels_intersect_trivially(l1s, l2s),
        ker_l1_size=1 << k1.dim,
        ker_l2_size=1 << k2.dim,
        ker_l1_subfield=k1.is_subfield_translate(),
        ker_l2_subfield=k2.is_subfield_translate(),
        transport_l1=transport_l1,
        transport_l2=transport_l2,
        l1_bijective=l1_bij,
        l2_bijective=l2_bij,
        bijective_part_note=note,
        criterion_consistent=crit == is_perm,
    )


# -- the coefficient-recurrence engine ---------------------------------------


def recurrence_coeffs(ctx: FieldContext, c0: int) -> Optional[LinearizedPoly]:
    """The forced candidate L2* for L1* = x^2 + x and L2*(1) = 1.

    For odd n the coefficients are c_i = c0^(2^i) (i odd) and
    c0^(2^i) + 1 (i even), and the independent closing relation
    c_{n-1} = 1 + c0^(2^(n-1)) is consistent with that pattern.  For
    even n the two values of c_{n-1} differ by 1: no candidate exists
    and None is returned.
    """
    if ctx.n < 5:
        raise ValueError("the recurrence engine applies for n >= 5")
    ctx.check(c0)
    n = ctx.n
    closing = 1 ^ ctx.pow2k(c0, n - 1)
    if n % 2 == 0:
        # pattern value would be c0^(2^(n-1)) since n-1 is odd
        assert closing != ctx.pow2k(c0, n - 1)
        return None
    coeffs = [c0]
    for i in range(1, n):
        v = ctx.pow2k(c0, i)
        if i % 2 == 0:
            v ^= 1
        coeffs.append(v)
    assert coeffs[n - 1] == closing
    return LinearizedPoly(ctx, tuple(coeffs))


@dataclass(frozen=True)
class ConditionReport:
    """Exhaustive verdicts for the three normalized-pair conditions.

    a1: Tr((x^2+x) L2*(x)) = 0,  a2: Q((x^2+x) L2*(x)) = 0,
    a3: Q(x^2+x) + Tr((x^4+x^2) L2*(x)) = 0, each for all x.
    A None witness means the condition holds identically.
    """

    a1_holds: bool
    a2_holds: bool
    a3_holds: bool
    witness_a1: Optional[int]
    witness_a2: Optional[int]
    witness_a3: Optional[int]

    def bits(self) -> Tuple[int, int, int]:
        """0 = holds identically, 1 = violated somewhere."""
        return (int(not self.a1_holds), int(not self.a2_holds), int(not self.a3_holds))


def _first_violation(bits: np.ndarray) -> Optional[int]:
    idx = np.nonzero(bits)[0]
    return int(idx[0]) if idx.size else None


def verify_conditions(l2star: LinearizedPoly) -> ConditionReport:
    """Evaluate the three conditions at every point of the field."""
    ctx = l2star.ctx
    xs = np.arange(ctx.order)
    u = ctx.sqr_table ^ xs  # x^2 + x
    v = l2star.table()
    qt = qform_table(ctx)
    tr = ctx.trace_table
    uv = ctx.mul_vec(u, v)
    a1 = tr[uv]
    a2 = qt[uv]
    a3 = qt[u] ^ tr[ctx.mul_vec(ctx.sqr_table[u], v)]
    return ConditionReport(
        a1_holds=not a1.any(),
        a2_holds=not a2.any(),
        a3_holds=not a3.any(),
        witness_a1=_first_violation(a1),
        witness_a2=_first_violation(a2),
        witness_a3=_first_violation(a3),
    )


def _reduced_exponent(e: int, n: int) -> int:
    """Reduce x^e to its representative of degree < 2^n (e >= 1)."""
    return (e - 1) % ((1 << n) - 1) + 1


def x8_coefficient_parity(n: int) -> int:
    """GF(2) coefficient of x^8 in the expanded quadratic-form condition.

    Enumerates every term x^(2^i + 2^j + 2^r + 2^s) with r < s whose
    reduced exponent is 8, under the forced coefficient pattern where a
    term vanishes exactly when i = r or j = s.  The value 1 for odd
    n >= 5 is the contradiction closing the non-existence argument.
    """
    if n < 5:
        raise ValueError("the x^8 coefficient argument applies for n >= 5")
    return sum(value for _, value in x8_tuples(n)) % 2


def x8_tuples(n: int):
    """The qualifying (i, j, r, s) tuples and their 0/1 term values."""
    out = []
    for r in range(n):
        for s in range(r + 1, n):
            for i in range(n):
                for j in range(n):
                    e = (1 << i) + (1 << j) + (1 << r) + (1 << s)
                    if _reduced_exponent(e, n) == 8:
                        out.append(((i, j, r, s), 0 if (i == r or j == s) else 1))
    return out


def x8_parity_via_interpolation(ctx: FieldContext, c0: int) -> int:
    """Numeric oracle: interpolate the quadratic-form condition table.

    Builds the literal 0/1 table of x -> Q((x^2+x) L2*(x)) for the
    forced L2*, lifts it to field values, and reads the x^8 coefficient
    off the reduced interpolation polynomial.  Immune to index-shift
    mistakes in the symbolic expansion.
    """
    l2s = recurrence_coeffs(ctx, c0)
    if l2s is None:
        raise ValueError("no forced candidate exists for even n")
    xs = np.arange(ctx.order)
    u = ctx.sqr_table ^ xs
    bits = qform_table(ctx)[ctx.mul_vec(u, l2s.table())]
    table = TruthTable(ctx, bits.astype(np.int64))
    return int(table.interpolate()[8])
