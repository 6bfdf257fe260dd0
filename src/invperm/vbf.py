"""Vectorial Boolean functions on GF(2^n) as exhaustive truth tables.

Provides permutation tests, differential and Walsh spectra, exact
univariate interpolation, and verification of graph-equivalence
witnesses (an affine bijection of the product space mapping one
function graph onto another) and of the affine-triple special case.

Graph points (x, y) are packed into 2n-bit ints as x | (y << n).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import gf2mat
from .gf2n import FieldContext, make_field, parse_field_spec, span_table
from .linmap import LinearizedPoly

__all__ = [
    "TruthTable",
    "AffineMap",
    "AffineMapProduct",
    "check_ccz_witness",
    "check_ea_witness",
    "ea_to_ccz",
    "power_ccz_equivalent",
    "walsh_transform_signs",
]


def walsh_transform_signs(signs: np.ndarray) -> np.ndarray:
    """In-place-style fast transform over the 2^m character group.

    Input: int array whose last axis has length 2^m.  Output w with
    w[..., u] = sum_x signs[..., x] * (-1)^popcount(u & x).
    """
    out = signs.astype(np.int64).copy()
    size = out.shape[-1]
    h = 1
    while h < size:
        shape = out.shape[:-1] + (size // (2 * h), 2, h)
        v = out.reshape(shape)
        a = v[..., 0, :].copy()
        b = v[..., 1, :].copy()
        v[..., 0, :] = a + b
        v[..., 1, :] = a - b
        h *= 2
    return out


class TruthTable:
    """A function F: GF(2^n) -> GF(2^n) as a length-2^n value table."""

    def __init__(self, ctx: FieldContext, values):
        vals = np.array(values, dtype=np.int64)  # a copy: the caller's array stays writable
        if vals.shape != (ctx.order,):
            raise ValueError(f"need exactly {ctx.order} values")
        if vals.min() < 0 or vals.max() > ctx.mask:
            raise ValueError("table entry out of field range")
        self.ctx = ctx
        self.values = vals
        self.values.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, ctx: FieldContext) -> "TruthTable":
        return cls(ctx, np.arange(ctx.order))

    @classmethod
    def inverse_map(cls, ctx: FieldContext) -> "TruthTable":
        return cls(ctx, ctx.inv_table)

    @classmethod
    def from_exponent(cls, ctx: FieldContext, d: int) -> "TruthTable":
        """The power map x -> x^d (d >= 1; 0 maps to 0)."""
        if d < 1:
            raise ValueError("exponent must be >= 1")
        return cls(ctx, ctx.pow_vec(np.arange(ctx.order), d))

    def __getitem__(self, x: int) -> int:
        return int(self.values[x])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.ctx == other.ctx
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.ctx, self.values.tobytes()))

    # -- basic predicates -------------------------------------------------

    def is_permutation(self) -> bool:
        """Bijectivity by occupancy scan."""
        seen = np.zeros(self.ctx.order, dtype=bool)
        seen[self.values] = True
        return bool(seen.all())

    # -- differential properties -------------------------------------------

    def differential_counts(self) -> np.ndarray:
        """ddt[a][b] = |{x : F(x) + F(x+a) = b}| for a >= 1."""
        q = self.ctx.order
        xs = np.arange(q)
        ddt = np.empty((q - 1, q), dtype=np.int64)
        for a in range(1, q):
            ddt[a - 1] = np.bincount(self.values ^ self.values[xs ^ a], minlength=q)
        return ddt

    def differential_uniformity(self) -> int:
        return int(self.differential_counts().max())

    def differential_spectrum(self) -> Counter:
        """Multiset of all (a != 0, b) solution counts, zeros included."""
        vals, cnts = np.unique(self.differential_counts(), return_counts=True)
        return Counter(dict(zip(map(int, vals), map(int, cnts))))

    # -- Walsh spectrum ------------------------------------------------------

    def walsh_matrix(self, method: str = "fast") -> np.ndarray:
        """w[b][a] = sum_x (-1)^(Tr(b F(x)) + Tr(a x)) for all a, b.

        The fast path is a length-2^n transform per output mask b; the
        direct path is a literal sign-matrix product kept as an oracle.
        """
        ctx = self.ctx
        q = ctx.order
        tr = ctx.trace_table
        bs = np.arange(q, dtype=np.int64)
        # signs[b][x] = (-1)^Tr(b F(x))
        signs = 1 - 2 * tr[ctx.mul_vec(bs[:, None], self.values[None, :])].astype(
            np.int64
        )
        if method == "fast":
            hat = walsh_transform_signs(signs)
            return hat[:, ctx.trace_dual_table]
        if method == "direct":
            chars = 1 - 2 * tr[ctx.mul_vec(bs[:, None], bs[None, :])].astype(np.int64)
            return signs @ chars.T
        raise ValueError(f"unknown method {method!r}")

    def walsh_spectrum(self) -> Counter:
        """Multiset of |W(a, b)| over all a and all b != 0.

        Magnitudes, not signed values: translations in an equivalence
        witness flip the sign of whole rows, so only the magnitude
        multiset is invariant.  Signed values are available from
        walsh_matrix.
        """
        w = np.abs(self.walsh_matrix()[1:])
        vals, cnts = np.unique(w, return_counts=True)
        return Counter(dict(zip(map(int, vals), map(int, cnts))))

    # -- univariate form ----------------------------------------------------

    def interpolate(self) -> np.ndarray:
        """Coefficients (a_0 ... a_{2^n - 1}) of the reduced polynomial.

        a_0 = F(0); a_j = sum_{x != 0} F(x) x^(-j) for interior j; the
        top coefficient is the full value sum.  Re-evaluating the result
        reproduces the table exactly.
        """
        ctx = self.ctx
        q = ctx.order
        group = q - 1
        logs = ctx.log_table[1:]  # log x for x = 1..q-1
        fvals = self.values[1:]
        coeffs = np.zeros(q, dtype=np.int64)
        coeffs[0] = self.values[0]
        coeffs[q - 1] = np.bitwise_xor.reduce(self.values)
        flog = ctx.log_table[fvals]
        nz = fvals != 0
        for j in range(1, q - 1):
            prod = ctx.exp_table[(flog + (group - (j * logs) % group)) % group]
            coeffs[j] = np.bitwise_xor.reduce(np.where(nz, prod, 0))
        return coeffs

    def evaluate_poly(self, coeffs: Sequence[int]) -> np.ndarray:
        """Evaluate a reduced univariate polynomial on every field element."""
        ctx = self.ctx
        xs = np.arange(ctx.order)
        out = np.zeros(ctx.order, dtype=np.int64)
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            if j == 0:
                out ^= c
            else:
                out ^= ctx.mul_vec(c, ctx.pow_vec(xs, j))
        return out

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.ctx.spec}\n")
            for v in self.values:
                fh.write(f"{int(v):x}\n")

    @classmethod
    def load(cls, path) -> "TruthTable":
        with open(path) as fh:
            header = fh.readline().strip()
            n, modulus = parse_field_spec(header)
            ctx = make_field(n, modulus)
            vals = [int(line, 16) for line in fh if line.strip()]
        return cls(ctx, vals)


@dataclass(frozen=True)
class AffineMap:
    """x -> linear(x) + c on the field."""

    linear: LinearizedPoly
    c: int = 0

    @property
    def ctx(self) -> FieldContext:
        return self.linear.ctx

    def table(self) -> np.ndarray:
        return self.linear.table() ^ self.c

    def is_bijective(self) -> bool:
        return self.linear.is_bijective()

    @classmethod
    def zero(cls, ctx: FieldContext) -> "AffineMap":
        return cls(LinearizedPoly.zero(ctx), 0)

    @classmethod
    def identity(cls, ctx: FieldContext) -> "AffineMap":
        return cls(LinearizedPoly.identity(ctx), 0)

    @classmethod
    def random(cls, ctx: FieldContext, rng, bijective: bool = False) -> "AffineMap":
        while True:
            m = cls(LinearizedPoly.random(ctx, rng), rng.randrange(ctx.order))
            if not bijective or m.is_bijective():
                return m


class AffineMapProduct:
    """Affine map on GF(2^n) x GF(2^n): z -> M z + t on packed 2n-bit points."""

    def __init__(self, ctx: FieldContext, rows: Sequence[int], translation: int = 0):
        if len(rows) != 2 * ctx.n:
            raise ValueError("linear part must be a 2n x 2n bit matrix")
        self.ctx = ctx
        self.rows = tuple(rows)
        self.translation = translation

    def is_invertible(self) -> bool:
        return gf2mat.is_invertible(list(self.rows), 2 * self.ctx.n)

    def tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Linear action split over the two halves: A(x, y) = ax[x] ^ ay[y] ^ t."""
        n = self.ctx.n
        images = np.array([gf2mat.mat_vec(self.rows, 1 << k) for k in range(2 * n)])
        return span_table(images[:n]), span_table(images[n:])

    @classmethod
    def identity(cls, ctx: FieldContext) -> "AffineMapProduct":
        return cls(ctx, gf2mat.identity(2 * ctx.n))

    @classmethod
    def swap(cls, ctx: FieldContext) -> "AffineMapProduct":
        """(x, y) -> (y, x)."""
        n = ctx.n
        rows = [1 << (n + i) for i in range(n)] + [1 << i for i in range(n)]
        return cls(ctx, rows)


def ea_to_ccz(a1: AffineMap, a2: AffineMap, a3: AffineMap) -> AffineMapProduct:
    """Product-space witness induced by an affine triple.

    Maps (x, F(x)) to (u, A1(F(A2(u))) + A3(u)) with u = A2^(-1)(x).
    """
    ctx = a1.ctx
    n = ctx.n
    m2_inv = gf2mat.inverse(a2.linear.matrix(), n)
    if m2_inv is None:
        raise ValueError("inner map must be bijective")
    m1 = a1.linear.matrix()
    m3 = a3.linear.matrix()
    q2 = gf2mat.mat_vec(m2_inv, a2.c)
    m3_p = gf2mat.matmul(m3, m2_inv)
    rows = [m2_inv[i] for i in range(n)]
    rows += [m3_p[i] | (m1[i] << n) for i in range(n)]
    t = q2 | ((a1.c ^ a3.c ^ gf2mat.mat_vec(m3, q2)) << n)
    return AffineMapProduct(ctx, rows, t)


def check_ccz_witness(f: TruthTable, g: TruthTable, a: AffineMapProduct) -> bool:
    """Does a map the graph of f onto the graph of g (as point sets)?"""
    if f.ctx != g.ctx or f.ctx != a.ctx:
        raise ValueError("context mismatch")
    if not a.is_invertible():
        raise ValueError("witness linear part is not invertible")
    ax, ay = a.tables()
    image = np.sort(ax ^ ay[f.values] ^ a.translation)
    n = f.ctx.n
    target = np.sort(np.arange(f.ctx.order) | (g.values << n))
    return bool(np.array_equal(image, target))


def check_ea_witness(
    f: TruthTable, g: TruthTable, a1: AffineMap, a2: AffineMap, a3: AffineMap
) -> bool:
    """Does A1(F(A2(x))) + A3(x) = G(x) hold at every point?"""
    if f.ctx != g.ctx:
        raise ValueError("context mismatch")
    if not a1.is_bijective() or not a2.is_bijective():
        raise ValueError("outer and inner maps must be bijective")
    t1, t2, t3 = a1.table(), a2.table(), a3.table()
    return bool(np.array_equal(t1[f.values[t2]] ^ t3, g.values))


def power_ccz_equivalent(k: int, l: int, n: int) -> bool:
    """Graph-equivalence test for power maps x^k vs x^l on GF(2^n).

    True iff k = 2^i l or k l = 2^i holds modulo 2^n - 1 for some i.
    """
    group = (1 << n) - 1
    if not (1 <= k < group + 1 and 1 <= l < group + 1):
        raise ValueError("exponents must lie in [1, 2^n - 1]")
    for i in range(n):
        p2 = pow(2, i, group)
        if k % group == (l * p2) % group:
            return True
        if (k * l) % group == p2 % group:
            return True
    return False
