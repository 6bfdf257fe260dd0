"""Linearized polynomials over GF(2^n) and their GF(2)-subspace geometry.

A linearized polynomial L(x) = sum_i c_i x^(2^i) is stored as its
coefficient vector (c_0, ..., c_{n-1}); these are exactly the
GF(2)-linear self-maps of the field.  The adjoint L* is the unique
linear map with Tr(L(x) y) = Tr(x L*(y)) for all x, y.

Matrix forms use the row-int convention of gf2mat: an n x n matrix M
with column j equal to the image of the basis element 2^j, so applying
the matrix to the bit-vector of x evaluates the map.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2mat
from .gf2n import FieldContext, span_table

__all__ = ["LinearizedPoly", "Subspace", "kernels_intersect_trivially"]


@dataclass(frozen=True)
class LinearizedPoly:
    """GF(2)-linear map x -> sum c_i x^(2^i) on a fixed field."""

    ctx: FieldContext
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        # any integer sequence is stored as a tuple of Python ints, so
        # equal maps compare and hash equal whatever form they came in
        coeffs = tuple(map(operator.index, self.coeffs))
        if len(coeffs) != self.ctx.n:
            raise ValueError(f"need exactly {self.ctx.n} coefficients")
        for c in coeffs:
            self.ctx.check(c)
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldContext) -> "LinearizedPoly":
        return cls(ctx, (0,) * ctx.n)

    @classmethod
    def identity(cls, ctx: FieldContext) -> "LinearizedPoly":
        return cls(ctx, (1,) + (0,) * (ctx.n - 1))

    @classmethod
    def frobenius(cls, ctx: FieldContext, k: int, c: int = 1) -> "LinearizedPoly":
        """The single-term map x -> c x^(2^k)."""
        coeffs = [0] * ctx.n
        coeffs[k % ctx.n] = c
        return cls(ctx, tuple(coeffs))

    @classmethod
    def random(cls, ctx: FieldContext, rng) -> "LinearizedPoly":
        return cls(ctx, tuple(rng.randrange(ctx.order) for _ in range(ctx.n)))

    @classmethod
    def from_matrix(cls, ctx: FieldContext, rows: Sequence[int]) -> "LinearizedPoly":
        """Recover the coefficient vector from an n x n bit matrix.

        With theta_j the trace-dual basis, Tr(theta_j 2^k) = [j = k], every
        linear map is x -> sum_j L(2^j) Tr(theta_j x), so its coefficients
        are c_i = sum_j L(2^j) theta_j^(2^i).
        """
        images = np.array(gf2mat.transpose(rows, ctx.n), dtype=np.int64)
        terms = ctx.mul_vec(images, ctx.pow2k_table[:, ctx.trace_dual_basis])
        return cls(ctx, tuple(np.bitwise_xor.reduce(terms, axis=1).tolist()))

    @classmethod
    def from_text(cls, ctx: FieldContext, text: str) -> "LinearizedPoly":
        """Parse the "c0,c1,..." comma-separated hex form."""
        parts = [p.strip() for p in text.split(",")]
        return cls(ctx, tuple(int(p, 16) for p in parts))

    def to_text(self) -> str:
        return ",".join(f"{c:x}" for c in self.coeffs)

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc ^= ctx.mul(c, ctx.pow2k(x, i))
        return acc

    def _basis_images(self) -> np.ndarray:
        """The images L(2^j) for j < n, in one step: XOR over the nonzero
        c_i of exp[log c_i + log (2^j)^(2^i)], the second log read from
        the field's cached (n, n) table (_frobenius_basis_logs)."""
        ctx = self.ctx
        c = np.array(self.coeffs)
        i = np.flatnonzero(c)
        images = ctx.exp_table[_frobenius_basis_logs(ctx)[i] + ctx.log_table[c[i]][:, None]]
        return np.bitwise_xor.reduce(images, axis=0)  # the zero map: all 0

    def table(self) -> np.ndarray:
        """Values on all 2^n inputs, by linear extension from the basis.

        Built on the first call and kept outside the dataclass fields:
        every call returns the same read-only array."""
        return self._table

    @cached_property
    def _table(self) -> np.ndarray:
        tab = span_table(self._basis_images())
        tab.setflags(write=False)
        return tab

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        self.check_same_ctx(other)
        return LinearizedPoly(
            self.ctx, tuple(a ^ b for a, b in zip(self.coeffs, other.coeffs))
        )

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """self after other: x -> self(other(x)), the matrix product."""
        self.check_same_ctx(other)
        return LinearizedPoly.from_matrix(self.ctx, gf2mat.matmul(self.matrix(), other.matrix()))

    def adjoint(self) -> "LinearizedPoly":
        """L* with Tr(L(x) y) = Tr(x L*(y)); an involution."""
        ctx = self.ctx
        n = ctx.n
        coeffs = tuple(ctx.pow2k(self.coeffs[(n - j) % n], j) for j in range(n))
        return LinearizedPoly(ctx, coeffs)

    def check_same_ctx(self, other: "LinearizedPoly") -> None:
        """Raise ValueError unless other is a map on the same field."""
        if self.ctx != other.ctx:
            raise ValueError("context mismatch between linearized polynomials")

    # -- linear-algebra views ---------------------------------------------

    def matrix(self) -> List[int]:
        """n x n bit matrix (gf2mat rows); column j = image of 2^j."""
        return gf2mat.transpose(self._basis_images().tolist(), self.ctx.n)

    def rank(self) -> int:
        return gf2mat.rank(self.matrix(), self.ctx.n)

    def is_bijective(self) -> bool:
        return self.rank() == self.ctx.n

    def kernel(self) -> "Subspace":
        basis = gf2mat.nullspace(self.matrix(), self.ctx.n)
        return Subspace(self.ctx, basis)

    def image(self) -> "Subspace":
        return Subspace(self.ctx, self._basis_images().tolist())

    def apply_to_subspace(self, s: "Subspace") -> "Subspace":
        if s.ctx != self.ctx:
            raise ValueError("context mismatch")
        return Subspace(self.ctx, (self(b) for b in s.basis))


@lru_cache(maxsize=None)
def _frobenius_basis_logs(ctx: FieldContext) -> np.ndarray:
    """t[i, j] = log (2^j)^(2^i) = 2^i log 2^j mod 2^n - 1, read-only."""
    bits = np.arange(ctx.n)
    t = (ctx.log_table[1 << bits][None, :] << bits[:, None]) % (ctx.order - 1)
    t.setflags(write=False)
    return t


class Subspace:
    """GF(2)-subspace of the field, held as a reduced-row-echelon basis.

    The canonical basis makes equality a tuple comparison.
    """

    def __init__(self, ctx: FieldContext, basis: Iterable[int]):
        red, _ = gf2mat.rref(list(basis), ctx.n)
        self.ctx = ctx
        self.basis: Tuple[int, ...] = tuple(sorted(red, reverse=True))
        self.dim = len(self.basis)

    def elements(self) -> List[int]:
        """The full span, 2^dim ints in increasing order."""
        return sorted(span_table(np.array(self.basis, dtype=np.int64)).tolist())

    def __contains__(self, x: int) -> bool:
        # rref pivots are the lowest set bits of the basis rows
        for b in self.basis:
            if x & (b & -b):
                x ^= b
        return x == 0

    def __len__(self) -> int:
        return 1 << self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, basis={[hex(b) for b in self.basis]})"

    def intersection(self, other: "Subspace") -> "Subspace":
        """Intersection via the nullspace of the stacked coefficient system."""
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        a, b = self.basis, other.basis
        # rows: field bits; columns: coefficients on the a-basis, then the b-basis
        rows = gf2mat.transpose(a + b, self.ctx.n)
        # a null vector u gives the common element A u, A the low len(a) columns
        mask = (1 << len(a)) - 1
        elems = [gf2mat.mat_vec(rows, u & mask) for u in gf2mat.nullspace(rows, len(a) + len(b))]
        return Subspace(self.ctx, elems)

    def is_subfield_translate(self) -> Optional[Tuple[int, int]]:
        """(a, k) with self = a * F_{2^k}, or None.

        If self = a * F_{2^k}, then s^-1 * self = F_{2^k} for every nonzero
        s in self, so the smallest nonzero member alone decides.
        """
        k = self.dim
        if k < 1 or self.ctx.n % k != 0:
            return None
        span = self.elements()
        s = span[1]  # the smallest nonzero member
        scaled = frozenset(self.ctx.mul(self.ctx.inv0(s), x) for x in span)
        return (s, k) if scaled == self.ctx.subfield_elements(k) else None


def kernels_intersect_trivially(l1: LinearizedPoly, l2: LinearizedPoly) -> bool:
    """ker(l1) ∩ ker(l2) = {0}, decided by the rank of the stacked matrix."""
    l1.check_same_ctx(l2)
    n = l1.ctx.n
    return gf2mat.rank(l1.matrix() + l2.matrix(), n) == n
