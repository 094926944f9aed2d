"""Exact arbitrary-precision integer matrices and Smith normal form.

This is the computational substrate for every homology calculation in the
package: small dense matrices over Z, eliminated exactly with Python's
native big integers so no magnitude can overflow.  Everything here is an
immutable value and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional, Sequence


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, stored row-major.

    Empty matrices (zero rows and/or zero columns) are legal; they occur
    at the two ends of a chain complex.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError(f"negative shape {self.rows}x{self.cols}")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, tuple(x for r in rows for x in r))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, rows: int, cols: int, values: Sequence[int]) -> "IntMatrix":
        """Rectangular matrix with ``values`` down the main diagonal."""
        if len(values) > min(rows, cols):
            raise DimensionError("too many diagonal values")
        ent = [0] * (rows * cols)
        for i, v in enumerate(values):
            ent[i * cols + i] = v
        return cls(rows, cols, tuple(ent))

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * e for e in self.entries))

    def __neg__(self) -> "IntMatrix":
        return self.scaled(-1)

    def mod(self, m: int) -> "IntMatrix":
        """Entrywise reduction into [0, m)."""
        return IntMatrix(self.rows, self.cols, tuple(e % m for e in self.entries))

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    m, n, p = a.rows, a.cols, b.cols
    out = [0] * (m * p)
    be = b.entries
    for i in range(m):
        arow = a.entries[i * n : (i + 1) * n]
        base = i * p
        for t, av in enumerate(arow):
            if av:
                boff = t * p
                for j in range(p):
                    out[base + j] += av * be[boff + j]
    return IntMatrix(m, p, tuple(out))


def block_matrix(blocks: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Concatenate a rectangular grid of blocks into one matrix.

    Block heights must agree along each grid row and widths along each grid
    column; a ragged grid raises :class:`DimensionError`.
    """
    if not blocks:
        return IntMatrix.zeros(0, 0)
    ncols_grid = len(blocks[0])
    if any(len(brow) != ncols_grid for brow in blocks):
        raise DimensionError("ragged block grid")
    if ncols_grid == 0:
        return IntMatrix.zeros(0, 0)
    heights = [brow[0].rows for brow in blocks]
    widths = [blk.cols for blk in blocks[0]]
    for i, brow in enumerate(blocks):
        for j, blk in enumerate(brow):
            if blk.rows != heights[i] or blk.cols != widths[j]:
                raise DimensionError(
                    f"block ({i}, {j}) is {blk.rows}x{blk.cols}, expected "
                    f"{heights[i]}x{widths[j]}"
                )
    total_rows = sum(heights)
    total_cols = sum(widths)
    out = [0] * (total_rows * total_cols)
    roff = 0
    for i, brow in enumerate(blocks):
        coff = 0
        for j, blk in enumerate(brow):
            for bi in range(blk.rows):
                base = (roff + bi) * total_cols + coff
                out[base : base + blk.cols] = blk.row(bi)
            coff += widths[j]
        roff += heights[i]
    return IntMatrix(total_rows, total_cols, tuple(out))


def _det_rows(rows: list[list[int]]) -> int:
    """Exact determinant by the Bareiss fraction-free scheme."""
    n = len(rows)
    if n == 0:
        return 1
    m = [r[:] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mi = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pkk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def det(a: IntMatrix) -> int:
    """Determinant of a square matrix (the empty matrix has determinant 1)."""
    if a.rows != a.cols:
        raise DimensionError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    return _det_rows(a.to_rows())


def determinantal_divisor(a: IntMatrix, order: int) -> int:
    """gcd of all ``order`` x ``order`` minors of ``a`` (0 if they all vanish).

    The product of the first ``order`` invariant factors of the Smith normal
    form equals this value, which makes it a fully independent oracle for
    :func:`snf`: it is computed here from raw determinants alone.
    """
    if not 1 <= order <= min(a.rows, a.cols):
        raise ValueError(
            f"minor order {order} out of range for a {a.rows}x{a.cols} matrix"
        )
    grid = a.to_rows()
    g = 0
    for rset in combinations(range(a.rows), order):
        picked = [grid[i] for i in rset]
        for cset in combinations(range(a.cols), order):
            minor = [[prow[j] for j in cset] for prow in picked]
            g = gcd(g, _det_rows(minor))
            if g == 1:
                return 1
    return g


@dataclass(frozen=True)
class SNFDecomposition:
    """Smith normal form data for an integer matrix A.

    ``d`` holds min(rows, cols) invariant factors, nonnegative and in
    dividing order with zeros trailing; ``rank`` counts the nonzero ones.
    When transforms were requested, ``left`` and ``right`` are unimodular
    with ``left @ A @ right = diagonal(d)``, and ``right_inv`` is the exact
    inverse of ``right``, tracked during elimination.  Homology needs only
    ``d``: ``rank`` for the integer and scalar rows, the count of odd factors
    for the mod-2 row.  The transforms serve callers that want the bases, at
    the price of coefficient growth in their entries.
    """

    d: tuple[int, ...]
    rank: int
    left: Optional[IntMatrix] = None
    right: Optional[IntMatrix] = None
    right_inv: Optional[IntMatrix] = None


def snf(matrix: IntMatrix, want_transforms: bool = False) -> SNFDecomposition:
    """Smith normal form by gcd-driven elimination.

    The pivot of least nonzero absolute value in the trailing block is chosen
    at every step, which keeps coefficient growth tame on the matrices this
    package produces.  Total on all integer matrices.

    Transforms ride along in the augmented matrix [[A, I_m], [I_n, 0]]: row
    operations on its first m rows turn I_m into ``left``, column operations
    on its first n columns turn I_n into ``right``.  Pivot search and the
    divisibility sweep look at A alone, so ``d`` does not depend on
    ``want_transforms``.
    """
    m, n = matrix.rows, matrix.cols
    a = matrix.to_rows()
    right_inv = None
    if want_transforms:
        a = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
        a += [[int(i == j) for j in range(n + m)] for i in range(n)]
        right_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    width = len(a[0]) if a else 0

    def swap_cols(j1: int, j2: int) -> None:
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]
        if right_inv is not None:
            right_inv[j1], right_inv[j2] = right_inv[j2], right_inv[j1]

    def row_sub(i: int, src: int, q: int) -> None:
        # row_i -= q * row_src
        if q:
            ai, asrc = a[i], a[src]
            for j in range(width):
                ai[j] -= q * asrc[j]

    def col_sub(j: int, src: int, q: int) -> None:
        # col_j -= q * col_src; the inverse op on right_inv is row_src += q * row_j
        if q:
            for row in a:
                row[j] -= q * row[src]
            if right_inv is not None:
                rs, rj = right_inv[src], right_inv[j]
                for t in range(n):
                    rs[t] += q * rj[t]

    size = min(m, n)
    for t in range(size):
        while True:
            # least-|value| nonzero pivot in the trailing block
            pi = pj = -1
            best = 0
            for i in range(t, m):
                arow = a[i]
                for j in range(t, n):
                    v = arow[j]
                    if v:
                        av = -v if v < 0 else v
                        if best == 0 or av < best:
                            best, pi, pj = av, i, j
                            if best == 1:
                                break
                if best == 1:
                    break
            if pi < 0:
                break  # trailing block is all zero
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                swap_cols(t, pj)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // p)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // p)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue  # remainders are smaller than |p|; re-pivot
            p = a[t][t]
            bad = -1
            for i in range(t + 1, m):
                ai = a[i]
                for j in range(t + 1, n):
                    if ai[j] % p:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            # fold the offending row in; the next sweep shrinks the pivot
            row_sub(t, bad, -1)

    for i in range(size):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]

    d = tuple(a[i][i] for i in range(size))
    rank = sum(1 for x in d if x)
    if not want_transforms:
        return SNFDecomposition(d=d, rank=rank)
    return SNFDecomposition(
        d=d,
        rank=rank,
        left=IntMatrix.from_rows([row[n:] for row in a[:m]]),
        right=IntMatrix.from_rows([row[:n] for row in a[m:]]),
        right_inv=IntMatrix.from_rows(right_inv),
    )
