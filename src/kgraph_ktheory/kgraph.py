"""Two-vertex rank-k graph data and the chain complexes built from it.

A graph in this family is described by k commuting 2x2 adjacency matrices,
one per edge color: either diagonal (2m_i on the diagonal, loop-type lifts)
or anti-diagonal (2n_i off the diagonal, crossing lifts), together with a
choice of involution, trivial or vertex-swapping.  From these we assemble
Koszul-style chain complexes with the coefficient row appropriate to each
degree of the spectral sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb
from typing import Sequence

from .intmat import IntMatrix, mat_mul


class ColorKind(Enum):
    DIAGONAL = "D"
    OFF_DIAGONAL = "T"


class Involution(Enum):
    TRIVIAL = "trivial"
    SWAP = "swap"


@dataclass(frozen=True)
class ColorSpec:
    """One edge color: its lift type and alphabet size (m_i or n_i)."""

    kind: ColorKind
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"color size must be positive, got {self.size}")


@dataclass(frozen=True)
class GraphSpec:
    """Combinatorial input: ordered colors plus the involution choice."""

    colors: tuple[ColorSpec, ...]
    involution: Involution = Involution.TRIVIAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise ValueError("a graph spec needs at least one color")

    @property
    def rank(self) -> int:
        return len(self.colors)


def adjacency_matrices(spec: GraphSpec) -> tuple[IntMatrix, ...]:
    """The 2x2 adjacency matrix of each color: diagonal 2m or anti-diagonal 2n."""
    out = []
    for c in spec.colors:
        s = 2 * c.size
        out.append(IntMatrix(2, 2, (s, 0, 0, s) if c.kind is ColorKind.DIAGONAL else (0, s, s, 0)))
    return tuple(out)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate(spec: GraphSpec) -> ValidationReport:
    """Report-valued validation: size bounds and a crossing color.

    Commutation needs no check here: D matrices are scalar and any two T
    matrices multiply to a scalar, so D/T adjacency matrices always commute.
    """
    checks = []
    small = [i for i, c in enumerate(spec.colors) if c.size < 2]
    checks.append(
        CheckResult(
            "sizes_at_least_two",
            not small,
            "" if not small else f"colors {small} have size < 2",
        )
    )
    has_crossing = any(c.kind is ColorKind.OFF_DIAGONAL for c in spec.colors)
    checks.append(
        CheckResult(
            "has_off_diagonal_color",
            has_crossing,
            "" if has_crossing else "all colors are diagonal; the graph is disconnected",
        )
    )
    return ValidationReport(tuple(checks))


class InvalidGraphError(ValueError):
    """A pipeline entry point was given a spec that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        msgs = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        super().__init__(f"invalid graph spec: {msgs}")

    def __reduce__(self):
        # args holds the message; rebuild from the report so pool workers can raise it
        return type(self), (self.report,)


class CoefficientRow(Enum):
    """Which coefficient row of the spectral sequence a chain complex computes."""

    INTEGER = "integer"
    MOD2 = "mod2"
    SCALAR_SUM = "scalar_sum"
    SCALAR_DIFF = "scalar_diff"


class NonCommutingError(ValueError):
    """Koszul construction requires pairwise commuting matrices."""


@dataclass(frozen=True)
class ChainComplex:
    """A chain complex 0 -> C_k -> ... -> C_0 -> 0 of free modules.

    ``differentials[p-1]`` is the map C_p -> C_{p-1}, of shape
    lengths[p-1] x lengths[p].  Over Z for integer and scalar rows; entries
    live in {0, 1} and compositions vanish mod 2 for the mod-2 row.
    """

    lengths: tuple[int, ...]
    differentials: tuple[IntMatrix, ...]
    coefficient_tag: CoefficientRow

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", tuple(self.lengths))
        object.__setattr__(self, "differentials", tuple(self.differentials))
        if len(self.differentials) != len(self.lengths) - 1:
            raise ValueError("need one differential per adjacent pair of modules")
        for p, dp in enumerate(self.differentials, start=1):
            if dp.rows != self.lengths[p - 1] or dp.cols != self.lengths[p]:
                raise ValueError(
                    f"boundary {p} has shape {dp.rows}x{dp.cols}, expected "
                    f"{self.lengths[p - 1]}x{self.lengths[p]}"
                )

    @property
    def degree(self) -> int:
        return len(self.lengths) - 1

    def boundary(self, p: int) -> IntMatrix:
        """The map C_p -> C_{p-1}; zero maps at the ends of the complex."""
        if p == 0:
            return IntMatrix.zeros(0, self.lengths[0])
        if p == self.degree + 1:
            return IntMatrix.zeros(self.lengths[-1], 0)
        if not 1 <= p <= self.degree:
            raise ValueError(f"degree {p} out of range 0..{self.degree + 1}")
        return self.differentials[p - 1]

    def composition_is_zero(self) -> bool:
        """True iff every composition d_p . d_{p+1} vanishes (mod 2 on the mod-2 row).

        Each row of the product is accumulated from the entry rows of the two
        boundaries, and the scan stops at the first row with a nonzero entry.
        """
        mod2 = self.coefficient_tag is CoefficientRow.MOD2
        for p in range(1, self.degree):
            a, b = self.differentials[p - 1], self.differentials[p]
            b_rows = [b.row(t) for t in range(b.rows)]
            for i in range(a.rows):
                acc = [0] * b.cols
                for av, b_row in zip(a.row(i), b_rows):
                    if av:
                        acc = [x + av * y for x, y in zip(acc, b_row)]
                if any(x % 2 for x in acc) if mod2 else any(acc):
                    return False
        return True


def coefficient_block(matrix: IntMatrix, row: CoefficientRow) -> IntMatrix:
    """The per-color block B = I - M^T in the flavor of the given row.

    Scalar rows collapse the 2x2 matrix to the sum (respectively difference)
    of its first-row entries before subtracting from 1, which is the
    vertex-swap involution's row rule.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("coefficient blocks need square adjacency matrices")
    if row is CoefficientRow.INTEGER or row is CoefficientRow.MOD2:
        n, e = matrix.rows, matrix.entries
        block = IntMatrix(
            n, n, tuple(int(i == j) - e[j * n + i] for i in range(n) for j in range(n))
        )
        return block.mod(2) if row is CoefficientRow.MOD2 else block
    if matrix.rows != 2 or matrix.cols != 2:
        raise ValueError("scalar rows are defined for 2x2 adjacency matrices only")
    if row is CoefficientRow.SCALAR_SUM:
        collapsed = matrix.at(0, 0) + matrix.at(0, 1)
    else:
        collapsed = matrix.at(0, 0) - matrix.at(0, 1)
    return IntMatrix.from_rows([[1 - collapsed]])


def koszul_complex(
    matrices: Sequence[IntMatrix], row: CoefficientRow
) -> ChainComplex:
    """Koszul chain complex on commuting blocks B_i = I - M_i^T.

    C_p is one copy of the generator module per p-subset of colors, subsets
    ordered lexicographically; the boundary takes the basis element for S to
    the alternating sum over colors s_j in S (j-th smallest, sign (-1)^(j-1))
    of B_{s_j} applied in the basis slot S - {s_j}.

    Each boundary is written entry by entry into one flat row-major list,
    block rows straight from the subset index, and becomes one IntMatrix.
    Only pairs of non-scalar matrices are checked to commute
    (NonCommutingError otherwise); that the boundaries compose to zero is
    checked by ``homology_all``.
    """
    mats = tuple(matrices)
    if not mats:
        raise ValueError("need at least one matrix")
    v0 = mats[0].rows
    for m in mats:
        if m.rows != m.cols or m.rows != v0:
            raise ValueError("all matrices must be square of equal size")
    # A scalar matrix commutes with every matrix of its size, so only pairs
    # of non-scalar matrices need the two products.
    identity = [int(i == j) for i in range(v0) for j in range(v0)]
    scalar = [all(e == m.entries[0] * d for e, d in zip(m.entries, identity)) for m in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if scalar[i] or scalar[j]:
                continue
            if mat_mul(mats[i], mats[j]) != mat_mul(mats[j], mats[i]):
                raise NonCommutingError(f"matrices {i} and {j} do not commute")

    blocks = [coefficient_block(m, row) for m in mats]
    v = blocks[0].rows
    k = len(mats)
    lengths = tuple(v * comb(k, p) for p in range(k + 1))
    # signed_rows[j % 2][color]: the rows of (-1)^j B_color
    plus = [[b.row(i) for i in range(v)] for b in blocks]
    signed_rows = (plus, [[tuple(-x for x in r) for r in rows] for rows in plus])

    diffs = []
    row_subsets = [()]
    for p in range(1, k + 1):
        col_subsets = list(combinations(range(k), p))
        row_index = {s: i for i, s in enumerate(row_subsets)}
        width = v * len(col_subsets)
        out = [0] * (v * len(row_subsets) * width)
        for cj, subset in enumerate(col_subsets):
            for j, color in enumerate(subset):
                start = row_index[subset[:j] + subset[j + 1 :]] * v * width + cj * v
                for r in signed_rows[j % 2][color]:
                    out[start : start + v] = r
                    start += width
        diffs.append(IntMatrix(v * len(row_subsets), width, tuple(out)))
        row_subsets = col_subsets

    return ChainComplex(lengths, tuple(diffs), row)


def involution_row_schedule(
    involution: Involution, complex_part: bool
) -> tuple[int, dict[int, CoefficientRow]]:
    """(period, {q: row tag}) for the given involution and part.

    Rows absent from the mapping are zero.  The complex part is independent
    of the involution: the complexification only sees the underlying graph.

    The schedule transcribes the coefficient K-theory per vertex pair:
    for the trivial involution the coefficients are KO_*(R)^2, i.e.
    (Z, Z_2, Z_2, 0, Z, 0, 0, 0) with period 8 (integer rows at q = 0, 4 and
    2-torsion rows at q = 1, 2), and KU_*(R)^2 = Z^2 at even q.  The swap
    involution uses KO_*(C) = Z at even q, where the two vertex generators
    are glued into one by the first-row sum rule (q = 0 mod 4) or difference
    rule (q = 2 mod 4); its complexification still has the KU of the
    underlying graph.
    """
    if complex_part:
        return 2, {0: CoefficientRow.INTEGER}
    if involution is Involution.TRIVIAL:
        return 8, {
            0: CoefficientRow.INTEGER,
            1: CoefficientRow.MOD2,
            2: CoefficientRow.MOD2,
            4: CoefficientRow.INTEGER,
        }
    return 8, {
        0: CoefficientRow.SCALAR_SUM,
        2: CoefficientRow.SCALAR_DIFF,
        4: CoefficientRow.SCALAR_SUM,
        6: CoefficientRow.SCALAR_DIFF,
    }


class UnsupportedRankError(ValueError):
    """No closed form: the family formulas cover ranks 3 and 4 only."""


@dataclass(frozen=True)
class FamilyCase:
    """Which numbered closed-form case a spec falls into.

    ``order`` records the color permutation applied (off-diagonal colors
    first, otherwise stable); the case number is the count of off-diagonal
    colors.
    """

    rank: int
    number: int
    order: tuple[int, ...]


def enumerate_family_case(spec: GraphSpec) -> FamilyCase:
    if spec.rank not in (3, 4):
        raise UnsupportedRankError(
            f"no closed form for rank {spec.rank}; supported ranks are 3 and 4"
        )
    off = [i for i, c in enumerate(spec.colors) if c.kind is ColorKind.OFF_DIAGONAL]
    diag = [i for i, c in enumerate(spec.colors) if c.kind is ColorKind.DIAGONAL]
    if not off:
        raise InvalidGraphError(validate(spec))
    return FamilyCase(rank=spec.rank, number=len(off), order=tuple(off + diag))
