"""The Koszul builder, the composition check, homology groups and the row cache.

``koszul_complex`` writes each boundary's entries straight from the subset
index.  These tests pin it to the plain construction, rebuilt here from a
grid of signed blocks joined by ``block_matrix``, and pin the two
consumers of its output: ``composition_is_zero`` and ``homology_all``.
"""

import random
from itertools import combinations

import pytest

from kgraph_ktheory import spectral
from kgraph_ktheory.abgroup import FinAbGroup
from kgraph_ktheory.homology import homology_all
from kgraph_ktheory.intmat import IntMatrix, block_matrix, snf
from kgraph_ktheory.kgraph import ChainComplex, CoefficientRow, adjacency_matrices, koszul_complex

from helpers import random_matrix, spec_of

BOUND = 10**30


def _reference_block(matrix, row):
    """I - M^T, reduced mod 2 on the mod-2 row; 1 - (a00 +- a01) on the scalar rows."""
    if row in (CoefficientRow.SCALAR_SUM, CoefficientRow.SCALAR_DIFF):
        a00, a01 = matrix.at(0, 0), matrix.at(0, 1)
        collapsed = a00 + a01 if row is CoefficientRow.SCALAR_SUM else a00 - a01
        return IntMatrix.from_rows([[1 - collapsed]])
    n = matrix.rows
    block = IntMatrix.from_rows(
        [[int(i == j) - matrix.transpose().at(i, j) for j in range(n)] for i in range(n)]
    )
    return block.mod(2) if row is CoefficientRow.MOD2 else block


def _reference_boundaries(mats, row):
    """The boundaries as a grid of blocks: (-1)^j B_{s_j} at (S - {s_j}, S), zero elsewhere."""
    blocks = [_reference_block(m, row) for m in mats]
    v, k = blocks[0].rows, len(mats)
    zero = IntMatrix.zeros(v, v)
    out = []
    for p in range(1, k + 1):
        cols = list(combinations(range(k), p))
        rows = {s: i for i, s in enumerate(combinations(range(k), p - 1))}
        grid = [[zero] * len(cols) for _ in rows]
        for cj, subset in enumerate(cols):
            for j, color in enumerate(subset):
                signed = blocks[color] if j % 2 == 0 else -blocks[color]
                grid[rows[subset[:j] + subset[j + 1 :]]][cj] = signed
        out.append(block_matrix(grid))
    return tuple(out)


def test_builder_matches_the_block_grid_construction():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.integers(-BOUND, BOUND)

    @st.composite
    def commuting_tuples(draw):
        rank = draw(st.integers(1, 6))
        family = draw(st.sampled_from(["DT", "scalar", "1x1"]))
        mats = []
        for _ in range(rank):
            s = draw(entry)
            if family == "1x1":
                mats.append(IntMatrix(1, 1, (s,)))
            elif family == "scalar" or draw(st.booleans()):
                mats.append(IntMatrix(2, 2, (s, 0, 0, s)))
            else:
                mats.append(IntMatrix(2, 2, (0, s, s, 0)))
        return tuple(mats)

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(commuting_tuples())
    def check(mats):
        rows = list(CoefficientRow)
        if mats[0].rows == 1:  # the scalar rows are defined for 2x2 matrices only
            rows = [CoefficientRow.INTEGER, CoefficientRow.MOD2]
        for row in rows:
            cc = koszul_complex(mats, row)
            assert cc.differentials == _reference_boundaries(mats, row), (mats, row)
            assert cc.composition_is_zero()

    check()


def test_builder_on_adjacency_matrices_of_every_rank():
    rng = random.Random(26)
    for rank in range(1, 7):
        colors = [(rng.choice("DT"), rng.randint(2, 10**30)) for _ in range(rank)]
        mats = adjacency_matrices(spec_of(colors))
        for row in CoefficientRow:
            assert koszul_complex(mats, row).differentials == _reference_boundaries(mats, row)


def test_composition_check_reduces_mod_2_only_on_the_mod_2_row():
    # d1 . d2 = 2 * [[0], [3]]: nonzero over Z, zero mod 2, and nonzero only in its second row
    d1 = IntMatrix.from_rows([[0, 0], [2, 4]])
    d2 = IntMatrix.from_rows([[1], [1]])
    assert not ChainComplex((2, 2, 1), (d1, d2), CoefficientRow.INTEGER).composition_is_zero()
    assert ChainComplex((2, 2, 1), (d1, d2), CoefficientRow.MOD2).composition_is_zero()
    odd = IntMatrix.from_rows([[0, 0], [1, 2]])
    assert not ChainComplex((2, 2, 1), (odd, d2), CoefficientRow.MOD2).composition_is_zero()
    exact = IntMatrix.from_rows([[1, -1]])
    assert ChainComplex((1, 2, 1), (exact, d2), CoefficientRow.INTEGER).composition_is_zero()


def _canonical_homology(cc):
    """Each H_p by FinAbGroup.from_parts, fed the Smith factors in reverse order."""
    decs = [snf(d) for d in cc.differentials]
    mod2 = cc.coefficient_tag is CoefficientRow.MOD2
    ranks = [0, *(sum(f % 2 for f in dec.d) if mod2 else dec.rank for dec in decs), 0]
    out = []
    for p, n in enumerate(cc.lengths):
        free = n - ranks[p] - ranks[p + 1]
        if mod2:
            out.append(FinAbGroup.from_parts(0, (2,) * free))
        else:
            factors = [f for f in decs[p].d if f] if p < len(decs) else []
            out.append(FinAbGroup.from_parts(free, factors[::-1]))
    return tuple(out)


def _random_complexes(rng):
    for _ in range(40):
        d = random_matrix(rng, 6, 6, 12)
        for row in (CoefficientRow.INTEGER, CoefficientRow.MOD2):
            yield ChainComplex((d.rows, d.cols), (d,), row)
    for _ in range(40):
        rank = rng.randint(1, 4)
        # a I + b A for one fixed A: a commuting family that is neither D/T nor scalar
        a = IntMatrix(2, 2, tuple(rng.randint(-5, 5) for _ in range(4)))
        mats = []
        for _ in range(rank):
            s, t = rng.randint(-9, 9), rng.randint(-3, 3)
            mats.append(IntMatrix(2, 2, tuple(d + t * x for d, x in zip((s, 0, 0, s), a.entries))))
        yield koszul_complex(tuple(mats), rng.choice(list(CoefficientRow)))


def test_homology_equals_the_canonicalized_factors():
    for cc in _random_complexes(random.Random(2626)):
        assert homology_all(cc) == _canonical_homology(cc), cc


def test_every_spec_of_one_rank_shares_one_mod_2_complex():
    spectral._row_homology.cache_clear()
    spectral.build_e2(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    first = spectral._row_homology.cache_info()
    # integer and mod-2 rows on the real page; the complex page's integer row is a hit
    assert (first.misses, first.hits) == (2, 1)
    spectral.build_e2(spec_of([("T", 7), ("D", 11), ("D", 3)]))
    second = spectral._row_homology.cache_info()
    # only the integer row is new: the mod-2 complex is the first spec's
    assert (second.misses, second.hits) == (3, 3)
