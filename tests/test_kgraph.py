import random

import pytest

from kgraph_ktheory.intmat import IntMatrix, mat_mul
from kgraph_ktheory.kgraph import (
    ChainComplex,
    CoefficientRow,
    ColorKind,
    ColorSpec,
    GraphSpec,
    Involution,
    NonCommutingError,
    UnsupportedRankError,
    adjacency_matrices,
    coefficient_block,
    enumerate_family_case,
    involution_row_schedule,
    koszul_complex,
    validate,
)

from helpers import signed_perm_equal, spec_of


def test_adjacency_matrices_forms():
    spec = spec_of([("D", 2), ("T", 3)])
    d, t = adjacency_matrices(spec)
    assert d.to_rows() == [[4, 0], [0, 4]]
    assert t.to_rows() == [[0, 6], [6, 0]]


def test_adjacency_matrices_always_commute():
    rng = random.Random(3)
    for _ in range(50):
        colors = [
            (rng.choice("DT"), rng.randint(2, 9)) for _ in range(rng.randint(1, 6))
        ]
        mats = adjacency_matrices(spec_of(colors))
        for i in range(len(mats)):
            for j in range(len(mats)):
                assert mat_mul(mats[i], mats[j]) == mat_mul(mats[j], mats[i])


def test_validate_reports():
    assert validate(spec_of([("T", 2), ("D", 5), ("D", 8)])).ok
    all_diag = validate(spec_of([("D", 2), ("D", 3)]))
    assert not all_diag.ok
    assert [c.name for c in all_diag.failures()] == ["has_off_diagonal_color"]
    small = validate(spec_of([("T", 1), ("D", 5)]))
    assert [c.name for c in small.failures()] == ["sizes_at_least_two"]


def test_graphspec_guards():
    with pytest.raises(ValueError):
        GraphSpec((), Involution.TRIVIAL)
    with pytest.raises(ValueError):
        ColorSpec(ColorKind.DIAGONAL, 0)


def test_coefficient_blocks():
    t = IntMatrix.from_rows([[0, 4], [4, 0]])
    d = IntMatrix.from_rows([[10, 0], [0, 10]])
    assert coefficient_block(t, CoefficientRow.INTEGER).to_rows() == [[1, -4], [-4, 1]]
    assert coefficient_block(t, CoefficientRow.MOD2).to_rows() == [[1, 0], [0, 1]]
    assert coefficient_block(t, CoefficientRow.SCALAR_SUM).to_rows() == [[-3]]
    assert coefficient_block(t, CoefficientRow.SCALAR_DIFF).to_rows() == [[5]]
    # for a diagonal color, sum and difference rules coincide
    assert coefficient_block(d, CoefficientRow.SCALAR_SUM).to_rows() == [[-9]]
    assert coefficient_block(d, CoefficientRow.SCALAR_DIFF).to_rows() == [[-9]]


def test_koszul_rank1_degenerate():
    spec = spec_of([("T", 2)])
    cc = koszul_complex(adjacency_matrices(spec), CoefficientRow.INTEGER)
    assert cc.lengths == (2, 2)
    assert cc.boundary(1).to_rows() == [[1, -4], [-4, 1]]


def test_koszul_rejects_noncommuting():
    a = IntMatrix.from_rows([[0, 1], [0, 0]])
    b = IntMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(NonCommutingError):
        koszul_complex((a, b), CoefficientRow.INTEGER)


def test_koszul_rank3_case2_reference_matrices():
    # (n1, n2, m3) = (2, 2, 8): the reference boundary matrices, entry for entry
    spec = spec_of([("T", 2), ("T", 2), ("D", 8)])
    cc = koszul_complex(adjacency_matrices(spec), CoefficientRow.INTEGER)
    assert cc.lengths == (2, 6, 6, 2)
    assert cc.boundary(1).to_rows() == [
        [1, -4, 1, -4, -15, 0],
        [-4, 1, -4, 1, 0, -15],
    ]
    assert cc.boundary(2).to_rows() == [
        [-1, 4, 15, 0, 0, 0],
        [4, -1, 0, 15, 0, 0],
        [1, -4, 0, 0, 15, 0],
        [-4, 1, 0, 0, 0, 15],
        [0, 0, 1, -4, 1, -4],
        [0, 0, -4, 1, -4, 1],
    ]
    assert cc.boundary(3).to_rows() == [
        [-15, 0],
        [0, -15],
        [-1, 4],
        [4, -1],
        [1, -4],
        [-4, 1],
    ]


def test_koszul_scalar_rows_match_reference_matrices():
    # case (1), (n1, m2, m3) = (2, 5, 8)
    mats = adjacency_matrices(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    total = koszul_complex(mats, CoefficientRow.SCALAR_SUM)
    assert total.lengths == (1, 3, 3, 1)
    assert total.boundary(1).to_rows() == [[-3, -9, -15]]
    assert total.boundary(2).to_rows() == [
        [9, 15, 0],
        [-3, 0, 15],
        [0, -3, -9],
    ]
    # hand conventions sometimes list the transposed boundary blocks in the
    # opposite order;
    # equality holds up to signed row permutation
    reference_d3 = IntMatrix.from_rows([[-3], [9], [-15]])
    assert signed_perm_equal(total.boundary(3), reference_d3)

    diff = koszul_complex(mats, CoefficientRow.SCALAR_DIFF)
    assert diff.boundary(1).to_rows() == [[5, -9, -15]]
    reference_diff_d2 = IntMatrix.from_rows(
        [[9, -15, 0], [5, 0, 15], [0, -5, -9]]
    )
    assert signed_perm_equal(diff.boundary(2), reference_diff_d2)


def test_koszul_composition_zero_every_tag():
    rng = random.Random(8)
    for _ in range(60):
        k = rng.randint(1, 6)
        colors = [(rng.choice("DT"), rng.randint(2, 6)) for _ in range(k)]
        colors[rng.randrange(k)] = ("T", rng.randint(2, 6))
        mats = adjacency_matrices(spec_of(colors))
        for tag in CoefficientRow:
            cc = koszul_complex(mats, tag)
            assert cc.composition_is_zero()
            assert cc.lengths[0] == (2 if tag in (CoefficientRow.INTEGER, CoefficientRow.MOD2) else 1)


def test_koszul_dimensions_binomial():
    mats = adjacency_matrices(spec_of([("T", 2)] * 4))
    cc = koszul_complex(mats, CoefficientRow.INTEGER)
    assert cc.lengths == (2, 8, 12, 8, 2)
    scc = koszul_complex(mats, CoefficientRow.SCALAR_SUM)
    assert scc.lengths == (1, 4, 6, 4, 1)


def test_chain_complex_shape_validation():
    good = ChainComplex((1, 1), (IntMatrix.from_rows([[3]]),), CoefficientRow.INTEGER)
    assert good.degree == 1
    assert good.boundary(0) == IntMatrix.zeros(0, 1)
    assert good.boundary(2) == IntMatrix.zeros(1, 0)
    with pytest.raises(ValueError):
        ChainComplex((1, 2), (IntMatrix.from_rows([[3]]),), CoefficientRow.INTEGER)
    with pytest.raises(ValueError):
        ChainComplex((1, 1), (), CoefficientRow.INTEGER)


def test_row_schedule():
    period, rows = involution_row_schedule(Involution.TRIVIAL, complex_part=False)
    assert period == 8
    assert rows == {
        0: CoefficientRow.INTEGER,
        1: CoefficientRow.MOD2,
        2: CoefficientRow.MOD2,
        4: CoefficientRow.INTEGER,
    }
    period, rows = involution_row_schedule(Involution.SWAP, complex_part=False)
    assert rows == {
        0: CoefficientRow.SCALAR_SUM,
        2: CoefficientRow.SCALAR_DIFF,
        4: CoefficientRow.SCALAR_SUM,
        6: CoefficientRow.SCALAR_DIFF,
    }
    for inv in Involution:
        period, rows = involution_row_schedule(inv, complex_part=True)
        assert period == 2
        assert rows == {0: CoefficientRow.INTEGER}


def test_enumerate_family_case():
    assert enumerate_family_case(spec_of([("T", 2), ("D", 5), ("D", 8)])).number == 1
    case = enumerate_family_case(spec_of([("T", 2), ("T", 3), ("T", 4), ("D", 5)]))
    assert (case.rank, case.number) == (4, 3)
    reordered = enumerate_family_case(spec_of([("D", 5), ("T", 2), ("D", 8)]))
    assert reordered.number == 1
    assert reordered.order == (1, 0, 2)
    with pytest.raises(UnsupportedRankError):
        enumerate_family_case(spec_of([("T", 2), ("T", 2)]))
    with pytest.raises(UnsupportedRankError):
        enumerate_family_case(spec_of([("T", 2)] * 5))


def test_koszul_multiplies_only_non_scalar_pairs(monkeypatch):
    import kgraph_ktheory.kgraph as kgraph

    calls = []

    def counting_mul(a, b):
        calls.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(kgraph, "mat_mul", counting_mul)
    # D blocks are scalar: of the six pairs only the one T-T pair is multiplied
    mats = adjacency_matrices(spec_of([("T", 2), ("D", 3), ("D", 5), ("T", 7)]))
    koszul_complex(mats, CoefficientRow.INTEGER)
    assert calls == [(mats[0], mats[3]), (mats[3], mats[0])]
    scalar = IntMatrix.from_rows([[3, 0], [0, 3]])
    a = IntMatrix.from_rows([[0, 1], [0, 0]])
    b = IntMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(NonCommutingError, match="matrices 1 and 2"):
        koszul_complex((scalar, a, b), CoefficientRow.INTEGER)


def test_invalid_graph_error_survives_pickling():
    import pickle

    from kgraph_ktheory.kgraph import InvalidGraphError

    err = InvalidGraphError(validate(spec_of([("T", 1), ("D", 5), ("D", 8)])))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is InvalidGraphError
    assert str(back) == str(err)
    assert back.report == err.report
