import random

import pytest

from kgraph_ktheory.intmat import (
    DimensionError,
    IntMatrix,
    block_matrix,
    det,
    determinantal_divisor,
    mat_mul,
    snf,
)

from helpers import random_matrix


def test_construction_validates_shape():
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionError):
        IntMatrix(-1, 2, ())
    assert IntMatrix.zeros(0, 3).entries == ()
    assert IntMatrix.from_rows([[1, 2], [3, 4]]).at(1, 0) == 3
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_transpose_and_scaling():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
    assert (-a).to_rows() == [[-1, -2, -3], [-4, -5, -6]]
    assert a.transpose().transpose() == a


def test_mat_mul_identity_and_annihilation():
    a = IntMatrix.from_rows([[2, -3], [0, 7]])
    assert mat_mul(IntMatrix.identity(2), a) == a
    assert mat_mul(a, IntMatrix.zeros(2, 4)) == IntMatrix.zeros(2, 4)
    with pytest.raises(DimensionError):
        mat_mul(a, IntMatrix.zeros(3, 1))


def test_mat_mul_block_expansion_components():
    # pieces of a boundary composition: [1, -2n] . [-(1-2m), 0]^T = -(1-2m)
    for n in range(2, 6):
        for m in range(2, 6):
            left = IntMatrix.from_rows([[1, -2 * n]])
            right = IntMatrix.from_rows([[-(1 - 2 * m)], [0]])
            assert mat_mul(left, right).entries == (-(1 - 2 * m),)


def test_mat_mul_empty_shapes():
    a = IntMatrix.zeros(0, 3)
    b = IntMatrix.zeros(3, 2)
    assert mat_mul(a, b) == IntMatrix.zeros(0, 2)


def test_block_matrix_single_and_shape_law():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert block_matrix([[a]]) == a
    wide = block_matrix([[a, a, a]])
    assert (wide.rows, wide.cols) == (2, 6)
    assert wide.row(0) == (1, 2, 1, 2, 1, 2)
    with pytest.raises(DimensionError):
        block_matrix([[a, IntMatrix.zeros(3, 2)]])
    with pytest.raises(DimensionError):
        block_matrix([[a, a], [a]])


def test_det_small_cases():
    assert det(IntMatrix.identity(0)) == 1
    assert det(IntMatrix.from_rows([[5]])) == 5
    assert det(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
    assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    with pytest.raises(DimensionError):
        det(IntMatrix.zeros(2, 3))


def test_det_matches_permutation_expansion():
    from itertools import permutations

    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = IntMatrix(n, n, tuple(rng.randint(-5, 5) for _ in range(n * n)))
        expected = 0
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= a.at(i, perm[i])
            expected += term
        assert det(a) == expected


def test_determinantal_divisor_examples():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert determinantal_divisor(a, 1) == 2
    assert determinantal_divisor(a, 2) == 8
    assert determinantal_divisor(IntMatrix.identity(2), 2) == 1
    with pytest.raises(ValueError):
        determinantal_divisor(a, 3)
    with pytest.raises(ValueError):
        determinantal_divisor(a, 0)


def test_snf_worked_example():
    assert snf(IntMatrix.from_rows([[2, 4], [6, 8]])).d == (2, 4)


def test_snf_zero_matrix():
    dec = snf(IntMatrix.zeros(3, 5))
    assert dec.d == (0, 0, 0)
    assert dec.rank == 0


def test_snf_transforms_identities():
    rng = random.Random(2024)
    for _ in range(200):
        a = random_matrix(rng, 6, 6)
        dec = snf(a, want_transforms=True)
        assert mat_mul(mat_mul(dec.left, a), dec.right) == IntMatrix.diagonal(
            a.rows, a.cols, dec.d
        )
        assert abs(det(dec.left)) == 1
        assert abs(det(dec.right)) == 1
        assert mat_mul(dec.right_inv, dec.right) == IntMatrix.identity(a.cols)


def test_snf_dividing_chain_and_sign():
    rng = random.Random(5)
    for _ in range(200):
        a = random_matrix(rng, 7, 7)
        d = snf(a).d
        assert all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0


def test_snf_agrees_with_minor_gcds():
    rng = random.Random(99)
    for _ in range(300):
        a = random_matrix(rng, 5, 5)
        d = snf(a).d
        prod = 1
        for i in range(1, min(a.rows, a.cols) + 1):
            prod *= d[i - 1]
            assert prod == determinantal_divisor(a, i)


def test_snf_invariant_under_transpose_and_permutation():
    rng = random.Random(17)
    for _ in range(100):
        a = random_matrix(rng, 5, 6)
        d = snf(a).d
        dt = snf(a.transpose()).d
        assert [x for x in d if x] == [x for x in dt if x]
        if a.rows > 1:
            rows = a.to_rows()
            rng.shuffle(rows)
            assert snf(IntMatrix.from_rows(rows)).d == d
        if a.cols > 1:
            cols = a.transpose().to_rows()
            rng.shuffle(cols)
            assert snf(IntMatrix.from_rows(cols).transpose()).d == d


def test_snf_no_overflow_large_entries():
    a = IntMatrix.from_rows(
        [[10**30, 2 * 10**30 + 1], [3 * 10**30, 5 * 10**30 + 7]]
    )
    dec = snf(a, want_transforms=True)
    assert mat_mul(mat_mul(dec.left, a), dec.right) == IntMatrix.diagonal(2, 2, dec.d)
    assert determinantal_divisor(a, 1) == dec.d[0]


def test_snf_empty_matrices():
    for shape in ((0, 0), (0, 4), (4, 0)):
        dec = snf(IntMatrix.zeros(*shape), want_transforms=True)
        assert dec.d == ()
        assert dec.rank == 0
        assert dec.left.rows == shape[0]
        assert dec.right.rows == shape[1]


def test_snf_transforms_on_every_small_shape_and_huge_entries():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def matrices(draw):
        m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        entries = draw(st.lists(st.integers(-(10**30), 10**30), min_size=m * n, max_size=m * n))
        return IntMatrix(m, n, tuple(entries))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(matrices())
    def check(a):
        dec = snf(a, want_transforms=True)
        assert dec.d == snf(a).d
        assert mat_mul(mat_mul(dec.left, a), dec.right) == IntMatrix.diagonal(
            a.rows, a.cols, dec.d
        )
        assert abs(det(dec.left)) == 1
        assert abs(det(dec.right)) == 1
        assert mat_mul(dec.right_inv, dec.right) == IntMatrix.identity(a.cols)

    check()
