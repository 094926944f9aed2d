import random
from math import comb, gcd

import pytest

from kgraph_ktheory.abgroup import FinAbGroup, ZERO_GROUP
from kgraph_ktheory.homology import (
    DefectiveComplexError,
    homology_all,
    homology_at,
)
from kgraph_ktheory.intmat import IntMatrix
from kgraph_ktheory.kgraph import (
    ChainComplex,
    CoefficientRow,
    adjacency_matrices,
    koszul_complex,
)

from helpers import oracle_invariant_factors, oracle_rank, spec_of


def cyc(*moduli):
    return FinAbGroup.from_parts(0, moduli)


def _random_commuting(rng, count, size=2, bound=2):
    """Commuting matrices: integer polynomials in one random matrix."""
    base = IntMatrix(
        size, size, tuple(rng.randint(-bound, bound) for _ in range(size * size))
    )
    mats = []
    for _ in range(count):
        c0 = rng.randint(-2, 2)
        c1 = rng.randint(-2, 2)
        poly = IntMatrix.identity(size).scaled(c0)
        poly = IntMatrix(
            size,
            size,
            tuple(
                poly.entries[i] + c1 * base.entries[i] for i in range(size * size)
            ),
        )
        mats.append(poly)
    return mats


def brute_homology(cc: ChainComplex, p: int) -> FinAbGroup:
    """Minor-determinant oracle for H_p over Z.

    Free rank is nullity(d_p) - rank(d_{p+1}) with ranks read off minors.
    For torsion: any x with m*x in im(d_{p+1}) satisfies d_p(m*x) = 0, hence
    d_p(x) = 0, so the saturation of the image already lies in the kernel and
    T(ker/im) = T(Z^{C_p}/im), which the minor-gcd ratios of d_{p+1} give.
    """
    d_here = cc.boundary(p)
    d_next = cc.boundary(p + 1)
    free = (cc.lengths[p] - oracle_rank(d_here)) - oracle_rank(d_next)
    torsion = [f for f in oracle_invariant_factors(d_next) if f > 1]
    return FinAbGroup.from_parts(free, torsion)


def test_single_map_cokernel_kernel():
    cc = ChainComplex((1, 1), (IntMatrix.from_rows([[2]]),), CoefficientRow.INTEGER)
    assert homology_at(cc, 0) == cyc(2)
    assert homology_at(cc, 1) == ZERO_GROUP


def test_zero_complex():
    cc = ChainComplex(
        (0, 0, 0), (IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)), CoefficientRow.INTEGER
    )
    assert homology_all(cc) == (ZERO_GROUP, ZERO_GROUP, ZERO_GROUP)


def test_zero_differentials_give_free_modules():
    cc = ChainComplex(
        (2, 3, 1),
        (IntMatrix.zeros(2, 3), IntMatrix.zeros(3, 1)),
        CoefficientRow.INTEGER,
    )
    assert homology_all(cc) == (FinAbGroup(2), FinAbGroup(3), FinAbGroup(1))


def test_degree_out_of_range():
    cc = ChainComplex((1, 1), (IntMatrix.from_rows([[2]]),), CoefficientRow.INTEGER)
    with pytest.raises(ValueError):
        homology_at(cc, 2)
    with pytest.raises(ValueError):
        homology_at(cc, -1)


def test_defective_complex_rejected():
    bad = ChainComplex(
        (1, 1, 1),
        (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])),
        CoefficientRow.INTEGER,
    )
    with pytest.raises(DefectiveComplexError):
        homology_at(bad, 1)
    with pytest.raises(DefectiveComplexError):
        homology_all(bad)


def test_rank3_family_integer_homology():
    # (n1, m2, m3) = (2, 5, 8): g = gcd(15, 9, 15) = 3
    mats = adjacency_matrices(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    cc = koszul_complex(mats, CoefficientRow.INTEGER)
    assert homology_all(cc) == (cyc(3), cyc(3, 3), cyc(3), ZERO_GROUP)


def test_rank3_family_mod2_homology_vanishes():
    mats = adjacency_matrices(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    cc = koszul_complex(mats, CoefficientRow.MOD2)
    assert homology_all(cc) == (ZERO_GROUP,) * 4


def test_rank4_family_integer_homology():
    # all crossing colors of size 2: g = 15
    mats = adjacency_matrices(spec_of([("T", 2)] * 4))
    cc = koszul_complex(mats, CoefficientRow.INTEGER)
    assert homology_all(cc) == (
        cyc(15),
        cyc(15, 15, 15),
        cyc(15, 15, 15),
        cyc(15),
        ZERO_GROUP,
    )
    # a g = 3 instance: gcd(15, 9, 15, 27) = 3
    mats = adjacency_matrices(spec_of([("T", 2), ("D", 5), ("D", 8), ("D", 14)]))
    cc = koszul_complex(mats, CoefficientRow.INTEGER)
    assert homology_all(cc) == (
        cyc(3),
        cyc(3, 3, 3),
        cyc(3, 3, 3),
        cyc(3),
        ZERO_GROUP,
    )


def test_rank3_scalar_sum_homology():
    mats = adjacency_matrices(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    cc = koszul_complex(mats, CoefficientRow.SCALAR_SUM)
    assert homology_all(cc) == (cyc(3), cyc(3, 3), cyc(3), ZERO_GROUP)


def test_mod2_homology_of_zero_blocks():
    # identity adjacency makes every mod-2 block zero: homology is everything
    eye = IntMatrix.identity(2)
    cc = koszul_complex((eye, eye, eye), CoefficientRow.MOD2)
    assert homology_all(cc) == (cyc(2, 2), cyc(*(2,) * 6), cyc(*(2,) * 6), cyc(2, 2))


def test_rank_nullity_and_euler_characteristic():
    from kgraph_ktheory.intmat import snf

    rng = random.Random(31)
    for _ in range(40):
        mats = _random_commuting(rng, rng.randint(1, 3))
        cc = koszul_complex(mats, CoefficientRow.INTEGER)
        hom = homology_all(cc)
        euler_modules = sum(
            (-1) ** p * cc.lengths[p] for p in range(cc.degree + 1)
        )
        euler_homology = sum(
            (-1) ** p * hom[p].free_rank for p in range(cc.degree + 1)
        )
        assert euler_modules == euler_homology
        for p in range(cc.degree + 1):
            r = snf(cc.boundary(p)).rank
            assert r == oracle_rank(cc.boundary(p))
            nullity = cc.lengths[p] - r
            assert hom[p].free_rank == nullity - oracle_rank(cc.boundary(p + 1))


def test_homology_matches_brute_force_oracle():
    rng = random.Random(13)
    for _ in range(60):
        mats = _random_commuting(rng, rng.randint(1, 3))
        cc = koszul_complex(mats, CoefficientRow.INTEGER)
        for p in range(cc.degree + 1):
            assert homology_at(cc, p) == brute_homology(cc, p), (mats, p)


def test_homology_invariant_under_color_permutation():
    rng = random.Random(77)
    for _ in range(25):
        k = rng.randint(2, 4)
        colors = [(rng.choice("DT"), rng.randint(2, 5)) for _ in range(k)]
        colors[rng.randrange(k)] = ("T", rng.randint(2, 5))
        mats = list(adjacency_matrices(spec_of(colors)))
        ref = homology_all(koszul_complex(tuple(mats), CoefficientRow.INTEGER))
        rng.shuffle(mats)
        assert homology_all(koszul_complex(tuple(mats), CoefficientRow.INTEGER)) == ref


def test_family_torsion_annihilated_by_g():
    from kgraph_ktheory.families import closed_form

    rng = random.Random(5)
    for _ in range(25):
        k = rng.choice((3, 4))
        colors = [(rng.choice("DT"), rng.randint(2, 6)) for _ in range(k)]
        colors[rng.randrange(k)] = ("T", rng.randint(2, 6))
        spec = spec_of(colors)
        g = closed_form(spec).g
        cc = koszul_complex(adjacency_matrices(spec), CoefficientRow.INTEGER)
        for group in homology_all(cc):
            assert group.free_rank == 0
            assert all(g % t == 0 for t in group.torsion)


def test_koszul_rows_at_large_sizes_match_the_gcd_prediction():
    # h = gcd{1 - 2n_a, 1 - 2m_c}, k = gcd{1 + 2n_a, 1 - 2m_c}, C = C(r - 1, p):
    # INTEGER (Z_h + Z_k)^C, SCALAR_SUM Z_h^C, SCALAR_DIFF Z_k^C, MOD2 zero
    rng = random.Random(2024)
    for rank in range(1, 7):
        for _ in range(10):
            colors = [
                (rng.choice("DT"), rng.randint(2, 2 ** rng.randint(1, 100)))
                for _ in range(rank)
            ]
            colors[rng.randrange(rank)] = ("T", rng.randint(2, 2 ** rng.randint(1, 100)))
            loops = [1 - 2 * size for kind, size in colors if kind == "D"]
            ns = [size for kind, size in colors if kind == "T"]
            h = gcd(*(1 - 2 * n for n in ns), *loops)
            k = gcd(*(1 + 2 * n for n in ns), *loops)
            predicted = {
                CoefficientRow.INTEGER: lambda c: cyc(*(h, k) * c),
                CoefficientRow.SCALAR_SUM: lambda c: cyc(*(h,) * c),
                CoefficientRow.SCALAR_DIFF: lambda c: cyc(*(k,) * c),
                CoefficientRow.MOD2: lambda c: ZERO_GROUP,
            }
            mats = adjacency_matrices(spec_of(colors))
            for row, group in predicted.items():
                expected = tuple(group(comb(rank - 1, p)) for p in range(rank + 1))
                assert homology_all(koszul_complex(mats, row)) == expected, (colors, row)


def test_mod2_row_obeys_universal_coefficients():
    # H_p(C; Z_2) = H_p (x) Z_2 + Tor(H_{p-1}, Z_2): its dimension is the free
    # rank of H_p plus the even torsion factors of H_p and of H_{p-1}
    rng = random.Random(212)
    for _ in range(400):
        n0, n1 = rng.randint(0, 6), rng.randint(0, 6)
        d = IntMatrix(n0, n1, tuple(rng.randint(-4, 4) for _ in range(n0 * n1)))
        integral = homology_all(ChainComplex((n0, n1), (d,), CoefficientRow.INTEGER))
        mod2 = homology_all(ChainComplex((n0, n1), (d.mod(2),), CoefficientRow.MOD2))

        def evens(group):
            return sum(1 for t in group.torsion if t % 2 == 0)

        for p, group in enumerate(mod2):
            assert group.free_rank == 0 and set(group.torsion) <= {2}
            below = evens(integral[p - 1]) if p else 0
            expected = integral[p].free_rank + evens(integral[p]) + below
            assert len(group.torsion) == expected, (d.to_rows(), p)
