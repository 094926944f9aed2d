import random
from math import comb, gcd

import pytest

from kgraph_ktheory.abgroup import FinAbGroup, ZERO_GROUP
from kgraph_ktheory.families import (
    IncomparableLabelsError,
    closed_form,
    cuntz_decomposition,
    expected_table,
    iso_class,
    iso_equal,
)
from kgraph_ktheory.homology import homology_all
from kgraph_ktheory.kgraph import (
    CoefficientRow,
    UnsupportedRankError,
    adjacency_matrices,
    koszul_complex,
)
from kgraph_ktheory.numtheory import lemma_hk_coprime
from kgraph_ktheory.spectral import compute_ktheory

from helpers import spec_of


def cyc(*moduli):
    return FinAbGroup.from_parts(0, moduli)


def _random_family_spec(rng, involution=None):
    k = rng.choice((3, 4))
    colors = [(rng.choice("DT"), rng.randint(2, 7)) for _ in range(k)]
    colors[rng.randrange(k)] = ("T", rng.randint(2, 7))
    inv = involution or rng.choice(("trivial", "swap"))
    return spec_of(colors, inv)


def test_closed_form_examples():
    inv = closed_form(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    assert (inv.g, inv.h, inv.k) == (3, 3, 1)
    inv = closed_form(spec_of([("T", 2), ("T", 2), ("D", 8)]))
    assert (inv.g, inv.h, inv.k) == (15, 3, 5)
    inv = closed_form(spec_of([("T", 2)] * 4))
    assert (inv.g, inv.h, inv.k) == (15, 3, 5)


def test_closed_form_unsupported_rank():
    with pytest.raises(UnsupportedRankError):
        closed_form(spec_of([("T", 2), ("T", 3)]))


def test_closed_form_rejects_a_broken_factorization(monkeypatch):
    # g = h * k with gcd(h, k) = 1 is checked by code that survives python -O
    import kgraph_ktheory.families as families_mod

    monkeypatch.setattr(families_mod, "gcd_all", lambda terms: 3)
    with pytest.raises(ValueError, match="coprime product"):
        closed_form(spec_of([("T", 2), ("D", 5), ("D", 8)]))


def test_closed_form_satisfies_hk_lemmas():
    rng = random.Random(14)
    for _ in range(200):
        spec = _random_family_spec(rng)
        inv = closed_form(spec)
        assert inv.g == inv.h * inv.k
        assert gcd(inv.h, inv.k) == 1
        assert inv.g % 2 == 1 and inv.h % 2 == 1 and inv.k % 2 == 1
        # pure-crossing case delegates directly to the appendix identities
        if inv.case.number == spec.rank:
            ns = [c.size for c in spec.colors]
            rep = lemma_hk_coprime(ns)
            assert (rep.g, rep.h, rep.k) == (inv.g, inv.h, inv.k)


def test_expected_table_patterns():
    t = expected_table(spec_of([("T", 2), ("T", 2), ("D", 8)]))
    assert t.ko == (cyc(15), cyc(15, 15), cyc(15), ZERO_GROUP) * 2
    assert t.ku == (cyc(15, 15),) * 8

    t = expected_table(spec_of([("T", 2), ("T", 2), ("D", 8)], "swap"))
    assert t.ko == (cyc(15), cyc(3, 3), cyc(15), cyc(5, 5)) * 2
    assert t.ku == (cyc(15, 15),) * 8

    t = expected_table(spec_of([("T", 2)] * 4, "swap"))
    assert t.ko[0] == cyc(3, 5, 5, 5)
    assert t.ko[1] == cyc(3, 3, 3, 5)
    assert t.ku == (cyc(*(15,) * 4),) * 8

    assert expected_table(spec_of([("T", 2), ("D", 2), ("D", 3)])).ko == (ZERO_GROUP,) * 8


def test_expected_table_invariant_under_reordering_same_kind():
    a = expected_table(spec_of([("T", 2), ("D", 5), ("D", 8)], "swap"))
    b = expected_table(spec_of([("D", 8), ("T", 2), ("D", 5)], "swap"))
    assert a.ko == b.ko and a.ku == b.ku


def test_expected_equals_pipeline_on_random_instances():
    rng = random.Random(99)
    for _ in range(60):
        spec = _random_family_spec(rng)
        assert compute_ktheory(spec).table.groups_equal(expected_table(spec))


def test_cuntz_decomposition_trivial():
    spec = spec_of([("T", 2), ("T", 2), ("D", 8)])
    summands = cuntz_decomposition(spec)
    assert [(s.algebra_index, s.shift, s.multiplicity) for s in summands] == [
        (16, 0, 1),
        (16, -1, 2),
        (16, -2, 1),
    ]


def test_cuntz_decomposition_rank4_binomial():
    spec = spec_of([("T", 2)] * 4)
    summands = cuntz_decomposition(spec)
    assert [s.multiplicity for s in summands] == [1, 3, 3, 1]
    assert [s.shift for s in summands] == [0, -1, -2, -3]


def test_cuntz_decomposition_swap_blocks():
    spec = spec_of([("T", 2), ("T", 2), ("D", 8)], "swap")
    summands = cuntz_decomposition(spec)
    h_block = [s for s in summands if s.algebra_index == 4]  # h + 1
    k_block = [s for s in summands if s.algebra_index == 6]  # k + 1
    assert [(s.shift, s.multiplicity) for s in h_block] == [(0, 1), (-1, 2), (-2, 1)]
    assert [(s.shift, s.multiplicity) for s in k_block] == [(-4, 1), (-5, 2), (-6, 1)]


def test_cuntz_decomposition_g_one_rejected():
    with pytest.raises(ValueError):
        cuntz_decomposition(spec_of([("T", 2), ("D", 2), ("D", 3)]))


def test_cuntz_multiplicities_match_homology_ranks():
    rng = random.Random(4)
    for _ in range(20):
        spec = _random_family_spec(rng, involution="trivial")
        inv = closed_form(spec)
        if inv.g == 1:
            continue
        summands = cuntz_decomposition(spec)
        mats = adjacency_matrices(spec)
        hom = homology_all(koszul_complex(mats, CoefficientRow.INTEGER))
        for s in summands:
            p = -s.shift
            assert s.multiplicity == comb(spec.rank - 1, p)
            assert len(hom[p].torsion) == s.multiplicity


def test_iso_class_labels():
    a = iso_class(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    assert a.params == (3,)
    b = iso_class(spec_of([("T", 2), ("D", 5), ("D", 8)], "swap"))
    assert b.params == (3, 1)
    assert iso_equal(a, a)
    assert iso_equal(b, b)
    with pytest.raises(IncomparableLabelsError):
        iso_equal(a, b)


def test_iso_class_orders_h_and_k():
    # swapping h and k values must produce distinct swap labels
    left = iso_class(spec_of([("T", 2), ("D", 5), ("D", 14)], "swap"))
    right = iso_class(spec_of([("T", 7), ("D", 5), ("D", 14)], "swap"))
    assert left.params == tuple(reversed(right.params))
    assert left.params != right.params
    assert not iso_equal(left, right)
    # while the complex invariant agrees
    g_left = closed_form(spec_of([("T", 2), ("D", 5), ("D", 14)])).g
    g_right = closed_form(spec_of([("T", 7), ("D", 5), ("D", 14)])).g
    assert g_left == g_right == 3
