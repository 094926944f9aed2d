import pytest

from kgraph_ktheory.abgroup import ExtensionCertificate, FinAbGroup, ZERO_GROUP
from kgraph_ktheory.kgraph import InvalidGraphError
from kgraph_ktheory.spectral import (
    CertificateKind,
    ConvergenceCertificate,
    ExtensionRecord,
    KTheoryTable,
    Part,
    UnknownConvergenceError,
    assemble,
    build_e2,
    compute_ktheory,
    converge,
)

from helpers import spec_of


def cyc(*moduli):
    return FinAbGroup.from_parts(0, moduli)


def test_build_e2_rejects_invalid_specs():
    with pytest.raises(InvalidGraphError):
        build_e2(spec_of([("D", 2), ("D", 3)]))
    with pytest.raises(InvalidGraphError):
        build_e2(spec_of([("T", 1)]))


def test_e2_page_rank3_trivial():
    real, cplx = build_e2(spec_of([("T", 2), ("D", 5), ("D", 8)]))
    row = [cyc(3), cyc(3, 3), cyc(3), ZERO_GROUP]
    assert real.period == 8 and cplx.period == 2
    for p in range(4):
        assert real.entry(p, 0) == row[p]
        assert real.entry(p, 4) == row[p]
        for q in (1, 2, 3, 5, 6, 7):
            assert real.entry(p, q) == ZERO_GROUP
        for q in (0, 2, 4, 6):
            assert cplx.entry(p, q) == row[p]
        assert cplx.entry(p, 1) == ZERO_GROUP
    # out-of-range columns are zero; q wraps with the period (also below zero)
    assert real.entry(4, 0) == ZERO_GROUP
    assert real.entry(-1, 0) == ZERO_GROUP
    assert real.entry(0, -4) == real.entry(0, 4)
    assert cplx.entry(1, -2) == cplx.entry(1, 0)


def test_e2_page_rank3_swap():
    # (n1, m2, m3) = (2, 5, 8): h = gcd(3, 9, 15) = 3, k = gcd(5, 9, 15) = 1
    real, cplx = build_e2(spec_of([("T", 2), ("D", 5), ("D", 8)], "swap"))
    h_row = [cyc(3), cyc(3, 3), cyc(3), ZERO_GROUP]
    for p in range(4):
        assert real.entry(p, 0) == h_row[p]
        assert real.entry(p, 4) == h_row[p]
        assert real.entry(p, 2) == ZERO_GROUP  # k = 1 row collapses
        assert real.entry(p, 6) == ZERO_GROUP
        for q in (1, 3, 5, 7):
            assert real.entry(p, q) == ZERO_GROUP
        assert cplx.entry(p, 0) == h_row[p]  # complex part ignores the involution


def test_e2_page_all_zero_when_g_is_one():
    real, cplx = build_e2(spec_of([("T", 2), ("D", 2), ("D", 3)]))
    for p in range(4):
        for q in range(8):
            assert real.entry(p, q) == ZERO_GROUP
        for q in range(2):
            assert cplx.entry(p, q) == ZERO_GROUP


def test_converge_rank3_all_zero_source_or_target():
    spec = spec_of([("T", 2), ("T", 2), ("D", 8)])
    conv = converge(build_e2(spec), spec)
    assert conv.converged
    assert conv.unknown == ()
    assert all(
        c.kind is CertificateKind.ZERO_SOURCE_OR_TARGET for c in conv.certificates
    )


def test_converge_rank4_complex_d3_needs_shadow():
    spec = spec_of([("T", 2)] * 4)
    conv = converge(build_e2(spec), spec)
    assert conv.converged
    shadows = [c for c in conv.certificates if c.kind is CertificateKind.REAL_SHADOW_C]
    assert shadows == [
        ConvergenceCertificate(CertificateKind.REAL_SHADOW_C, 3, 3, 0, Part.COMPLEX)
    ]


def test_converge_rank4_swap_real_d3_coprime():
    spec = spec_of([("T", 2)] * 4, "swap")
    conv = converge(build_e2(spec), spec)
    assert conv.converged
    coprime = [
        (c.page, c.p, c.q, c.part)
        for c in conv.certificates
        if c.kind is CertificateKind.COPRIME_TORSION
    ]
    # d3 out of the h-rows (q = 0, 4) into the k-rows and vice versa
    assert (3, 3, 0, Part.REAL) in coprime
    assert (3, 3, 2, Part.REAL) in coprime


def test_every_candidate_differential_certified_once():
    spec = spec_of([("T", 2), ("T", 3), ("D", 4), ("D", 5)], "swap")
    conv = converge(build_e2(spec), spec)
    assert conv.converged
    seen = [(c.page, c.p, c.q, c.part) for c in conv.certificates]
    assert len(seen) == len(set(seen))
    k = 4
    expected = sum((k - r + 1) * (8 + 2) for r in range(2, k + 1))
    assert len(seen) == expected
    for r in range(2, k + 1):
        for p in range(r, k + 1):
            for q in range(8):
                assert (r, p, q, Part.REAL) in seen
            for q in range(2):
                assert (r, p, q, Part.COMPLEX) in seen


def test_converge_rank6_unknown_at_d5():
    spec = spec_of([("T", 2)] * 6)
    conv = converge(build_e2(spec), spec)
    assert not conv.converged
    kinds = {(c.page, c.p, c.q, c.part) for c in conv.unknown}
    assert (5, 5, 0, Part.REAL) in kinds
    assert (5, 5, 0, Part.COMPLEX) in kinds
    with pytest.raises(UnknownConvergenceError):
        assemble(conv, spec)


def test_shadow_certified_through_pages():
    from kgraph_ktheory.spectral import _shadow_certified_through

    for k, expected in ((3, 3), (4, 4), (5, 5), (6, 4)):
        spec = spec_of([("T", 2)] * k)
        real, _ = build_e2(spec)
        # the trivial real page is its own shadow; rank 6 breaks at d_5
        assert _shadow_certified_through(real) == expected


def test_rank5_converges_with_unresolved_extensions():
    spec = spec_of([("T", 2)] * 5)
    res = compute_ktheory(spec)
    assert res.status == "ok"
    table = res.table
    assert not table.fully_resolved
    # KO_0 is an undetermined extension of Z_g by Z_g
    assert table.ko[0] is None and table.ko[4] is None
    assert table.ko[1] == cyc(*(15,) * 4)
    assert table.ku[0] is None and table.ku[1] == cyc(*(15,) * 8)
    unresolved = [
        n
        for n in table.resolution_notes
        if isinstance(n, ExtensionRecord) and not n.outcome.resolved
    ]
    assert unresolved
    assert all(
        r.outcome.certificate is ExtensionCertificate.UNRESOLVED for r in unresolved
    )


def test_assemble_rank3_trivial_table():
    res = compute_ktheory(spec_of([("T", 2), ("T", 2), ("D", 8)]))
    table = res.table
    g = 15
    assert table.ko == (
        cyc(g),
        cyc(g, g),
        cyc(g),
        ZERO_GROUP,
        cyc(g),
        cyc(g, g),
        cyc(g),
        ZERO_GROUP,
    )
    assert table.ku == (cyc(g, g),) * 8
    cmap = [
        n
        for n in table.resolution_notes
        if isinstance(n, ExtensionRecord)
        and n.outcome.certificate is ExtensionCertificate.CMAP_SPLITTING
    ]
    assert cmap and all(r.part is Part.COMPLEX for r in cmap)


def test_assemble_rank3_swap_table():
    res = compute_ktheory(spec_of([("T", 2), ("T", 2), ("D", 8)], "swap"))
    table = res.table
    assert table.ko == (
        cyc(15),
        cyc(3, 3),
        cyc(15),
        cyc(5, 5),
        cyc(15),
        cyc(3, 3),
        cyc(15),
        cyc(5, 5),
    )
    assert table.ku == (cyc(15, 15),) * 8


def test_assemble_rank4_tables():
    g = 15
    res = compute_ktheory(spec_of([("T", 2)] * 4))
    assert res.table.ko == (
        cyc(g),
        cyc(g, g, g),
        cyc(g, g, g),
        cyc(g),
    ) * 2
    assert res.table.ku == (cyc(*(g,) * 4),) * 8

    res = compute_ktheory(spec_of([("T", 2)] * 4, "swap"))
    assert res.table.ko == (
        cyc(3, 5, 5, 5),
        cyc(3, 3, 3, 5),
        cyc(3, 3, 3, 5),
        cyc(3, 5, 5, 5),
    ) * 2
    assert res.table.ku == (cyc(*(g,) * 4),) * 8


def test_ku_period_two_and_ko_period_eight():
    for colors, inv in [
        ([("T", 2), ("D", 5), ("D", 8)], "trivial"),
        ([("T", 3), ("T", 2), ("D", 4)], "swap"),
        ([("T", 2), ("T", 3), ("T", 2), ("D", 5)], "swap"),
    ]:
        table = compute_ktheory(spec_of(colors, inv)).table
        for n in range(8):
            assert table.ku[n] == table.ku[(n + 2) % 8]
        assert len(table.ko) == 8


def test_swap_complex_part_equals_trivial_complex_part():
    for colors in [
        [("T", 2), ("D", 5), ("D", 8)],
        [("T", 3), ("T", 4), ("D", 2)],
        [("T", 2), ("T", 2), ("T", 3), ("T", 5)],
    ]:
        swap = compute_ktheory(spec_of(colors, "swap")).table
        triv = compute_ktheory(spec_of(colors, "trivial")).table
        assert swap.ku == triv.ku


def test_total_order_consistency():
    # |KU_n| equals the product of the complex diagonal entry orders
    for colors, inv in [
        ([("T", 2), ("T", 2), ("D", 8)], "trivial"),
        ([("T", 2), ("T", 3), ("T", 4), ("T", 5)], "swap"),
    ]:
        spec = spec_of(colors, inv)
        res = compute_ktheory(spec)
        for n in range(8):
            expected = 1
            for p in range(spec.rank + 1):
                expected *= res.cplx.entry(p, n - p).order()
            assert res.table.ku[n].order() == expected


def test_zero_table_for_g_one():
    res = compute_ktheory(spec_of([("T", 2), ("D", 2), ("D", 3)], "swap"))
    assert res.table.ko == (ZERO_GROUP,) * 8
    assert res.table.ku == (ZERO_GROUP,) * 8
    assert res.table.fully_resolved


def test_table_shape_guard():
    with pytest.raises(ValueError):
        KTheoryTable(ko=(ZERO_GROUP,) * 7, ku=(ZERO_GROUP,) * 8)


def test_assemble_rejects_disagreeing_bott_shifts():
    from kgraph_ktheory.spectral import (
        BottShiftDisagreementError,
        ConvergenceResult,
        E2Page,
    )

    # A forged complex page of period 8 whose diagonals 0 and 2, two Bott
    # shifts of KU_0, both resolve but to different groups.
    zero_row = (ZERO_GROUP,) * 8
    forged = E2Page(Part.REAL, 1, ((cyc(3), ZERO_GROUP, cyc(5)) + (ZERO_GROUP,) * 5, zero_row))
    blank = E2Page(Part.REAL, 1, (zero_row, zero_row))
    conv = ConvergenceResult(
        converged=True, real=blank, cplx=forged, shadow=blank, certificates=(), unknown=()
    )
    with pytest.raises(BottShiftDisagreementError, match="KU_0: .*Z_3, Z_5"):
        assemble(conv, spec_of([("T", 2)]))


def test_table_provenance_is_typed():
    table = compute_ktheory(spec_of([("T", 2)] * 5, "swap")).table
    assert not table.fully_resolved
    assert table.certificates and table.extensions
    assert all(isinstance(c, ConvergenceCertificate) for c in table.certificates)
    assert all(isinstance(e, ExtensionRecord) for e in table.extensions)
    assert any(not e.outcome.resolved for e in table.extensions)
    assert table.resolution_notes == table.certificates + table.extensions
