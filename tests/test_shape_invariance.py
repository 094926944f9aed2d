"""Provenance depends only on the shape (rank, involution, h > 1, k > 1).

Every E^2 entry is a power of Z_h, Z_k or Z_hk (see the ``spectral``
docstring), and the certificate and extension rules read only triviality
and gcds of exponents and orders, so with gcd(h, k) = 1 specs of one shape
take the same path through ``converge`` and ``assemble`` whatever h and k
are.  This is a metamorphic oracle at ranks 1, 2, 5 and 6, where no closed
form exists, and it is what reusing results across specs with equal pages
has to preserve.  Each spec is computed with the page memo cleared, and
within a shape with a gcd above 1 the specs have different h and k, hence
different pages.
"""

import random
from collections import Counter
from itertools import product

import pytest

from kgraph_ktheory import spectral
from kgraph_ktheory.spectral import E2Route, compute_ktheory

from helpers import scalar_gcds, spec_with_gcds

# (h, k) per spec of a shape: a value of 1 where the shape has the gcd at 1,
# otherwise distinct odd values, prime and prime power, coprime in each pair.
_GCDS = {
    (False, False): ((1, 1), (1, 1), (1, 1)),
    (True, False): ((3, 1), (7, 1), (25, 1)),
    (False, True): ((1, 5), (1, 11), (1, 9)),
    (True, True): ((3, 5), (7, 11), (25, 9)),
}


def _path(result):
    """What the shape determines: status, certificates and extension steps."""
    records = ()
    if result.table is not None:
        records = tuple(
            (e.part, e.degree, e.sub_position, e.quotient_position,
             e.outcome.certificate, e.outcome.resolved)
            for e in result.table.extensions
        )
    return result.status, result.convergence.certificates, records


@pytest.mark.parametrize("route", list(E2Route))
def test_provenance_depends_only_on_the_shape(route):
    rng = random.Random(34 if route is E2Route.SNF else 56)
    for rank, involution, shape in product(range(1, 7), ("trivial", "swap"), _GCDS):
        gcds = _GCDS[shape]
        if rank == 1:
            # one crossing color n alone has h = 2n - 1 and k = 2n + 1
            if shape != (True, True):
                continue
            gcds = ((3, 5), (7, 9), (25, 27))
        specs = [spec_with_gcds(rng, rank, involution, h, k) for h, k in gcds]
        assert {(h > 1, k > 1) for h, k in map(scalar_gcds, specs)} == {shape}
        paths = []
        for spec in specs:
            spectral._certified.cache_clear()
            paths.append(_path(compute_ktheory(spec, route=route)))
        assert all(path == paths[0] for path in paths), (rank, involution, shape)


def test_pinned_provenance_of_rank5_swap_with_h_and_k_above_one():
    spec = spec_with_gcds(random.Random(5), 5, "swap", 3, 5)
    status, certificates, records = _path(compute_ktheory(spec, route=E2Route.GCD))
    assert status == "ok"
    assert Counter(c.kind.value for c in certificates) == {
        "ZeroSourceOrTarget": 90,
        "CoprimeTorsion": 8,
        "RealShadowC": 2,
    }
    assert [
        (c.kind.value, c.page, c.p, c.q, c.part.value)
        for c in certificates
        if c.kind.value != "ZeroSourceOrTarget"
    ] == [
        ("CoprimeTorsion", 3, 3, 0, "real"),
        ("CoprimeTorsion", 3, 3, 2, "real"),
        ("CoprimeTorsion", 3, 3, 4, "real"),
        ("CoprimeTorsion", 3, 3, 6, "real"),
        ("CoprimeTorsion", 3, 4, 0, "real"),
        ("CoprimeTorsion", 3, 4, 2, "real"),
        ("CoprimeTorsion", 3, 4, 4, "real"),
        ("CoprimeTorsion", 3, 4, 6, "real"),
        ("RealShadowC", 3, 3, 0, "complex"),
        ("RealShadowC", 3, 4, 0, "complex"),
    ]
    assert [
        (part.value, degree, sub, quotient, certificate.value, resolved)
        for part, degree, sub, quotient, certificate, resolved in records
    ] == [
        ("real", 0, (2, -2), (4, -4), "CoprimeOrders", True),
        ("real", 0, (0, 0), (2, -2), "Unresolved", False),
        ("real", 1, (1, 0), (3, -2), "CoprimeOrders", True),
        ("real", 2, (2, 0), (4, -2), "CoprimeOrders", True),
        ("real", 2, (0, 2), (2, 0), "Unresolved", False),
        ("real", 3, (1, 2), (3, 0), "CoprimeOrders", True),
        ("real", 4, (2, 2), (4, 0), "CoprimeOrders", True),
        ("real", 4, (0, 4), (2, 2), "Unresolved", False),
        ("real", 5, (1, 4), (3, 2), "CoprimeOrders", True),
        ("real", 6, (2, 4), (4, 2), "CoprimeOrders", True),
        ("real", 6, (0, 6), (2, 4), "Unresolved", False),
        ("real", 7, (1, 6), (3, 4), "CoprimeOrders", True),
        ("complex", 0, (2, -2), (4, -4), "Unresolved", False),
        ("complex", 3, (1, 2), (3, 0), "CMapSplitting", True),
    ]
