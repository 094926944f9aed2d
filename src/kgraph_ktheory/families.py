"""Closed-form invariants and predicted K-theory tables for ranks 3 and 4.

Everything here evaluates gcd formulas on the alphabet sizes; nothing
touches a matrix.  The spectral pipeline must reproduce these tables on
every family instance, which is the central cross-validation of the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .abgroup import FinAbGroup, direct_sum
from .kgraph import (
    ColorKind,
    FamilyCase,
    GraphSpec,
    Involution,
    enumerate_family_case,
)
from .numtheory import gcd_all
from .spectral import KTheoryTable


@dataclass(frozen=True)
class FamilyInvariants:
    """The torsion invariants g = h*k (h, k coprime, all odd)."""

    g: int
    h: int
    k: int
    case: FamilyCase


def closed_form(spec: GraphSpec) -> FamilyInvariants:
    """Evaluate the case's gcd formulas; gcds are taken of absolute values.

    With crossing sizes n_1..n_j and loop sizes m_{j+1}..m_k the recipes are

        g = gcd{1 - 4 n_a^2, 1 - 4 n_a n_b (a < b), 1 - 2 m_c}
        h = gcd{1 - 2 n_a, 1 - 2 m_c}
        k = gcd{1 + 2 n_a, 1 - 2 m_c}

    which specialize to each rank-3/rank-4 case.
    """
    case = enumerate_family_case(spec)
    ns = [spec.colors[i].size for i in case.order if spec.colors[i].kind is ColorKind.OFF_DIAGONAL]
    ms = [spec.colors[i].size for i in case.order if spec.colors[i].kind is ColorKind.DIAGONAL]
    loop_terms = [1 - 2 * m for m in ms]
    g_terms = [1 - 4 * n * n for n in ns]
    g_terms += [1 - 4 * ns[a] * ns[b] for a in range(len(ns)) for b in range(a + 1, len(ns))]
    inv = FamilyInvariants(
        g=gcd_all(g_terms + loop_terms),
        h=gcd_all([1 - 2 * n for n in ns] + loop_terms),
        k=gcd_all([1 + 2 * n for n in ns] + loop_terms),
        case=case,
    )
    # the coprime-factorization identity behind the tables
    if inv.g != inv.h * inv.k or gcd(inv.h, inv.k) != 1:
        raise ValueError(
            f"g = {inv.g} is not the coprime product of h = {inv.h} and k = {inv.k}"
            f" for {spec}"
        )
    return inv


def _power(modulus: int, copies: int) -> FinAbGroup:
    return FinAbGroup.from_parts(0, (modulus,) * copies)


def expected_table(spec: GraphSpec) -> KTheoryTable:
    """The known table pattern instantiated with this spec's g, h, k.

    g = 1 collapses everything to zero.  KO is listed for n = 0..7 (its
    period-4 pattern repeated); KU is constant in n.
    """
    inv = closed_form(spec)
    rank = spec.rank
    ko_multiplicities = [comb(rank - 1, p) for p in range(4)]
    if spec.involution is Involution.TRIVIAL:
        ko = [_power(inv.g, ko_multiplicities[n % 4]) for n in range(8)]
        ku_entry = _power(inv.g, 2 ** (rank - 2))
    else:
        ko = []
        for n in range(8):
            h_copies = ko_multiplicities[n % 4]
            k_copies = ko_multiplicities[(n + 2) % 4]
            ko.append(direct_sum(_power(inv.h, h_copies), _power(inv.k, k_copies)))
        ku_entry = _power(inv.g, 2 ** (rank - 2))
    return KTheoryTable(ko=tuple(ko), ku=(ku_entry,) * 8)


@dataclass(frozen=True)
class CuntzSummand:
    """One suspension-shifted Cuntz-algebra K-theory block in a decomposition."""

    algebra_index: int  # the subscript: g+1, h+1 or k+1
    shift: int  # suspension exponent (0 or negative)
    multiplicity: int


def cuntz_decomposition(spec: GraphSpec) -> tuple[CuntzSummand, ...]:
    """Formal decomposition into Cuntz K-theory summands (labels only).

    Multiplicities are the binomial coefficients C(rank-1, j) at shifts -j.
    The trivial involution uses one block over g; the swap involution pairs
    an h-block at shifts 0..-(rank-1) with a k-block four suspensions later.
    """
    inv = closed_form(spec)
    if inv.g == 1:
        raise ValueError("g = 1: the K-theory vanishes and nothing decomposes")
    rank = spec.rank
    mults = [comb(rank - 1, j) for j in range(rank)]
    if spec.involution is Involution.TRIVIAL:
        return tuple(
            CuntzSummand(inv.g + 1, -j, mults[j]) for j in range(rank)
        )
    h_block = [CuntzSummand(inv.h + 1, -j, mults[j]) for j in range(rank)]
    k_block = [CuntzSummand(inv.k + 1, -4 - j, mults[j]) for j in range(rank)]
    return tuple(h_block + k_block)


class IncomparableLabelsError(ValueError):
    """Isomorphism labels from different involutions cannot be compared."""


@dataclass(frozen=True)
class IsoClassLabel:
    """Classification label: (g) for trivial, ordered (h, k) for swap.

    The ordered pair matters: swapping h and k changes the real algebra's
    class (a two-suspension shift) while leaving the complexification alone.
    """

    involution: Involution
    params: tuple[int, ...]


def iso_class(spec: GraphSpec) -> IsoClassLabel:
    inv = closed_form(spec)
    if spec.involution is Involution.TRIVIAL:
        return IsoClassLabel(spec.involution, (inv.g,))
    return IsoClassLabel(spec.involution, (inv.h, inv.k))


def iso_equal(a: IsoClassLabel, b: IsoClassLabel) -> bool:
    if a.involution is not b.involution:
        raise IncomparableLabelsError(
            "labels live under different involutions; only the complex invariant g is shared"
        )
    return a.params == b.params
