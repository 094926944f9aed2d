"""Finitely generated abelian groups and extension resolution.

Groups are kept in one canonical shape, the invariant-factor chain
(free rank plus torsion moduli t_1 | t_2 | ...), so that equality testing
is plain tuple comparison.  Extensions that cannot be split by one of the
recognised certificates stay first-class *unresolved* values rather than
errors: some spectral-sequence outputs are legitimately undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable, Optional, Sequence


def _invariant_chain(moduli: Iterable[int]) -> tuple[int, ...]:
    """Rewrite a multiset of cyclic orders as a dividing chain.

    Uses the identity Z_a + Z_b = Z_gcd(a,b) + Z_lcm(a,b) pairwise until the
    list is a chain; no factorization needed.
    """
    vals = [abs(int(m)) for m in moduli if abs(int(m)) != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a != 0:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a // g * b
                    changed = True
    return tuple(v for v in vals if v != 1)


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        prev = 1
        for t in self.torsion:
            if t < 2:
                raise ValueError(f"torsion modulus {t} < 2; canonical form required")
            if t % prev != 0:
                raise ValueError(f"torsion {self.torsion} is not a dividing chain")
            prev = t

    @classmethod
    def from_parts(cls, free_rank: int = 0, moduli: Sequence[int] = ()) -> "FinAbGroup":
        """Canonicalize arbitrary cyclic factors; modulus 0 means a Z summand."""
        extra_free = sum(1 for m in moduli if m == 0)
        return cls(free_rank + extra_free, _invariant_chain(m for m in moduli if m))

    @classmethod
    def cyclic(cls, m: int) -> "FinAbGroup":
        return cls.from_parts(0, (m,))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def exponent(self) -> Optional[int]:
        """Least positive annihilator (1 for the trivial group); None if infinite."""
        if not self.is_finite:
            return None
        return self.torsion[-1] if self.torsion else 1

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        while i < len(self.torsion):
            j = i
            while j < len(self.torsion) and self.torsion[j] == self.torsion[i]:
                j += 1
            count = j - i
            parts.append(f"Z_{self.torsion[i]}" + (f"^{count}" if count > 1 else ""))
            i = j
        return " + ".join(parts)


ZERO_GROUP = FinAbGroup()


def group_from_cokernel(d: Sequence[int], target_dim: int) -> FinAbGroup:
    """Cokernel of a map into Z^target_dim whose Smith diagonal is ``d``."""
    nonzero = [abs(x) for x in d if x != 0]
    if len(nonzero) > target_dim:
        raise ValueError(
            f"{len(nonzero)} nonzero invariant factors exceed target dimension {target_dim}"
        )
    return FinAbGroup.from_parts(target_dim - len(nonzero), nonzero)


def direct_sum(a: FinAbGroup, b: FinAbGroup) -> FinAbGroup:
    return FinAbGroup.from_parts(a.free_rank + b.free_rank, a.torsion + b.torsion)


def equal_groups(a: FinAbGroup, b: FinAbGroup) -> bool:
    """True iff the canonical forms coincide."""
    return a == b


class ExtensionCertificate(Enum):
    TRIVIAL_SIDE = "TrivialSide"
    COPRIME_ORDERS = "CoprimeOrders"
    CMAP_SPLITTING = "CMapSplitting"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class ExtensionOutcome:
    """Result of trying to identify the middle group of 0 -> sub -> ? -> quotient -> 0."""

    resolved: bool
    group: Optional[FinAbGroup]
    sub: FinAbGroup
    quotient: FinAbGroup
    certificate: ExtensionCertificate

    def __post_init__(self) -> None:
        if self.resolved != (self.certificate is not ExtensionCertificate.UNRESOLVED):
            raise ValueError("resolved flag inconsistent with certificate")
        if self.resolved and self.group is None:
            raise ValueError("resolved outcome must carry a group")


def resolve_extension(
    sub: FinAbGroup,
    quotient: FinAbGroup,
    *,
    cmap_splitting: bool = False,
) -> ExtensionOutcome:
    """Split an abelian extension when a sound certificate applies.

    Splitting certificates, in the order tried:

    - ``TrivialSide``: one side is the zero group.
    - ``CoprimeOrders``: both sides finite with coprime orders, so the
      extension is the direct sum (the unique abelian group with that
      subgroup/quotient pair).
    - ``CMapSplitting``: the caller vouches for a splitting obtained from the
      complexification comparison on the spectral page.

    Anything else stays ``Unresolved`` with both subfactors recorded.
    """
    cert = None
    if sub.is_trivial or quotient.is_trivial:
        cert = ExtensionCertificate.TRIVIAL_SIDE
    elif sub.is_finite and quotient.is_finite and gcd(sub.order(), quotient.order()) == 1:
        cert = ExtensionCertificate.COPRIME_ORDERS
    elif cmap_splitting:
        cert = ExtensionCertificate.CMAP_SPLITTING
    if cert is None:
        return ExtensionOutcome(
            resolved=False,
            group=None,
            sub=sub,
            quotient=quotient,
            certificate=ExtensionCertificate.UNRESOLVED,
        )
    return ExtensionOutcome(
        resolved=True,
        group=direct_sum(sub, quotient),
        sub=sub,
        quotient=quotient,
        certificate=cert,
    )
