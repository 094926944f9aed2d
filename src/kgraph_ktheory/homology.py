"""Homology of chain complexes: H_p = ker(d_p) / im(d_{p+1}).

Every row is read off one transform-free Smith normal form per boundary.
C_p / ker(d_p) embeds in the free module C_{p-1}, so ker(d_p) is a direct
summand of C_p and contains the saturation of im(d_{p+1}).  Hence H_p is
free of rank n_p - rank d_p - rank d_{p+1} plus the invariant factors > 1 of
d_{p+1}.  That holds only on a true complex, so every composition
d_p . d_{p+1} is checked first.  On the mod-2 row, L.A.R = D with
det L, det R = +-1 keeps L and R invertible mod 2, so the rank r_p of d_p
over the two-element field counts its odd invariant factors and
H_p = Z_2^(n_p - r_p - r_{p+1}).
"""

from __future__ import annotations

from .abgroup import FinAbGroup
from .intmat import snf
from .kgraph import ChainComplex, CoefficientRow


class DefectiveComplexError(ValueError):
    """The alleged chain complex has a nonzero composition."""


def homology_at(cc: ChainComplex, p: int) -> FinAbGroup:
    """The p-th homology group as a canonical FinAbGroup.

    Raises if p is out of range or some composition d_q . d_{q+1} fails to
    vanish (defective input).
    """
    if not 0 <= p <= cc.degree:
        raise ValueError(f"degree {p} out of range 0..{cc.degree}")
    return homology_all(cc)[p]


def homology_all(cc: ChainComplex) -> tuple[FinAbGroup, ...]:
    """Homology in every degree 0..k.

    Raises DefectiveComplexError if some composition d_p . d_{p+1} is nonzero.
    Each group is built straight from the Smith diagonal of d_{p+1}: ``snf``
    returns it as a dividing chain, and ``FinAbGroup`` checks that chain on
    construction, so torsion factors out of dividing order raise instead of
    being silently re-canonicalized.
    """
    if not cc.composition_is_zero():
        raise DefectiveComplexError("some composition d_p . d_{p+1} is nonzero")
    decs = [snf(d) for d in cc.differentials]
    if cc.coefficient_tag is CoefficientRow.MOD2:
        ranks = [0, *(sum(f & 1 for f in dec.d) for dec in decs), 0]
        return tuple(
            FinAbGroup(0, (2,) * (n - ranks[p] - ranks[p + 1]))
            for p, n in enumerate(cc.lengths)
        )
    ranks = [0, *(dec.rank for dec in decs), 0]
    torsion = [tuple(f for f in dec.d if f > 1) for dec in decs] + [()]
    return tuple(
        FinAbGroup(n - ranks[p] - ranks[p + 1], torsion[p])
        for p, n in enumerate(cc.lengths)
    )
