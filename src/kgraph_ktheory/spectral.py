"""Spectral-sequence pages, convergence certificates, and K-theory assembly.

The pipeline is: row schedule -> homology per row -> E^2 pages (real with
period 8 in q, complex with period 2) -> certify every candidate
differential zero -> read the K-groups off the diagonals, resolving
extensions.

Convergence is never assumed: each potentially nonzero differential must
carry an explicit certificate, and the only rules encoded are the ones the
underlying arguments actually license.  A differential admitting no
certificate makes the whole computation return "unknown" rather than a
guess; this genuinely happens from rank 6 on.

Rows are computed by one of two routes, chosen by ``E2Route``.  The SNF
route builds each Koszul complex and reads its homology off Smith normal
forms; it is the default, and the only route the cross-check against the
closed forms of ``families`` may use, because the GCD route below evaluates
the very gcds those closed forms are made of.

The GCD route reads every row off the alphabet sizes.  Let a_i and b_i be
the 1x1 blocks of color i on the scalar sum and difference rows (1 - 2m for
a loop color, and 1 - 2n, respectively 1 + 2n, for a crossing color), and
put h = gcd(a_i), k = gcd(b_i) and C = C(rank - 1, p).  Then H_p is
(Z_h + Z_k)^C on the integer row, Z_h^C on the scalar sum row, Z_k^C on the
scalar difference row, and 0 on the mod-2 row.  Proof:

- Multiplication by any block B_i is null-homotopic on a Koszul complex, so
  B_i and hence det(B_i) = B_i adj(B_i) annihilate its homology H.  These
  determinants, (1 - 2m)^2 and 1 - 4n^2 (or a_i, b_i themselves on the
  scalar rows), are odd, so H = H (x) Z[1/2], the homology of the complex
  tensored with Z[1/2].
- Over Z[1/2] the basis e_1 + e_2, e_1 - e_2 of Z^2 diagonalizes every
  integer block at once: the loop block becomes (1 - 2m) I and the crossing
  block diag(1 - 2n, 1 + 2n).  So the integer row splits as the scalar sum
  row plus the scalar difference row.
- The Koszul complex on integers c_1..c_k depends on (c_1..c_k) only up to
  GL_k(Z), which moves it to (gcd, 0, ..., 0).  Hence it is isomorphic to
  K(gcd) (x) K(0)^(k-1), whose H_p is Z_gcd^C(k-1, p) when gcd is nonzero.
- Adjacency matrices have even entries, so on the mod-2 row every block is
  the identity and the complex is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import comb, gcd
from typing import Optional

from .abgroup import (
    ExtensionOutcome,
    FinAbGroup,
    ZERO_GROUP,
    resolve_extension,
)
from .homology import homology_all
from .intmat import IntMatrix
from .kgraph import (
    CoefficientRow,
    GraphSpec,
    InvalidGraphError,
    Involution,
    adjacency_matrices,
    involution_row_schedule,
    koszul_complex,
    validate,
)


class Part(Enum):
    REAL = "real"
    COMPLEX = "complex"


@dataclass(frozen=True)
class E2Page:
    """One part of an E^2 page: groups at (p, q), p in 0..k, q mod period.

    ``entries[p][q]`` is the group at column p and (reduced) row q; the
    period is 8 for the real part and 2 for the complex part.
    """

    part: Part
    k: int
    entries: tuple[tuple[FinAbGroup, ...], ...]

    @property
    def period(self) -> int:
        return 8 if self.part is Part.REAL else 2

    def entry(self, p: int, q: int) -> FinAbGroup:
        if not 0 <= p <= self.k:
            return ZERO_GROUP
        return self.entries[p][q % self.period]


# The complexification comparison is known to be an isomorphism on these
# coefficient rows of the real page; nothing else is assumed about it.
_C_ISO_ROWS: frozenset[tuple[Involution, int]] = frozenset({(Involution.TRIVIAL, 0)})


def _c_iso_on_row(involution: Involution, q: int) -> bool:
    return (involution, q % 8) in _C_ISO_ROWS


class E2Route(Enum):
    """How the homology of each E^2 row is computed (see the module docstring)."""

    SNF = "snf"
    GCD = "gcd"


@lru_cache(maxsize=1024)
def _row_homology(
    mats: tuple[IntMatrix, ...], row: CoefficientRow
) -> tuple[FinAbGroup, ...]:
    return homology_all(koszul_complex(mats, row))


@lru_cache(maxsize=1024)
def _gcd_row_group(moduli: tuple[int, ...], copies: int) -> FinAbGroup:
    return FinAbGroup.from_parts(0, moduli * copies)


def _gcd_row_homology(
    mats: tuple[IntMatrix, ...], row: CoefficientRow
) -> tuple[FinAbGroup, ...]:
    rank = len(mats)
    if row is CoefficientRow.MOD2:
        return (ZERO_GROUP,) * (rank + 1)
    # a_i and b_i read off the first row (a_00, a_01) of each adjacency matrix
    h = gcd(*(1 - m.entries[0] - m.entries[1] for m in mats))
    k = gcd(*(1 - m.entries[0] + m.entries[1] for m in mats))
    moduli = {
        CoefficientRow.INTEGER: (h, k),
        CoefficientRow.SCALAR_SUM: (h,),
        CoefficientRow.SCALAR_DIFF: (k,),
    }[row]
    return tuple(_gcd_row_group(moduli, comb(rank - 1, p)) for p in range(rank + 1))


def _build_page(
    involution: Involution, part: Part, mats: tuple[IntMatrix, ...], route: E2Route
) -> E2Page:
    k = len(mats)
    period, schedule = involution_row_schedule(involution, part is Part.COMPLEX)
    homology = _row_homology if route is E2Route.SNF else _gcd_row_homology
    rows = {tag: homology(mats, tag) for tag in set(schedule.values())}
    zero_row = (ZERO_GROUP,) * (k + 1)
    by_q = [rows[schedule[q]] if q in schedule else zero_row for q in range(period)]
    return E2Page(
        part=part, k=k, entries=tuple(tuple(row[p] for row in by_q) for p in range(k + 1))
    )


def build_e2(
    spec: GraphSpec, *, route: E2Route = E2Route.SNF
) -> tuple[E2Page, E2Page]:
    """E^2 pages (real, complex) for a validated spec."""
    report = validate(spec)
    if not report.ok:
        raise InvalidGraphError(report)
    mats = adjacency_matrices(spec)
    return (
        _build_page(spec.involution, Part.REAL, mats, route),
        _build_page(spec.involution, Part.COMPLEX, mats, route),
    )


class CertificateKind(Enum):
    ZERO_SOURCE_OR_TARGET = "ZeroSourceOrTarget"
    COPRIME_TORSION = "CoprimeTorsion"
    REAL_SHADOW_C = "RealShadowC"
    UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class ConvergenceCertificate:
    """Why the differential d_page at (p, q) of the given part is zero.

    ``Unknown`` means no rule applies and the page cannot be turned.
    """

    kind: CertificateKind
    page: int  # the r of d_r
    p: int
    q: int
    part: Part


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of certifying pages r = 2..k.

    Every certificate asserts its differential is zero, so whenever
    ``converged`` holds the E^infinity pages literally equal the E^2 pages
    carried here.  ``shadow`` is the trivial-involution real page of the same
    underlying graph, against which complex-part certificates were checked.
    """

    converged: bool
    real: E2Page
    cplx: E2Page
    shadow: E2Page
    certificates: tuple[ConvergenceCertificate, ...]
    unknown: tuple[ConvergenceCertificate, ...]


def _coprime_torsion(src: FinAbGroup, tgt: FinAbGroup) -> bool:
    if not (src.is_finite and tgt.is_finite):
        return False
    return gcd(src.exponent(), tgt.exponent()) == 1


def _certify(
    page: E2Page, shadow: E2Page, shadow_ok_through: int, r: int, p: int, q: int
) -> CertificateKind:
    src = page.entry(p, q)
    tgt = page.entry(p - r, q + r - 1)
    if src.is_trivial or tgt.is_trivial:
        return CertificateKind.ZERO_SOURCE_OR_TARGET
    if _coprime_torsion(src, tgt):
        return CertificateKind.COPRIME_TORSION
    if page.part is Part.COMPLEX and r - 1 <= shadow_ok_through:
        # Bott-shift the differential to the q = 0 representative.  There the
        # complexification is an isomorphism from the shadow's bottom row, so
        # a certified-zero shadow differential forces the complex one to zero.
        # Valid only while the shadow's own earlier pages are all certified
        # (shadow_ok_through), so that its page-r entries equal its E^2 ones.
        shadow_src = shadow.entry(p, 0)
        shadow_tgt = shadow.entry(p - r, (r - 1) % 8)
        if _c_iso_on_row(Involution.TRIVIAL, 0) and (
            shadow_src.is_trivial or shadow_tgt.is_trivial
        ):
            return CertificateKind.REAL_SHADOW_C
    return CertificateKind.UNKNOWN


def _shadow_certified_through(shadow: E2Page) -> int:
    """Largest page P with every shadow differential on pages 2..P plainly zero.

    Only the zero-source-or-target rule is used here: these are the trivial
    real page's own differentials, checked entrywise.
    """
    k = shadow.k
    for r in range(2, k + 1):
        for p in range(r, k + 1):
            for q in range(8):
                src = shadow.entry(p, q)
                tgt = shadow.entry(p - r, q + r - 1)
                if not (src.is_trivial or tgt.is_trivial):
                    return r - 1
    return k


def _shadow_page(spec: GraphSpec, real: E2Page, route: E2Route) -> E2Page:
    if spec.involution is Involution.TRIVIAL:
        return real
    return _build_page(Involution.TRIVIAL, Part.REAL, adjacency_matrices(spec), route)


def converge(
    pages: tuple[E2Page, E2Page], spec: GraphSpec, *, route: E2Route = E2Route.SNF
) -> ConvergenceResult:
    """Certify all candidate differentials d_r: (p, q) -> (p-r, q+r-1).

    Pages are scanned for r = 2..k.  If some differential has no certificate
    the scan stops after that page and the result cites every uncertified
    location found on it.  The swap involution's shadow page is built by
    ``route``; everything after that reads the three pages alone, and is
    what ``compute_ktheory`` reuses across specs with equal pages.
    """
    real, cplx = pages
    return _converge(real, cplx, _shadow_page(spec, real, route))


def _converge(real: E2Page, cplx: E2Page, shadow: E2Page) -> ConvergenceResult:
    k = real.k
    shadow_ok_through = _shadow_certified_through(shadow)
    certificates: list[ConvergenceCertificate] = []
    unknown: list[ConvergenceCertificate] = []
    for r in range(2, k + 1):
        for page in (real, cplx):
            for p in range(r, k + 1):
                for q in range(page.period):
                    kind = _certify(page, shadow, shadow_ok_through, r, p, q)
                    cert = ConvergenceCertificate(kind, r, p, q, page.part)
                    certificates.append(cert)
                    if kind is CertificateKind.UNKNOWN:
                        unknown.append(cert)
        if unknown:
            break
    return ConvergenceResult(
        converged=not unknown,
        real=real,
        cplx=cplx,
        shadow=shadow,
        certificates=tuple(certificates),
        unknown=tuple(unknown),
    )


class UnknownConvergenceError(RuntimeError):
    """Assembly was requested although some differential is uncertified."""


class BottShiftDisagreementError(RuntimeError):
    """Two Bott-shift representatives of one KU group resolved to different groups."""


@dataclass(frozen=True)
class ExtensionRecord:
    """One filtration step on the diagonal total degree = ``degree``."""

    part: Part
    degree: int
    sub_position: tuple[int, int]
    quotient_position: tuple[int, int]
    outcome: ExtensionOutcome


@dataclass(frozen=True)
class KTheoryTable:
    """KO_0..KO_7 and KU_0..KU_7 with the provenance that produced them.

    An entry is None when its extension problem stayed unresolved.  KU has
    period 2 and KO period 8 by construction.  ``extensions`` holds the
    records of KO_0..KO_7, then of the kept KU diagonal of each parity.
    """

    ko: tuple[Optional[FinAbGroup], ...]
    ku: tuple[Optional[FinAbGroup], ...]
    certificates: tuple[ConvergenceCertificate, ...] = ()
    extensions: tuple[ExtensionRecord, ...] = ()

    def __post_init__(self) -> None:
        if len(self.ko) != 8 or len(self.ku) != 8:
            raise ValueError("tables carry eight KO and eight KU groups")

    @property
    def resolution_notes(self) -> tuple[ConvergenceCertificate | ExtensionRecord, ...]:
        """The certificates followed by the extension records."""
        return self.certificates + self.extensions

    @property
    def fully_resolved(self) -> bool:
        return all(g is not None for g in self.ko + self.ku)

    def groups_equal(self, other: "KTheoryTable") -> bool:
        return self.ko == other.ko and self.ku == other.ku


def _diagonal(page: E2Page, n: int) -> list[tuple[tuple[int, int], FinAbGroup]]:
    """Nonzero entries (position, group) on p + q = n, p descending."""
    out = []
    for p in range(page.k, -1, -1):
        grp = page.entry(p, n - p)
        if not grp.is_trivial:
            out.append(((p, n - p), grp))
    return out


def _compose(
    entries: list[tuple[tuple[int, int], FinAbGroup]],
    part: Part,
    degree: int,
    cmap_for_step: bool = False,
) -> tuple[Optional[FinAbGroup], list[ExtensionRecord]]:
    """Fold a diagonal from the quotient end (largest p) downwards."""
    if not entries:
        return ZERO_GROUP, []
    records: list[ExtensionRecord] = []
    quot_pos, acc = entries[0]
    for sub_pos, grp in entries[1:]:
        outcome = resolve_extension(
            grp, acc, cmap_splitting=cmap_for_step and len(entries) == 2
        )
        records.append(
            ExtensionRecord(
                part=part,
                degree=degree,
                sub_position=sub_pos,
                quotient_position=quot_pos,
                outcome=outcome,
            )
        )
        if not outcome.resolved:
            return None, records
        acc = outcome.group
        quot_pos = sub_pos  # the accumulated group now sits at this filtration step
    return acc, records


def _cmap_splitting_available(
    entries: list[tuple[tuple[int, int], FinAbGroup]], shadow: E2Page, n: int
) -> bool:
    """Whether the complexification splitting applies to this complex diagonal.

    Requires the two-term shape used in the splitting argument: exactly two
    nonzero complex entries, the quotient one on a row where the comparison
    with the real page is an isomorphism, and the shadow real diagonal zero
    everywhere except (possibly) under that quotient entry.
    """
    if len(entries) != 2:
        return False
    (quot_p, quot_q), _ = entries[0]
    if not _c_iso_on_row(Involution.TRIVIAL, quot_q):
        return False
    for p in range(shadow.k + 1):
        if p != quot_p and not shadow.entry(p, n - p).is_trivial:
            return False
    return True


def assemble(conv: ConvergenceResult, spec: GraphSpec) -> KTheoryTable:
    """Read KO and KU off the converged pages, resolving each diagonal.

    The real part of degree n is the diagonal p + q = n of the real page.
    The complex part has period 2, but which certificates are available
    depends on the representative diagonal chosen (the real shadow has
    period 8), so all four Bott shifts of a diagonal are composed and the
    first fully resolved one is kept, with its extension records (the first
    shift's records when none resolves).  Resolved shifts of one parity
    must agree; BottShiftDisagreementError is raised if they do not.
    ``spec`` is only checked against the pages: the table is a function of
    ``conv`` alone, which ``compute_ktheory`` reuses across specs.
    """
    if spec.rank != conv.real.k:
        raise ValueError("convergence data does not belong to this spec")
    return _assemble(conv)


def _assemble(conv: ConvergenceResult) -> KTheoryTable:
    if not conv.converged:
        raise UnknownConvergenceError(
            f"uncertified differential at {conv.unknown[0]}"
        )
    extensions: list[ExtensionRecord] = []
    ko: list[Optional[FinAbGroup]] = []
    for n in range(8):
        group, records = _compose(_diagonal(conv.real, n), Part.REAL, n)
        extensions.extend(records)
        ko.append(group)

    ku_by_parity: list[Optional[FinAbGroup]] = []
    for parity in (0, 1):
        shifts = []
        for n in range(parity, 8, 2):
            entries = _diagonal(conv.cplx, n)
            cmap_ok = _cmap_splitting_available(entries, conv.shadow, n)
            shifts.append(_compose(entries, Part.COMPLEX, n, cmap_for_step=cmap_ok))
        resolved = [(group, records) for group, records in shifts if group is not None]
        if any(group != resolved[0][0] for group, _ in resolved):
            raise BottShiftDisagreementError(
                f"KU_{parity}: Bott shifts resolve to "
                + ", ".join(str(group) for group, _ in resolved)
            )
        group, records = resolved[0] if resolved else (None, shifts[0][1])
        extensions.extend(records)
        ku_by_parity.append(group)
    ku = tuple(ku_by_parity[n % 2] for n in range(8))

    return KTheoryTable(tuple(ko), ku, conv.certificates, tuple(extensions))


# ---------------------------------------------------------------------------
# document encoding: the JSON shapes the command line writes


def _group_to_doc(group: Optional[FinAbGroup]) -> Optional[dict]:
    if group is None:
        return None
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def _certificate_to_doc(cert: ConvergenceCertificate) -> dict:
    return {
        "kind": cert.kind.value,
        "r": cert.page,
        "p": cert.p,
        "q": cert.q,
        "part": cert.part.value,
    }


def _extension_to_doc(rec: ExtensionRecord) -> dict:
    out = rec.outcome
    return {
        "part": rec.part.value,
        "degree": rec.degree,
        "sub_position": list(rec.sub_position),
        "quotient_position": list(rec.quotient_position),
        "certificate": out.certificate.value,
        "resolved": out.resolved,
        "sub": _group_to_doc(out.sub),
        "quotient": _group_to_doc(out.quotient),
        "group": _group_to_doc(out.group),
    }


def table_to_doc(table: KTheoryTable) -> dict:
    return {
        "ko": [_group_to_doc(g) for g in table.ko],
        "ku": [_group_to_doc(g) for g in table.ku],
        "certificates": [_certificate_to_doc(c) for c in table.certificates],
        "extensions": [_extension_to_doc(e) for e in table.extensions],
        "resolved": table.fully_resolved,
    }


def encode_members(doc: dict) -> tuple[tuple[str, str], ...]:
    """Each (key, value) of ``doc`` with the value as ``json.dumps(..., sort_keys=True)`` text."""
    return tuple((key, json.dumps(value, sort_keys=True)) for key, value in doc.items())


# ---------------------------------------------------------------------------
# the whole pipeline


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline produced for one spec.

    ``members`` holds the encoded document members of the outcome: the
    ``table_to_doc`` members when a table was assembled, otherwise
    ``resolved`` and the ``unknown`` certificates.  It is derived from
    ``convergence`` and takes no part in equality.
    """

    spec: GraphSpec
    real: E2Page
    cplx: E2Page
    convergence: ConvergenceResult
    table: Optional[KTheoryTable]
    members: tuple[tuple[str, str], ...] = field(compare=False, repr=False)

    @property
    def status(self) -> str:
        return "ok" if self.convergence.converged else "unknown-differential"


# Distinct (real, complex, shadow) page triples kept per process.  The bench
# workloads hold at most 128 distinct triples each (79 over 288 rank-5/6
# instances, 128 over 2,024 rank-3/4 ones).
PAGE_MEMO_SIZE = 256


@lru_cache(maxsize=PAGE_MEMO_SIZE)
def _certified(
    real: E2Page, cplx: E2Page, shadow: E2Page
) -> tuple[ConvergenceResult, Optional[KTheoryTable], tuple[tuple[str, str], ...]]:
    conv = _converge(real, cplx, shadow)
    if not conv.converged:
        unknown = [_certificate_to_doc(c) for c in conv.unknown]
        return conv, None, encode_members({"resolved": False, "unknown": unknown})
    table = _assemble(conv)
    return conv, table, encode_members(table_to_doc(table))


def compute_ktheory(spec: GraphSpec, *, route: E2Route = E2Route.SNF) -> PipelineResult:
    """Full pipeline: E^2 pages, convergence certificates, assembled table.

    The pages (and the shadow page) are built for every spec.  Certification,
    assembly and the encoding of the outcome's document members depend on
    those three pages alone, so they run once per distinct page triple and
    are reused, up to ``PAGE_MEMO_SIZE`` triples, for every later spec with
    equal pages.  The key is the pages, never h or k: results on the SNF
    route stay independent of the closed forms they are checked against.
    """
    real, cplx = build_e2(spec, route=route)
    conv, table, members = _certified(real, cplx, _shadow_page(spec, real, route))
    return PipelineResult(spec, real, cplx, conv, table, members)
