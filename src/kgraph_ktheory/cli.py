"""Command-line entry point.

Subcommands
-----------
compute   run the spectral pipeline on explicit instances
expected  evaluate the closed-form tables (ranks 3 and 4)
verify    run both paths and compare, instance by instance
sweep     verify over a parameter grid given as per-color ranges
lemmas    brute-force the gcd identities over ranges

Input is a JSON document (``--input FILE`` or stdin).  ``--format table``
prints human-readable 8-column tables; ``--format structured`` emits one
JSON document per instance with machine-checkable provenance (certificates
and extension outcomes), which round-trips back to an equal table.

Exit codes: 0 success, 1 input error, 2 verification mismatch, 3 unknown
convergence encountered with --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import product
from typing import Any, Optional, Sequence

from .abgroup import ExtensionCertificate, ExtensionOutcome, FinAbGroup
from .families import FamilyInvariants, closed_form, expected_table
from .kgraph import (
    ColorKind,
    ColorSpec,
    GraphSpec,
    InvalidGraphError,
    Involution,
    UnsupportedRankError,
    enumerate_family_case,
    validate,
)
from .spectral import (
    CertificateKind,
    ConvergenceCertificate,
    E2Route,
    ExtensionRecord,
    KTheoryTable,
    Part,
    PipelineResult,
    compute_ktheory,
    encode_members,
    table_to_doc,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_UNKNOWN = 3

HARD_MAX_RANK = 6
SWEEP_GUARD = 10**6
INVOLUTIONS = ("trivial", "swap")


class InputError(ValueError):
    """Malformed input document; the message names the offending field."""


class Command(Enum):
    COMPUTE = "compute"
    EXPECTED = "expected"
    VERIFY = "verify"
    SWEEP = "sweep"
    LEMMAS = "lemmas"


class OutputFormat(Enum):
    TABLE = "table"
    STRUCTURED = "structured"


@dataclass(frozen=True)
class JobSpec:
    command: Command
    document: Any
    output_format: OutputFormat = OutputFormat.TABLE
    jobs: int = 1
    max_rank: int = 4
    strict: bool = False


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    output: str


# ---------------------------------------------------------------------------
# input parsing


def _is_int(value: Any) -> bool:
    """An int that is not a bool: JSON true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _nonempty_list(value: Any, name: str) -> list:
    if not isinstance(value, list) or not value:
        raise InputError(f"{name}: expected a non-empty list")
    return value


def _one_of(value: Any, choices: Sequence[str], name: str) -> str:
    if value not in choices:
        quoted = [f'"{c}"' for c in choices]
        expected = f"{', '.join(quoted[:-1])} or {quoted[-1]}"
        raise InputError(f"{name}: expected {expected}, got {value!r}")
    return value


def _color_kind(color: Any, where: str) -> ColorKind:
    if not isinstance(color, dict):
        raise InputError(f"{where}: expected an object with kind and size")
    return ColorKind(_one_of(color.get("kind"), ("D", "T"), f"{where}.kind"))


def parse_spec(doc: Any, where: str = "spec") -> GraphSpec:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    colors = []
    for i, c in enumerate(_nonempty_list(doc.get("colors"), f"{where}.colors")):
        at = f"{where}.colors[{i}]"
        kind = _color_kind(c, at)
        size = c.get("size")
        if not _is_int(size) or size < 1:
            raise InputError(f"{at}.size: expected a positive integer, got {size!r}")
        colors.append(ColorSpec(kind, size))
    involution = _one_of(doc.get("involution", "trivial"), INVOLUTIONS, f"{where}.involution")
    return GraphSpec(tuple(colors), Involution(involution))


def parse_instances(doc: Any) -> list[GraphSpec]:
    if isinstance(doc, dict) and "instances" in doc:
        items = _nonempty_list(doc["instances"], "instances")
        return [parse_spec(item, f"instances[{i}]") for i, item in enumerate(items)]
    return [parse_spec(doc)]


def _size_range(value: Any, where: str) -> range:
    if _is_int(value):
        if value < 1:
            raise InputError(f"{where}: sizes must be positive, got {value}")
        return range(value, value + 1)
    if isinstance(value, list) and len(value) == 2 and all(_is_int(v) for v in value):
        lo, hi = value
        if lo < 1 or hi < lo:
            raise InputError(f"{where}: expected 1 <= lo <= hi, got {value}")
        return range(lo, hi + 1)
    raise InputError(f"{where}: expected an integer or [lo, hi], got {value!r}")


def expand_sweep(doc: Any) -> list[GraphSpec]:
    """Expand a ranged document into the full (bounded) instance grid."""
    if not isinstance(doc, dict):
        raise InputError("sweep document: expected an object")
    kinds = []
    ranges = []
    for i, c in enumerate(_nonempty_list(doc.get("colors"), "colors")):
        kinds.append(_color_kind(c, f"colors[{i}]"))
        ranges.append(_size_range(c.get("size"), f"colors[{i}].size"))
    involution = _one_of(doc.get("involution", "both"), INVOLUTIONS + ("both",), "involution")
    involutions = list(Involution) if involution == "both" else [Involution(involution)]

    # Counted from the bounds: len() of a range past sys.maxsize overflows.
    total = len(involutions)
    for i, r in enumerate(ranges):
        total *= r.stop - r.start
        if total > SWEEP_GUARD:
            raise InputError(
                f"colors[{i}].size: sweep grid exceeds the {SWEEP_GUARD} instance guard"
            )
    grid = []
    for sizes in product(*ranges):
        for inv in involutions:
            grid.append(
                GraphSpec(tuple(ColorSpec(k, s) for k, s in zip(kinds, sizes)), inv)
            )
    grid.sort(key=_instance_sort_key)
    return grid


def _instance_sort_key(spec: GraphSpec) -> tuple:
    return (
        tuple(c.kind.value for c in spec.colors),
        tuple(c.size for c in spec.colors),
        spec.involution.value,
    )


def _check_instances(specs: list[GraphSpec], max_rank: int, needs_closed_form: bool) -> None:
    """Reject a bad instance before any work starts: pool workers must never see one."""
    cap = min(max_rank, HARD_MAX_RANK)
    for i, spec in enumerate(specs):
        if needs_closed_form:
            try:
                enumerate_family_case(spec)
            except UnsupportedRankError as exc:
                raise InputError(f"instances[{i}]: {exc}") from exc
        if spec.rank > cap:
            raise InputError(f"instances[{i}]: rank {spec.rank} exceeds the maximum {cap}")
        report = validate(spec)
        if not report.ok:
            raise InvalidGraphError(report)


# ---------------------------------------------------------------------------
# serialization


def _field(doc: Any, key: str, where: str, kind: type = object) -> Any:
    """``doc[key]`` of type ``kind``; otherwise InputError naming the field."""
    name = f"{where}.{key}" if where else key
    if not isinstance(doc, dict):
        raise InputError(f"{where or 'document'}: expected an object, got {doc!r}")
    if key not in doc:
        raise InputError(f"{name}: missing")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and not _is_int(value)):
        raise InputError(f"{name}: expected {kind.__name__}, got {value!r}")
    return value


def _int_list(doc: Any, key: str, where: str) -> list[int]:
    values = _field(doc, key, where, list)
    if not all(_is_int(v) for v in values):
        raise InputError(f"{where}.{key}: expected a list of integers, got {values!r}")
    return values


def _enum_field(cls: type[Enum], doc: Any, key: str, where: str) -> Any:
    return cls(_one_of(_field(doc, key, where), [e.value for e in cls], f"{where}.{key}"))


def group_from_doc(doc: Any, where: str = "group") -> Optional[FinAbGroup]:
    """Parse ``{free_rank, torsion}``; InputError names the malformed field."""
    if doc is None:
        return None
    free_rank = _field(doc, "free_rank", where, int)
    torsion = _int_list(doc, "torsion", where)
    try:
        return FinAbGroup(free_rank, tuple(torsion))
    except ValueError as exc:
        field = "free_rank" if free_rank < 0 else "torsion"
        raise InputError(f"{where}.{field}: {exc}") from exc


def spec_to_doc(spec: GraphSpec) -> dict:
    return {
        "colors": [{"kind": c.kind.value, "size": c.size} for c in spec.colors],
        "involution": spec.involution.value,
    }


def _certificate_from_doc(doc: Any, where: str) -> ConvergenceCertificate:
    return ConvergenceCertificate(
        _enum_field(CertificateKind, doc, "kind", where),
        _field(doc, "r", where, int),
        _field(doc, "p", where, int),
        _field(doc, "q", where, int),
        _enum_field(Part, doc, "part", where),
    )


def _extension_from_doc(doc: Any, where: str) -> ExtensionRecord:
    resolved = _field(doc, "resolved", where, bool)
    group = group_from_doc(_field(doc, "group", where), f"{where}.group")
    sub = group_from_doc(_field(doc, "sub", where, dict), f"{where}.sub")
    quotient = group_from_doc(_field(doc, "quotient", where, dict), f"{where}.quotient")
    certificate = _enum_field(ExtensionCertificate, doc, "certificate", where)
    try:
        outcome = ExtensionOutcome(resolved, group, sub, quotient, certificate)
    except ValueError as exc:
        raise InputError(f"{where}.resolved: {exc}") from exc
    return ExtensionRecord(
        part=_enum_field(Part, doc, "part", where),
        degree=_field(doc, "degree", where, int),
        sub_position=tuple(_int_list(doc, "sub_position", where)),
        quotient_position=tuple(_int_list(doc, "quotient_position", where)),
        outcome=outcome,
    )


def table_from_doc(doc: Any) -> KTheoryTable:
    """Parse a ``table_to_doc`` document; InputError names a malformed field."""
    groups = {}
    for key in ("ko", "ku"):
        items = _field(doc, key, "", list)
        if len(items) != 8:
            raise InputError(f"{key}: expected 8 groups, got {len(items)}")
        groups[key] = tuple(group_from_doc(g, f"{key}[{i}]") for i, g in enumerate(items))
    provenance = {}
    for key, parse in (
        ("certificates", _certificate_from_doc),
        ("extensions", _extension_from_doc),
    ):
        items = _field(doc, key, "", list) if key in doc else []
        provenance[key] = tuple(parse(item, f"{key}[{i}]") for i, item in enumerate(items))
    return KTheoryTable(ko=groups["ko"], ku=groups["ku"], **provenance)


def _invariants_doc(spec: GraphSpec) -> Optional[dict]:
    inv = _safe_closed_form(spec)
    if inv is None:
        return None
    return {
        "g": inv.g,
        "h": inv.h,
        "k": inv.k,
        "case": {"rank": inv.case.rank, "number": inv.case.number, "order": list(inv.case.order)},
    }


# ---------------------------------------------------------------------------
# text rendering


def _group_str(group: Optional[FinAbGroup]) -> str:
    return "?" if group is None else str(group)


def _spec_str(spec: GraphSpec) -> str:
    colors = " ".join(f"{c.kind.value}{c.size}" for c in spec.colors)
    return f"{colors}  involution={spec.involution.value}"


def render_table(spec: GraphSpec, table: KTheoryTable, inv: Optional[FamilyInvariants]) -> str:
    lines = [f"spec: {_spec_str(spec)}"]
    if inv is not None:
        lines.append(
            f"case: rank-{inv.case.rank} case ({inv.case.number})   "
            f"g={inv.g} h={inv.h} k={inv.k}"
        )
    ko = [_group_str(g) for g in table.ko]
    ku = [_group_str(g) for g in table.ku]
    width = max(5, *(len(s) for s in ko + ku))
    header = "n    " + " ".join(f"{i:>{width}}" for i in range(8))
    lines.append(header)
    lines.append("KO_n " + " ".join(f"{s:>{width}}" for s in ko))
    lines.append("KU_n " + " ".join(f"{s:>{width}}" for s in ku))
    for cert in table.certificates:
        if cert.kind in (CertificateKind.REAL_SHADOW_C, CertificateKind.UNKNOWN):
            lines.append(
                f"certificate: d_{cert.page} {cert.part.value} at (p={cert.p}, q={cert.q}): "
                f"{cert.kind.value}"
            )
    for n in table.extensions:
        if not n.outcome.resolved:
            lines.append(
                f"unresolved extension: {n.part.value} degree {n.degree}: "
                f"{n.outcome.sub} by {n.outcome.quotient}"
            )
    return "\n".join(lines)


def _unknown_message(result: PipelineResult) -> str:
    cert = result.convergence.unknown[0]
    return (
        f"unknown differential at (r={cert.page}, p={cert.p}, q={cert.q}, "
        f"part={cert.part.value})"
    )


# ---------------------------------------------------------------------------
# command handlers


def _document(members: Sequence[tuple[str, str]] = (), **values: Any) -> str:
    """``json.dumps(doc, sort_keys=True)`` of the document made of ``members``,
    whose values are already encoded, and ``values``, encoded here."""
    encoded = sorted((*members, *encode_members(values)))
    return "{" + ", ".join(f'"{key}": {text}' for key, text in encoded) + "}"


def _run_compute(job: JobSpec) -> RunResult:
    specs = parse_instances(job.document)
    _check_instances(specs, job.max_rank, needs_closed_form=False)
    out = []
    saw_unknown = False
    for spec in specs:
        # Only compute takes the GCD route: verify and sweep compare against
        # closed forms built from the same gcds, so they stay on SNF.
        result = compute_ktheory(spec, route=E2Route.GCD)
        saw_unknown = saw_unknown or not result.convergence.converged
        if job.output_format is OutputFormat.STRUCTURED:
            out.append(
                _document(
                    result.members,
                    spec=spec_to_doc(spec),
                    invariants=_invariants_doc(spec),
                    status=result.status,
                )
            )
        else:
            if result.table is None:
                out.append(f"spec: {_spec_str(spec)}\nstatus: {_unknown_message(result)}")
            else:
                out.append(render_table(spec, result.table, _safe_closed_form(spec)))
    code = EXIT_UNKNOWN if (saw_unknown and job.strict) else EXIT_OK
    out[-1] += "\n"
    return RunResult(code, "\n\n".join(out))


def _safe_closed_form(spec: GraphSpec) -> Optional[FamilyInvariants]:
    try:
        return closed_form(spec)
    except (UnsupportedRankError, InvalidGraphError):
        return None


def _run_expected(job: JobSpec) -> RunResult:
    specs = parse_instances(job.document)
    _check_instances(specs, job.max_rank, needs_closed_form=True)
    out = []
    for spec in specs:
        table = expected_table(spec)
        if job.output_format is OutputFormat.STRUCTURED:
            out.append(
                _document(
                    spec=spec_to_doc(spec), invariants=_invariants_doc(spec), **table_to_doc(table)
                )
            )
        else:
            out.append(render_table(spec, table, _safe_closed_form(spec)))
    out[-1] += "\n"
    return RunResult(EXIT_OK, "\n\n".join(out))


def _verify_one(output_format: OutputFormat, spec: GraphSpec) -> tuple[str, str]:
    """Worker for verify/sweep; returns (verdict, output line).

    The structured document is built only for the structured format.
    """
    expected = expected_table(spec)
    result = compute_ktheory(spec)
    if result.table is None:
        verdict = "unknown"
    elif not result.table.fully_resolved:
        verdict = "unresolved"
    elif result.table.groups_equal(expected):
        verdict = "match"
    else:
        verdict = "mismatch"
    if output_format is OutputFormat.STRUCTURED:
        return verdict, _document(
            result.members,
            spec=spec_to_doc(spec),
            invariants=_invariants_doc(spec),
            status=result.status,
            expected=table_to_doc(expected),
            verdict=verdict,
        )
    return verdict, _render_verdict_line(spec, verdict)


def _render_verdict_line(spec: GraphSpec, verdict: str) -> str:
    inv = _safe_closed_form(spec)
    suffix = f"  (g={inv.g} h={inv.h} k={inv.k})" if inv else ""
    return f"{_spec_str(spec)}: {verdict}{suffix}"


def _pool_size(jobs: int, instances: int) -> int:
    """Worker count: the requested jobs, capped by the CPUs and the instances."""
    return min(jobs, os.cpu_count() or 1, instances)


def _run_verify(job: JobSpec, specs: list[GraphSpec]) -> RunResult:
    _check_instances(specs, job.max_rank, needs_closed_form=True)
    worker = partial(_verify_one, job.output_format)
    workers = _pool_size(job.jobs, len(specs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, specs, chunksize=16))
    else:
        results = [worker(spec) for spec in specs]

    mismatches = sum(verdict != "match" for verdict, _ in results)
    lines = [line for _, line in results]
    if job.output_format is OutputFormat.TABLE:
        if mismatches == 0:
            lines.append(f"all {len(specs)} instances match")
        else:
            lines.append(f"{mismatches} of {len(specs)} instances FAILED")
    code = EXIT_OK if mismatches == 0 else EXIT_MISMATCH
    lines[-1] += "\n"
    return RunResult(code, "\n".join(lines))


def _run_lemmas(job: JobSpec) -> RunResult:
    from .numtheory import lemma_equal_gcds, lemma_hk_coprime

    doc = job.document if isinstance(job.document, dict) else {}
    plans = []
    total = 0
    for field, arity in (("pairs", 2), ("triples", 3), ("quadruples", 4)):
        if field in doc:
            rng = _size_range(doc[field], field)
            if rng.start < 2:
                raise InputError(f"{field}: lemma entries must be >= 2")
            total += (rng.stop - rng.start) ** arity
            if total > SWEEP_GUARD:
                raise InputError(f"{field}: lemma checks exceed the {SWEEP_GUARD} tuple guard")
            plans.append((field, arity, rng))
    if not plans:
        raise InputError('lemmas document: expected at least one of "pairs", "triples", "quadruples"')

    lines = []
    failures = 0
    for field, arity, rng in plans:
        checked = 0
        bad = 0
        for tup in product(rng, repeat=arity):
            eq = lemma_equal_gcds(tup)
            hk = lemma_hk_coprime(tup)
            checked += 1
            if not (eq.ok and hk.ok):
                bad += 1
        failures += bad
        lines.append(
            f"{field} over [{rng.start}, {rng.stop - 1}]: {checked} tuples checked, "
            f"{bad} violations"
        )
    verdict = "all lemma checks passed" if failures == 0 else "LEMMA VIOLATIONS FOUND"
    lines.append(verdict)
    if job.output_format is OutputFormat.STRUCTURED:
        payload = {"checks": lines[:-1], "ok": failures == 0}
        return RunResult(
            EXIT_OK if failures == 0 else EXIT_MISMATCH,
            json.dumps(payload, sort_keys=True) + "\n",
        )
    return RunResult(EXIT_OK if failures == 0 else EXIT_MISMATCH, "\n".join(lines) + "\n")


def run(job: JobSpec) -> RunResult:
    """Execute a job; never raises for malformed input, returns exit 1 instead."""
    try:
        if job.command is Command.COMPUTE:
            return _run_compute(job)
        if job.command is Command.EXPECTED:
            return _run_expected(job)
        if job.command is Command.VERIFY:
            return _run_verify(job, parse_instances(job.document))
        if job.command is Command.SWEEP:
            return _run_verify(job, expand_sweep(job.document))
        return _run_lemmas(job)
    except (InputError, InvalidGraphError) as exc:
        return RunResult(EXIT_INPUT, f"input error: {exc}\n")


# ---------------------------------------------------------------------------
# argv plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgraph-ktheory",
        description="Exact K-theory tables for two-vertex rank-k graph algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("compute", "run the spectral pipeline"),
        ("expected", "evaluate closed-form tables"),
        ("verify", "pipeline vs closed form on explicit instances"),
        ("sweep", "verify over a parameter grid"),
        ("lemmas", "brute-force the gcd identities"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="input JSON file (default: stdin)")
        p.add_argument(
            "--format",
            choices=[f.value for f in OutputFormat],
            default=OutputFormat.TABLE.value,
        )
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
        p.add_argument(
            "--max-rank",
            type=int,
            default=4,
            help=f"largest rank to compute (hard cap {HARD_MAX_RANK})",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 3 when a differential cannot be certified",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
        document = json.loads(raw)
    except OSError as exc:
        print(f"input error: cannot read {args.input or 'stdin'}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, RecursionError) as exc:
        # invalid UTF-8 or JSON, an integer past the interpreter's digit limit,
        # or nesting deeper than the decoder's recursion limit
        print(f"input error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    job = JobSpec(
        command=Command(args.command),
        document=document,
        output_format=OutputFormat(args.format),
        jobs=max(1, args.jobs),
        max_rank=args.max_rank,
        strict=args.strict,
    )
    result = run(job)
    try:
        sys.stdout.write(result.output)
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
