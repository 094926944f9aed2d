"""One in-process pass over a workload, run in a fresh interpreter.

Usage: ``python3 bench/worker.py MODE WORKLOAD SEED SCALE OUT [--top N] [--spans FILE]``

MODE is one of

- ``latency``: call ``kgraph_ktheory.cli.run`` on one-instance documents in
  workload order and record each call's time, exit code and the digest of
  the instance's output line;
- ``untraced`` / ``traced``: call each layer's public functions on every
  instance (see ``_instance``), with spans recorded only when traced;
- ``profile``: the latency pass under ``cProfile``, top-N by ``tottime``.

The pass result is written as JSON to OUT.  A fresh process per pass keeps
the row-homology ``lru_cache`` cold at the start of each pass, as it is at
the start of every CLI process.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import io
import json
import pstats
import sys
from time import perf_counter, perf_counter_ns

import workloads
from kgraph_ktheory import cli, spectral
from kgraph_ktheory.abgroup import ExtensionCertificate
from kgraph_ktheory.families import closed_form, expected_table
from kgraph_ktheory.homology import homology_all
from kgraph_ktheory.intmat import snf
from kgraph_ktheory.kgraph import (
    CoefficientRow,
    Involution,
    UnsupportedRankError,
    adjacency_matrices,
    involution_row_schedule,
    koszul_complex,
    validate,
)

_COMMANDS = {
    "verify-r34": (cli.Command.VERIFY, cli.OutputFormat.STRUCTURED),
    "sweep-r4-grid": (cli.Command.SWEEP, cli.OutputFormat.TABLE),
    "compute-r56": (cli.Command.COMPUTE, cli.OutputFormat.STRUCTURED),
}
_MAX_RANK = 6


# --- latency ----------------------------------------------------------------


def _one_instance_doc(name: str, spec: dict) -> dict:
    # a sweep document whose sizes are single integers is a one-point grid
    return spec if name == "sweep-r4-grid" else {"instances": [spec]}


def latency_pass(w: workloads.Workload) -> dict:
    command, fmt = _COMMANDS[w.name]
    times, codes, digests = [], [], []
    for spec in w.instances:
        job = cli.JobSpec(command, _one_instance_doc(w.name, spec), fmt, 1, _MAX_RANK)
        t0 = perf_counter()
        result = cli.run(job)
        times.append((perf_counter() - t0) * 1e3)
        codes.append(result.exit_code)
        digests.append(workloads.digest(result.output.split("\n", 1)[0]))
    return {"instance_ms": times, "exit_codes": codes, "digests": digests}


def profile_pass(w: workloads.Workload, top: int) -> dict:
    profiler = cProfile.Profile()
    profiler.enable()
    latency_pass(w)
    profiler.disable()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(top)
    return {"profile": text.getvalue()}


# --- layers -----------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end, parent span and instance id."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, instance]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: int | None = None):
        record = [name, perf_counter_ns(), 0, self._open[-1] if self._open else None, instance]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def self_times(self) -> list[int]:
        """Duration minus the time covered by child spans, per span.

        Spans come from one thread and nest, so children never overlap and
        the covered time is the sum of their durations.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


_NO_SPAN = contextlib.nullcontext()


def _untraced(name: str, instance: int | None = None):
    return _NO_SPAN


def _rows(spec) -> list[CoefficientRow]:
    """Coefficient rows build_e2 computes: real and complex page, and the
    trivial real shadow page that converge builds for the swap involution."""
    rows = list(involution_row_schedule(spec.involution, False)[1].values())
    rows += involution_row_schedule(spec.involution, True)[1].values()
    if spec.involution is Involution.SWAP:
        rows += involution_row_schedule(Involution.TRIVIAL, False)[1].values()
    return list(dict.fromkeys(rows))


def _max_bits(dec) -> int:
    return max(
        (abs(x).bit_length() for m in (dec.left, dec.right, dec.right_inv) for x in m.entries),
        default=0,
    )


def _instance(i: int, spec, span, tally: dict) -> tuple:
    """Every layer's public entry point on one instance.

    ``koszul_complex``, ``homology_all`` and ``snf`` are called here as
    siblings of ``build_e2``, on the matrices it would use, because the
    package records no spans of its own.
    """
    with span("instance", i):
        with span("kgraph.validate", i):
            validate(spec)
        mats = adjacency_matrices(spec)
        for row in _rows(spec):
            with span("kgraph.koszul_complex", i):
                cc = koszul_complex(mats, row)
            with span("homology.homology_all", i):
                homology_all(cc)
            tally["homology.homology_all.calls"] += 1
            if row is CoefficientRow.MOD2:
                continue  # mod-2 homology is rank over GF(2); it never calls snf
            for d in cc.differentials:
                with span("intmat.snf", i):
                    dec = snf(d, want_transforms=True)
                tally["intmat.snf.calls"] += 1
                tally["intmat.snf.max_bits"] = max(tally["intmat.snf.max_bits"], _max_bits(dec))
        with span("spectral.build_e2", i):
            pages = spectral.build_e2(spec)
        with span("spectral.converge", i):
            conv = spectral.converge(pages, spec)
        for cert in conv.certificates:
            tally[f"spectral.cert.{cert.kind.value}"] += 1
        table = None
        if conv.converged:
            with span("spectral.assemble", i):
                table = spectral.assemble(conv, spec)
            for note in table.resolution_notes:
                if isinstance(note, spectral.ExtensionRecord):
                    tally[f"spectral.ext.{note.outcome.certificate.value}"] += 1
        else:
            tally["spectral.status.unknown"] += 1
        # Ranks 5 and 6 have no closed form; the refusal is timed all the same,
        # as the CLI calls closed_form for every structured document.
        inv = expected = None
        with span("families.closed_form", i):
            with contextlib.suppress(UnsupportedRankError):
                inv = closed_form(spec)
        with span("families.expected_table", i):
            with contextlib.suppress(UnsupportedRankError):
                expected = expected_table(spec)
        doc = {"spec": cli.spec_to_doc(spec)}
        with span("cli.table_to_doc", i):
            if table is not None:
                doc.update(cli.table_to_doc(table))
            if expected is not None:
                doc["expected"] = cli.table_to_doc(expected)
        with span("cli.serialize", i):
            json.dumps(doc, sort_keys=True)
        if table is not None:
            with span("cli.render", i):
                cli.render_table(spec, table, inv)
    return conv.converged, table, expected


COUNTS = (
    "intmat.snf.calls",
    "intmat.snf.max_bits",
    "homology.homology_all.calls",
    *(f"spectral.cert.{k.value}" for k in spectral.CertificateKind),
    *(f"spectral.ext.{k.value}" for k in ExtensionCertificate),
    "spectral.status.unknown",
)


def _cache_info():
    row_homology = getattr(spectral, "_row_homology", None)
    return row_homology.cache_info() if hasattr(row_homology, "cache_info") else None


def layer_pass(w: workloads.Workload, traced: bool, trace_path: str | None) -> dict:
    tracer = Tracer()
    span = tracer.span if traced else _untraced
    tally = dict.fromkeys(COUNTS, 0)
    before = _cache_info()
    t0 = perf_counter()
    with span("cli.parse"):
        if w.name == "sweep-r4-grid":
            specs = cli.expand_sweep(w.document)
        else:
            specs = cli.parse_instances(w.document)
    outcomes = [_instance(i, spec, span, tally) for i, spec in enumerate(specs)]
    wall = perf_counter() - t0
    after = _cache_info()

    failures = [i for i, outcome in enumerate(outcomes) if not _layer_output_ok(w.name, *outcome)]
    out = {"wall_s": wall, "counts": tally, "instances": len(specs), "failures": failures}
    if before is not None and after is not None:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        out["row_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    if traced:
        own = tracer.self_times()
        layer_ms: dict[str, float] = {}
        for (name, *_), self_ns in zip(tracer.spans, own):
            layer_ms[name] = layer_ms.get(name, 0.0) + self_ns / 1e6
        out["layer_ms"] = layer_ms
        if trace_path:
            _write_spans(tracer, own, trace_path)
    return out


def _layer_output_ok(name: str, converged: bool, table, expected) -> bool:
    """Verify traffic must match its closed form; every table must round-trip."""
    if name != "compute-r56" and not (converged and table.groups_equal(expected)):
        return False
    return table is None or cli.table_from_doc(cli.table_to_doc(table)) == table


def _write_spans(tracer: Tracer, own: list[int], path: str) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        for sid, ((name, start, end, parent, instance), self_ns) in enumerate(zip(tracer.spans, own)):
            fh.write(
                json.dumps(
                    {
                        "id": sid,
                        "name": name,
                        "start_ns": start - origin,
                        "end_ns": end - origin,
                        "self_ns": self_ns,
                        "parent": parent,
                        "instance": instance,
                    }
                )
                + "\n"
            )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("latency", "untraced", "traced", "profile"))
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("seed", type=int)
    parser.add_argument("scale", choices=workloads.SCALES)
    parser.add_argument("out")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--spans", help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)
    w = workloads.generate(args.workload, args.seed, args.scale)
    if args.mode == "latency":
        result = latency_pass(w)
    elif args.mode == "profile":
        result = profile_pass(w, args.top)
    else:
        result = layer_pass(w, args.mode == "traced", args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
