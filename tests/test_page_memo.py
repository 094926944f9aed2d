"""Reuse of certification, assembly and encoding across specs with equal pages,
and the structured-document writer that splices the reused member texts."""

import json
import random

from kgraph_ktheory import spectral
from kgraph_ktheory.cli import (
    Command,
    EXIT_OK,
    JobSpec,
    OutputFormat,
    run,
    spec_to_doc,
    table_to_doc,
)
from kgraph_ktheory.families import closed_form, expected_table
from kgraph_ktheory.kgraph import UnsupportedRankError
from kgraph_ktheory.spectral import E2Route, compute_ktheory

from helpers import spec_of, spec_with_gcds


def _sample():
    rng = random.Random(16)
    for rank in range(1, 7):
        for involution in ("trivial", "swap"):
            for h, k in ((1, 1), (3, 1), (1, 5), (7, 9)):
                if rank == 1 and (h, k) != (7, 9):
                    continue  # one crossing color alone has h, k > 1
                yield spec_with_gcds(rng, rank, involution, h, k)


def test_reused_results_equal_fresh_ones_on_both_routes():
    specs = list(_sample())
    for route in E2Route:
        warm = [compute_ktheory(spec, route=route) for spec in specs]
        for spec, reused in zip(specs, warm):
            spectral._certified.cache_clear()
            fresh = compute_ktheory(spec, route=route)
            assert fresh == reused, spec
            assert fresh.members == reused.members, spec


def test_specs_with_equal_pages_share_one_memo_entry():
    # different sizes, both h = 3 and k = 1 at rank 3 with the trivial involution
    a = spec_of([("T", 2), ("D", 5), ("D", 8)])
    b = spec_of([("T", 5), ("D", 2), ("D", 11)])
    assert closed_form(a).h == closed_form(b).h == 3 and closed_form(a).k == closed_form(b).k == 1
    spectral._certified.cache_clear()
    doc = {"instances": [spec_to_doc(a), spec_to_doc(b)]}
    result = run(JobSpec(Command.VERIFY, doc, OutputFormat.STRUCTURED))
    assert result.exit_code == EXIT_OK
    info = spectral._certified.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert info.maxsize == spectral.PAGE_MEMO_SIZE == 256


# The document shape the command line wrote before the writer spliced
# pre-encoded members: one dict per instance, dumped with sorted keys.


def _invariants(spec):
    try:
        inv = closed_form(spec)
    except UnsupportedRankError:
        return None
    case = {"rank": inv.case.rank, "number": inv.case.number, "order": list(inv.case.order)}
    return {"g": inv.g, "h": inv.h, "k": inv.k, "case": case}


def _dict_document(spec, result=None, expected=None, verdict=None):
    doc = {"spec": spec_to_doc(spec), "invariants": _invariants(spec)}
    if result is not None:
        doc["status"] = result.status
        if result.table is not None:
            doc.update(table_to_doc(result.table))
        else:
            doc["unknown"] = [
                {"kind": c.kind.value, "r": c.page, "p": c.p, "q": c.q, "part": c.part.value}
                for c in result.convergence.unknown
            ]
            doc["resolved"] = False
    if expected is not None:
        doc["expected"] = table_to_doc(expected)
    if verdict is not None:
        doc["verdict"] = verdict
    return json.dumps(doc, sort_keys=True)


_OK = [("T", 2), ("T", 2), ("D", 8)]  # rank 3, g = 15
_UNRESOLVED = [("T", 2)] * 5  # rank 5, ok with unresolved extensions
_UNKNOWN = [("T", 2)] * 6  # rank 6, d_5 uncertified


def _structured(command, colors_list, involution="swap"):
    specs = [spec_of(colors, involution) for colors in colors_list]
    doc = {"instances": [spec_to_doc(spec) for spec in specs]}
    result = run(JobSpec(Command(command), doc, OutputFormat.STRUCTURED, max_rank=6))
    assert result.exit_code == EXIT_OK
    return specs, result.output


def test_compute_documents_match_the_dict_shape():
    specs, output = _structured("compute", [_OK, _UNRESOLVED, _UNKNOWN])
    statuses = [compute_ktheory(spec).status for spec in specs]
    assert statuses == ["ok", "ok", "unknown-differential"]
    expected = [_dict_document(spec, compute_ktheory(spec)) for spec in specs]
    assert output == "\n\n".join(expected) + "\n"


def test_expected_documents_match_the_dict_shape():
    specs, output = _structured("expected", [_OK, [("T", 2), ("D", 5), ("D", 8), ("T", 3)]])
    expected = []
    for spec in specs:
        doc = json.loads(_dict_document(spec))
        doc.update(table_to_doc(expected_table(spec)))
        expected.append(json.dumps(doc, sort_keys=True))
    assert output == "\n\n".join(expected) + "\n"


def test_verify_documents_match_the_dict_shape():
    specs, output = _structured("verify", [_OK, [("T", 2), ("D", 5), ("D", 8)]], "trivial")
    expected = [
        _dict_document(spec, compute_ktheory(spec), expected_table(spec), "match")
        for spec in specs
    ]
    assert output == "\n".join(expected) + "\n"
