import json
import subprocess
import sys

import pytest

from kgraph_ktheory.cli import (
    Command,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNKNOWN,
    InputError,
    JobSpec,
    OutputFormat,
    expand_sweep,
    parse_instances,
    run,
    table_from_doc,
    table_to_doc,
)
from kgraph_ktheory.spectral import compute_ktheory

from helpers import spec_of


def _doc(colors, involution="trivial"):
    return {
        "colors": [{"kind": kind, "size": size} for kind, size in colors],
        "involution": involution,
    }


def _job(command, document, **kw):
    return JobSpec(command=Command(command), document=document, **kw)


def test_parse_single_and_list():
    single = parse_instances(_doc([("T", 2), ("D", 5)]))
    assert len(single) == 1 and single[0].rank == 2
    many = parse_instances({"instances": [_doc([("T", 2)]), _doc([("T", 3)], "swap")]})
    assert [s.involution.value for s in many] == ["trivial", "swap"]


def test_parse_errors_name_the_field():
    with pytest.raises(InputError, match=r"colors\[1\]\.size"):
        parse_instances(_doc([("T", 2), ("D", 0)]))
    with pytest.raises(InputError, match=r"colors\[0\]\.kind"):
        parse_instances(_doc([("X", 2)]))
    with pytest.raises(InputError, match="involution"):
        parse_instances({"colors": [{"kind": "T", "size": 2}], "involution": "huh"})
    with pytest.raises(InputError, match="colors"):
        parse_instances({"colors": []})


def test_expand_sweep_grid_and_guard():
    grid = expand_sweep(
        {
            "colors": [
                {"kind": "T", "size": [2, 3]},
                {"kind": "D", "size": 5},
                {"kind": "D", "size": [2, 4]},
            ],
            "involution": "both",
        }
    )
    assert len(grid) == 2 * 1 * 3 * 2
    assert grid == sorted(
        grid,
        key=lambda s: (
            tuple(c.kind.value for c in s.colors),
            tuple(c.size for c in s.colors),
            s.involution.value,
        ),
    )
    with pytest.raises(InputError, match="guard"):
        expand_sweep(
            {
                "colors": [
                    {"kind": "T", "size": [2, 2000]},
                    {"kind": "D", "size": [2, 2000]},
                ],
            }
        )


def test_compute_table_output():
    result = run(_job("compute", _doc([("T", 2), ("T", 2), ("D", 8)], "swap")))
    assert result.exit_code == EXIT_OK
    assert "KO_n" in result.output and "Z_15" in result.output
    assert "g=15 h=3 k=5" in result.output


def test_compute_structured_round_trip():
    result = run(
        _job(
            "compute",
            _doc([("T", 2), ("T", 2), ("D", 8)], "swap"),
            output_format=OutputFormat.STRUCTURED,
        )
    )
    assert result.exit_code == EXIT_OK
    doc = json.loads(result.output)
    assert doc["resolved"] is True
    assert doc["invariants"]["g"] == 15
    rebuilt = table_from_doc(doc)
    original = compute_ktheory(spec_of([("T", 2), ("T", 2), ("D", 8)], "swap")).table
    assert rebuilt == original


def test_table_doc_round_trip_direct():
    for colors, inv in [
        ([("T", 2), ("D", 5), ("D", 8)], "trivial"),
        ([("T", 2)] * 4, "swap"),
        ([("T", 2)] * 5, "trivial"),  # carries unresolved extensions
    ]:
        table = compute_ktheory(spec_of(colors, inv)).table
        assert table_from_doc(table_to_doc(table)) == table


def test_expected_command():
    result = run(_job("expected", _doc([("T", 2), ("T", 2), ("D", 8)], "swap")))
    assert result.exit_code == EXIT_OK
    assert "Z_15" in result.output
    no_form = run(_job("expected", _doc([("T", 2), ("T", 3)])))
    assert no_form.exit_code == EXIT_INPUT
    assert "closed form" in no_form.output


def test_compute_zero_table_success():
    result = run(_job("compute", _doc([("T", 2), ("D", 2), ("D", 3)])))
    assert result.exit_code == EXIT_OK
    assert "g=1" in result.output
    doc = json.loads(
        run(
            _job(
                "compute",
                _doc([("T", 2), ("D", 2), ("D", 3)]),
                output_format=OutputFormat.STRUCTURED,
            )
        ).output
    )
    assert doc["ko"] == [{"free_rank": 0, "torsion": []}] * 8
    assert doc["resolved"] is True


def test_compute_unknown_structured():
    doc = json.loads(
        run(
            _job(
                "compute",
                _doc([("T", 2)] * 6),
                max_rank=6,
                output_format=OutputFormat.STRUCTURED,
            )
        ).output
    )
    assert doc["status"] == "unknown-differential"
    assert doc["resolved"] is False
    assert {"kind": "Unknown", "r": 5, "p": 5, "q": 0, "part": "real"} in doc["unknown"]


def test_compute_unknown_convergence_status():
    doc = _doc([("T", 2)] * 6)
    tolerant = run(_job("compute", doc, max_rank=6))
    assert tolerant.exit_code == EXIT_OK
    assert "unknown differential at (r=5" in tolerant.output
    strict = run(_job("compute", doc, max_rank=6, strict=True))
    assert strict.exit_code == EXIT_UNKNOWN


def test_max_rank_enforced():
    result = run(_job("compute", _doc([("T", 2)] * 5)))
    assert result.exit_code == EXIT_INPUT
    assert "rank 5" in result.output
    ok = run(_job("compute", _doc([("T", 2)] * 5), max_rank=5))
    assert ok.exit_code == EXIT_OK
    capped = run(_job("compute", _doc([("T", 2)] * 7), max_rank=99))
    assert capped.exit_code == EXIT_INPUT


def test_verify_reports_matches():
    result = run(
        _job(
            "verify",
            {
                "instances": [
                    _doc([("T", 2), ("D", 5), ("D", 8)]),
                    _doc([("T", 2), ("T", 2), ("D", 8)], "swap"),
                ]
            },
        )
    )
    assert result.exit_code == EXIT_OK
    assert "all 2 instances match" in result.output


def test_verify_never_passes_on_differing_groups(monkeypatch):
    # force a wrong prediction and confirm verify refuses to call it a match
    import kgraph_ktheory.cli as cli_mod
    from kgraph_ktheory.abgroup import FinAbGroup
    from kgraph_ktheory.spectral import KTheoryTable

    wrong = KTheoryTable(
        ko=(FinAbGroup.cyclic(7),) * 8, ku=(FinAbGroup.cyclic(7),) * 8
    )
    monkeypatch.setattr(cli_mod, "expected_table", lambda spec: wrong)
    result = run(_job("verify", _doc([("T", 2), ("D", 5), ("D", 8)])))
    assert result.exit_code == EXIT_MISMATCH
    assert "mismatch" in result.output


def test_verify_rejects_rank_without_closed_form():
    result = run(_job("verify", _doc([("T", 2), ("T", 2)])))
    assert result.exit_code == EXIT_INPUT
    assert "closed form" in result.output


def test_sweep_grid_matches():
    doc = {
        "colors": [
            {"kind": "T", "size": [2, 4]},
            {"kind": "T", "size": [2, 3]},
            {"kind": "D", "size": [2, 3]},
        ],
        "involution": "both",
    }
    result = run(_job("sweep", doc))
    assert result.exit_code == EXIT_OK
    assert "all 24 instances match" in result.output


def test_sweep_parallel_jobs_agree():
    doc = {
        "colors": [
            {"kind": "T", "size": [2, 3]},
            {"kind": "D", "size": [2, 3]},
            {"kind": "D", "size": 5},
        ],
        "involution": "trivial",
    }
    serial = run(_job("sweep", doc))
    parallel = run(_job("sweep", doc, jobs=2))
    assert serial.output == parallel.output
    assert parallel.exit_code == EXIT_OK


def test_pool_size_is_bounded_by_cpus_and_instances(monkeypatch):
    import kgraph_ktheory.cli as cli_mod

    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 4)
    assert cli_mod._pool_size(100000, 10**6) == 4
    assert cli_mod._pool_size(100000, 3) == 3
    assert cli_mod._pool_size(2, 100) == 2
    assert cli_mod._pool_size(8, 1) == 1
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: None)
    assert cli_mod._pool_size(100000, 50) == 1


def test_lemmas_command():
    ok = run(_job("lemmas", {"pairs": [2, 10], "triples": [2, 5]}))
    assert ok.exit_code == EXIT_OK
    assert "all lemma checks passed" in ok.output
    bad = run(_job("lemmas", {"pairs": [1, 4]}))
    assert bad.exit_code == EXIT_INPUT


def test_structured_verify_documents():
    result = run(
        _job(
            "verify",
            _doc([("T", 2), ("D", 5), ("D", 8)]),
            output_format=OutputFormat.STRUCTURED,
        )
    )
    doc = json.loads(result.output)
    assert doc["verdict"] == "match"
    assert doc["spec"]["colors"][0] == {"kind": "T", "size": 2}
    assert doc["invariants"] == {
        "g": 3,
        "h": 3,
        "k": 1,
        "case": {"rank": 3, "number": 1, "order": [0, 1, 2]},
    }
    assert len(doc["ko"]) == 8 and len(doc["ku"]) == 8
    assert doc["ko"][0] == {"free_rank": 0, "torsion": [3]}
    assert doc["expected"]["ko"] == doc["ko"]


def test_cli_subprocess_end_to_end(tmp_path):
    payload = json.dumps(_doc([("T", 2), ("D", 5), ("D", 8)]))
    path = tmp_path / "spec.json"
    path.write_text(payload, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kgraph_ktheory.cli", "compute", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "KO_n" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "kgraph_ktheory.cli", "compute"],
        input="{not json",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_INPUT


def test_importing_the_cli_does_not_load_the_process_pool():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, kgraph_ktheory.cli; "
            "print('concurrent.futures.process' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_malformed_table_documents_name_the_field():
    good = table_to_doc(compute_ktheory(spec_of([("T", 2)] * 5)).table)

    def broken(edit):
        doc = json.loads(json.dumps(good))
        edit(doc)
        return doc

    cases = [
        (lambda d: d["ko"][3].pop("torsion"), r"^ko\[3\]\.torsion: missing"),
        (lambda d: d["ku"][1].update(free_rank="0"), r"^ku\[1\]\.free_rank: expected int"),
        (lambda d: d["ko"][1].update(torsion=[15, 3]), r"^ko\[1\]\.torsion: .*dividing chain"),
        (lambda d: d["ko"][2].update(torsion=[3, "5"]), r"^ko\[2\]\.torsion: expected a list"),
        (lambda d: d["ku"].pop(), r"^ku: expected 8 groups"),
        (lambda d: d.pop("ko"), r"^ko: missing"),
        (lambda d: d["certificates"][0].update(kind="Guess"), r"^certificates\[0\]\.kind"),
        (lambda d: d["certificates"][4].pop("r"), r"^certificates\[4\]\.r: missing"),
        (lambda d: d["extensions"][0].update(resolved="yes"), r"^extensions\[0\]\.resolved"),
        (
            lambda d: d["extensions"][0]["sub"].update(torsion=[6, 4]),
            r"^extensions\[0\]\.sub\.torsion",
        ),
        (lambda d: d["extensions"][3].update(group=None), r"^extensions\[3\]\.resolved: "),
    ]
    for edit, message in cases:
        with pytest.raises(InputError, match=message):
            table_from_doc(broken(edit))
    with pytest.raises(InputError, match="^document: expected an object"):
        table_from_doc([])
    assert table_from_doc(broken(lambda d: None)) == table_from_doc(good)


def test_table_document_without_provenance_parses_to_empty_tuples():
    doc = table_to_doc(compute_ktheory(spec_of([("T", 2), ("D", 5), ("D", 8)])).table)
    del doc["certificates"], doc["extensions"]
    table = table_from_doc(doc)
    assert table.certificates == () and table.extensions == ()


def test_parse_error_texts_are_pinned():
    cases = [
        (_doc([("X", 2)]), """spec.colors[0].kind: expected "D" or "T", got 'X'"""),
        (_doc([("T", 2), ("D", 0)]), "spec.colors[1].size: expected a positive integer, got 0"),
        (
            {"instances": [_doc([("T", 2)], "both")]},
            """instances[0].involution: expected "trivial" or "swap", got 'both'""",
        ),
        ({"instances": []}, "instances: expected a non-empty list"),
        ({"colors": [3]}, "spec.colors[0]: expected an object with kind and size"),
    ]
    for doc, message in cases:
        with pytest.raises(InputError) as info:
            parse_instances(doc)
        assert str(info.value) == message


def test_sweep_errors_name_the_value_or_field():
    def sweep(colors, involution="both"):
        return {"colors": colors, "involution": involution}

    cases = [
        (sweep([{"kind": "X", "size": 2}]), """colors[0].kind: expected "D" or "T", got 'X'"""),
        (sweep(["T"]), "colors[0]: expected an object with kind and size"),
        (sweep([{"kind": "T", "size": 0}]), "colors[0].size: sizes must be positive, got 0"),
        (
            sweep([{"kind": "T", "size": 2}], "all"),
            """involution: expected "trivial", "swap" or "both", got 'all'""",
        ),
    ]
    for doc, message in cases:
        with pytest.raises(InputError) as info:
            expand_sweep(doc)
        assert str(info.value) == message


def test_pool_path_rejects_an_invalid_instance_like_the_serial_path(monkeypatch):
    # InvalidGraphError cannot be unpickled from a pool worker, so every
    # instance is checked before any work is handed out.
    import kgraph_ktheory.cli as cli_mod

    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
    doc = {
        "colors": [
            {"kind": "T", "size": [1, 3]},
            {"kind": "D", "size": 5},
            {"kind": "D", "size": 8},
        ],
        "involution": "trivial",
    }
    serial = run(_job("sweep", doc))
    parallel = run(_job("sweep", doc, jobs=2))
    assert serial.exit_code == EXIT_INPUT
    assert serial.output == (
        "input error: invalid graph spec: sizes_at_least_two: colors [0] have size < 2\n"
    )
    assert (parallel.exit_code, parallel.output) == (serial.exit_code, serial.output)


def test_huge_ranges_are_refused_before_any_work():
    # Each case would overflow len(range) or build ~10**28 tuples if it ran.
    huge = 10**29
    sweep = run(_job("sweep", {"colors": [{"kind": "T", "size": [2, huge]}]}))
    assert sweep.exit_code == EXIT_INPUT
    assert sweep.output.startswith("input error: colors[0].size: sweep grid exceeds")
    for doc, field in [
        ({"pairs": [2, huge]}, "pairs"),
        ({"quadruples": [2, 10**7]}, "quadruples"),
        ({"pairs": [2, 801], "triples": [2, 101]}, "triples"),
    ]:
        result = run(_job("lemmas", doc))
        assert result.exit_code == EXIT_INPUT
        assert result.output.startswith(f"input error: {field}: lemma checks exceed the")


def test_undecodable_and_oversized_input_exit_1(tmp_path, capsys):
    from kgraph_ktheory.cli import main

    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"colors": "\xff\xfe"}')
    paths = [binary]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # interpreters since 3.11 refuse integer literals past this many digits
        digits = tmp_path / "digits.json"
        digits.write_text('{"colors": [{"kind": "T", "size": 1%s}]}' % ("0" * limit))
        paths.append(digits)
    for path in paths:
        assert main(["compute", "--input", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")


def test_expected_rejects_what_compute_rejects():
    doc = _doc([("T", 1), ("D", 5), ("D", 8)])
    message = "input error: invalid graph spec: sizes_at_least_two: colors [0] have size < 2\n"
    for command in ("compute", "expected"):
        result = run(_job(command, doc))
        assert (result.exit_code, result.output) == (EXIT_INPUT, message), command


def test_closed_form_commands_share_one_rank_rule():
    message = "input error: instances[0]: no closed form for rank 2; supported ranks are 3 and 4\n"
    for command in ("expected", "verify", "sweep"):
        result = run(_job(command, _doc([("T", 2), ("T", 2)])))
        assert (result.exit_code, result.output) == (EXIT_INPUT, message), command
    capped = run(_job("expected", _doc([("T", 2)] * 4), max_rank=3))
    assert (capped.exit_code, capped.output) == (
        EXIT_INPUT,
        "input error: instances[0]: rank 4 exceeds the maximum 3\n",
    )


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    from kgraph_ktheory.cli import main

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["compute", "--input", str(deep)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


def test_echoed_values_are_capped_and_keep_the_field():
    huge_involution = {"colors": [{"kind": "T", "size": 2}], "involution": "x" * 10**6}
    huge_size = {"colors": [{"kind": "T", "size": [2] * 200_000}]}
    for doc, field in [
        (huge_involution, "spec.involution"),
        (huge_size, "spec.colors[0].size"),
        ({"instances": [huge_size]}, "instances[0].colors[0].size"),
    ]:
        result = run(_job("compute", doc))
        assert result.exit_code == EXIT_INPUT
        assert result.output.startswith(f"input error: {field}: expected ")
        assert len(result.output.encode()) < 300, len(result.output)
    swept = run(_job("sweep", {"colors": [{"kind": "T", "size": [2] * 200_000}]}))
    assert swept.exit_code == EXIT_INPUT
    assert swept.output.startswith("input error: colors[0].size: expected an integer or [lo, hi]")
    assert len(swept.output.encode()) < 300
