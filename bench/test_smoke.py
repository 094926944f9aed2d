"""Smoke test of the benchmark: every workload at tiny scale, metric names pinned.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_ms.p50": "ms",
    "instance_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "pool_speedup": "x",
}
PER_LAYER = {
    **{
        f"{layer}.ms": "ms"
        for layer in (
            "intmat.snf",
            "kgraph.koszul_complex",
            "kgraph.validate",
            "homology.homology_all",
            "spectral.build_e2",
            "spectral.converge",
            "spectral.assemble",
            "families.closed_form",
            "families.expected_table",
            "cli.parse",
            "cli.table_to_doc",
            "cli.serialize",
            "cli.render",
        )
    },
    "intmat.snf.calls": "count",
    "intmat.snf.max_bits": "bits",
    "homology.homology_all.calls": "count",
    "spectral.cert.ZeroSourceOrTarget": "count",
    "spectral.cert.CoprimeTorsion": "count",
    "spectral.cert.RealShadowC": "count",
    "spectral.cert.Unknown": "count",
    "spectral.ext.TrivialSide": "count",
    "spectral.ext.CoprimeOrders": "count",
    "spectral.ext.CMapSplitting": "count",
    "spectral.ext.Unresolved": "count",
    "spectral.status.unknown": "count",
    "spectral.row_cache.hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_pinned_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_follow_the_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    if name != "sweep-r4-grid":  # a fixed grid
        assert workloads.generate(name, 7).document != workloads.generate(name, 8).document


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    done = _bench(
        "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    pinned = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == pinned


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "verify-r34", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
