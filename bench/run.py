#!/usr/bin/env python3
"""Benchmark of the kgraph-ktheory CLI, end to end and layer by layer.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload compute-r56 --profile 25

``--trace 0`` measures what a user sees, with nothing traced:

- ``setup_s``: interpreter start plus ``import kgraph_ktheory.cli`` in a fresh
  process, median of several spread over the run;
- ``instances_per_s``: instances divided by the wall time of one CLI process
  (``python3 -m kgraph_ktheory.cli ... --jobs 1``) on the workload file,
  median over the run;
- ``instance_ms.p50`` / ``instance_ms.p90``: ``cli.run`` on one-instance
  documents in workload order, in a fresh process per pass; each instance's
  median over the passes, then the percentile over instances;
- ``peak_rss_mb``: peak RSS of the largest process in the CLI's process tree
  (the CLI and its pool workers, see ``launch.py``), median over CLI runs;
- ``pool_speedup``: wall time at ``--jobs 1`` over wall time at
  ``--jobs $(nproc)``.  ``compute`` has no pool, so there it reads about 1.

``--trace 1`` runs fresh-process passes that call each layer's public
functions with and without spans (see ``worker.py``) and reports per-layer
self time, exact counts and the tracing overhead.  Spans of the first traced
pass are written to ``.bench_out/``.

Every CLI output is checked: exit 0, every verdict ``match`` (verify, sweep),
``status`` ``ok`` or ``unknown-differential`` (compute), every table document
round-trips through ``cli.table_from_doc``, and each instance's output digest
equals the one recorded in ``digests.json`` and the one from every other run
in this benchmark run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_RUNS_PER_STEP = 3
PROCESS_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_ms.p50": "ms",
    "instance_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "pool_speedup": "x",
}
LAYER_SPANS = (
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
ROUND_TRIP_KEYS = ("ko", "ku", "certificates", "extensions", "resolved")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# --- processes --------------------------------------------------------------


@dataclass(frozen=True)
class Finished:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(cmd: list[str]) -> bytes:
    """Run cmd to completion and return its stdout.

    It runs in a session of its own, so that on a timeout or an interrupt
    the whole tree, pool workers included, is killed and reaped.
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"no exit after {PROCESS_TIMEOUT_S} s: {cmd}") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {cmd}")
    return stdout


def _launch(cmd: list[str], name: str) -> Finished:
    """Run cmd through launch.py, which times it and reads its peak RSS."""
    out_path, err_path = OUT / f"{name}.out", OUT / f"{name}.err"
    report = json.loads(_spawn([sys.executable, str(BENCH / "launch.py"), str(out_path), str(err_path), *cmd]))
    return Finished(
        report["code"],
        report["wall_s"],
        report["peak_rss_mb"],
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def _cli(w: workloads.Workload, input_path: Path, jobs: int) -> Finished:
    cmd = [sys.executable, "-m", "kgraph_ktheory.cli", *w.args, "--jobs", str(jobs)]
    return _launch(cmd + ["--input", str(input_path)], f"cli-{w.name}-jobs{jobs}")


def _worker(mode: str, w: workloads.Workload, seed: int, scale: str, *extra: str) -> dict:
    result_path = OUT / f"worker-{w.name}-{mode}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, w.name, str(seed), scale]
    _spawn(cmd + [str(result_path), *extra])
    return json.loads(result_path.read_text(encoding="utf-8"))


def _setup_once() -> float:
    done = _launch([sys.executable, "-c", "import kgraph_ktheory.cli"], "setup")
    if done.code != 0:
        raise BenchError(f"import failed: {done.stderr.decode()[-2000:]}")
    return done.wall_s


# --- output checks ----------------------------------------------------------


@dataclass
class Checker:
    """Counts instances attempted and failed across every run of one workload."""

    w: workloads.Workload
    recorded: dict
    attempted: int = 0
    failed: int = 0
    seen: dict = field(default_factory=dict)  # spec key -> output digest
    problems: list = field(default_factory=list)
    _round_tripped: set = field(default_factory=set)  # digests of checked lines

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def cli_output(self, done: Finished) -> None:
        n = len(self.w.instances)
        self.attempted += n
        if done.code != 0 or done.stderr:
            self.fail(n, f"CLI exit {done.code}: {done.stderr.decode()[-500:]}")
            return
        # compute separates its instances by a blank line, verify and sweep do not
        sep = "\n\n" if self.w.name == "compute-r56" else "\n"
        lines = done.stdout.decode().removesuffix("\n").split(sep)
        if self.w.name == "sweep-r4-grid":
            if lines[n : n + 1] != [f"all {n} instances match"]:
                self.fail(0, f"sweep summary line is {lines[n:n + 1]}")
        for i, spec in enumerate(self.w.instances):
            line = lines[i] if i < len(lines) else ""
            key, digest = workloads.spec_key(spec), workloads.digest(line)
            why = self._instance(spec, line, digest) or self._digest(key, digest)
            if why is not None:
                self.fail(1, f"{key}: {why}")

    def _digest(self, key: str, digest: str) -> str | None:
        if self.recorded.get(key, digest) != digest:
            return "output digest differs from the recorded one"
        if self.seen.setdefault(key, digest) != digest:
            return "output digest differs from an earlier run"
        return None

    def _instance(self, spec: dict, line: str, digest: str) -> str | None:
        if self.w.name == "sweep-r4-grid":
            colors = " ".join(f"{c['kind']}{c['size']}" for c in spec["colors"])
            head = f"{colors}  involution={spec['involution']}: match"
            if line != head and not line.startswith(head + "  (g="):
                return f"verdict line {line!r}"
            return None
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            return "output line is not JSON"
        if doc.get("spec") != spec:
            return "output out of order"
        status = doc.get("status")
        if self.w.name == "verify-r34":
            if doc.get("verdict") != "match" or status != "ok":
                return f"verdict {doc.get('verdict')}, status {status}"
        elif status == "unknown-differential":
            if not doc.get("unknown") or doc.get("resolved") is not False:
                return "unknown-differential without its uncertified locations"
        elif status != "ok":
            return f"status {status}"
        if digest not in self._round_tripped:
            tables = [doc] if status == "ok" else []
            tables += [doc["expected"]] if "expected" in doc else []
            for table_doc in tables:
                if not _round_trips(table_doc):
                    return "table document does not round-trip"
            self._round_tripped.add(digest)
        return None

    def latency(self, result: dict) -> None:
        for spec, code, digest in zip(self.w.instances, result["exit_codes"], result["digests"]):
            self.attempted += 1
            key = workloads.spec_key(spec)
            why = f"in-process exit {code}" if code != 0 else self._digest(key, digest)
            if why is not None:
                self.fail(1, f"{key}: {why}")

    def layers(self, result: dict) -> None:
        self.attempted += result["instances"]
        for i in result["failures"]:
            self.fail(1, f"{workloads.spec_key(self.w.instances[i])}: layer pass output wrong")


def _round_trips(table_doc: dict) -> bool:
    from kgraph_ktheory.cli import table_from_doc, table_to_doc

    subset = {k: table_doc[k] for k in ROUND_TRIP_KEYS}
    return table_to_doc(table_from_doc(table_doc)) == subset


# --- measurement ------------------------------------------------------------


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _until(seconds: float, t_start: float, kinds: tuple[str, ...], step) -> None:
    """Call step(kind) for each kind in turn, each at least once, and stop
    before a step that, judged by its kind's last duration, would end past
    ``seconds`` after t_start."""
    last: dict[str, float] = {}
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        if len(last) == len(set(kinds)) and perf_counter() - t_start + last[kind] > seconds:
            return
        t0 = perf_counter()
        step(kind)
        last[kind] = perf_counter() - t0


def measure_e2e(w, seed, scale, seconds, checker) -> tuple[dict, dict, dict]:
    t_start = perf_counter()
    input_path = OUT / f"input-{w.name}-seed{seed}-{scale}.json"
    input_path.write_text(json.dumps(w.document), encoding="utf-8")
    _setup_once()  # fills the bytecode cache; a user's second run finds it warm
    jobs = {"serial": 1, "pool": _nproc()}
    walls: dict[str, list[float]] = {"serial": [], "pool": []}
    setup: list[float] = []
    rss: list[float] = []
    passes: list[list[float]] = []

    def step(kind: str) -> None:
        # set-up runs are spread over the whole run, so that they see the
        # same machine as the timed work
        setup.extend(_setup_once() for _ in range(SETUP_RUNS_PER_STEP))
        if kind == "latency":
            lat = _worker("latency", w, seed, scale)
            checker.latency(lat)
            passes.append(lat["instance_ms"])
        else:
            done = _cli(w, input_path, jobs[kind])
            checker.cli_output(done)
            walls[kind].append(done.wall_s)
            rss.append(done.peak_rss_mb)

    # latency passes alternate with CLI runs: a pass's percentiles move more
    # with timing noise than a CLI run's total wall time does
    _until(seconds, t_start, ("latency", "serial", "latency", "pool"), step)
    per_instance = [statistics.median(times) for times in zip(*passes)]
    serial = statistics.median(walls["serial"])
    values = {
        "setup_s": statistics.median(setup),
        "instances_per_s": len(w.instances) / serial,
        "instance_ms.p50": statistics.median(per_instance),
        "instance_ms.p90": _p90(per_instance),
        "peak_rss_mb": statistics.median(rss),
        "pool_speedup": serial / statistics.median(walls["pool"]),
    }
    samples = {
        "setup_runs": len(setup),
        "cli_runs": {kind: len(v) for kind, v in walls.items()},
        "pool_jobs": jobs["pool"],
        "latency_passes": len(passes),
        "latency_instances": len(per_instance),
    }
    raw = {"cli_wall_s": walls, "setup_s": setup}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, samples, raw


def measure_layers(w, seed, scale, seconds, checker) -> tuple[dict, dict, dict]:
    t_start = perf_counter()
    spans_path = OUT / f"trace-{w.name}-seed{seed}-{scale}.jsonl"
    runs: dict[str, list[dict]] = {"untraced": [], "traced": []}

    def step(mode: str) -> None:
        extra = ("--spans", str(spans_path)) if mode == "traced" and not runs[mode] else ()
        result = _worker(mode, w, seed, scale, *extra)
        checker.layers(result)
        runs[mode].append(result)

    _until(seconds, t_start, ("untraced", "traced"), step)
    everything = runs["untraced"] + runs["traced"]
    counts = everything[0]["counts"]
    if any(r["counts"] != counts for r in everything):
        checker.fail(0, "layer counts differ between passes")
    metrics: dict[str, dict] = {}
    for name in LAYER_SPANS:
        ms = statistics.median(r["layer_ms"].get(name, 0.0) for r in runs["traced"])
        metrics[f"{name}.ms"] = {"value": ms, "unit": "ms"}
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": "bits" if name.endswith("bits") else "count"}
    if "row_cache_hit_ratio" in everything[0]:
        ratio = everything[0]["row_cache_hit_ratio"]
        metrics["spectral.row_cache.hit_ratio"] = {"value": ratio, "unit": "ratio"}
    traced = statistics.median(r["wall_s"] for r in runs["traced"])
    untraced = statistics.median(r["wall_s"] for r in runs["untraced"])
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1, "unit": "ratio"}
    samples = {
        "passes": {mode: len(rs) for mode, rs in runs.items()},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    raw = {"pass_wall_s": {mode: [r["wall_s"] for r in rs] for mode, rs in runs.items()}}
    return metrics, samples, raw


# --- environment and reporting ----------------------------------------------


def environment(seed: int, scale: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": _nproc(),
        "git_sha": sha or "unknown",
        "seed": seed,
        "scale": scale,
    }


def run_workload(name: str, seed: int, scale: str, seconds: float, trace: bool) -> dict:
    w = workloads.generate(name, seed, scale)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {}) if DIGESTS.exists() else {}
    checker = Checker(w, recorded)
    measure = measure_layers if trace else measure_e2e
    metrics, samples, raw = measure(w, seed, scale, seconds, checker)
    return {
        "workload": name,
        "why": workloads.WHY[name],
        "environment": environment(seed, scale),
        "mix": w.mix,
        "instances": len(w.instances),
        "trace": int(trace),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_frac": checker.failed / checker.attempted,
        "problems": checker.problems,
        "samples": samples,
        "metrics": metrics,
        "raw": raw,
        "digests": checker.seen,
    }


def _print_summary(result: dict) -> None:
    env = result["environment"]
    print(
        f"== {result['workload']}  seed {env['seed']}  scale {env['scale']}  "
        f"python {env['python']}  nproc {env['nproc']}  git {env['git_sha'][:12]}"
    )
    print(f"   mix: {json.dumps(result['mix'])}")
    print(f"   samples: {json.dumps(result['samples'])}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"   {'failed_frac':<36} {result['failed_frac']:>14.6g} "
        f"({result['failed']} of {result['attempted']})"
    )
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")


def _record(results: list[dict]) -> None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for r in results:
        recorded[r["workload"]] = dict(sorted(r["digests"].items()))
    DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--profile", type=int, metavar="N", help="print the top N tottime entries instead")
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store this run's output digests in {DIGESTS.name} (seed {DEFAULT_SEED}, full scale)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "kgraph_ktheory" / "cli.py").is_file():
        print(f"bench: no package source at {SRC}/kgraph_ktheory", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.scale != "full" or args.trace):
        print(f"bench: --record-digests needs seed {DEFAULT_SEED}, full scale, trace 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)

    if args.profile:
        for name in names:
            w = workloads.generate(name, args.seed, args.scale)
            text = _worker("profile", w, args.seed, args.scale, "--top", str(args.profile))["profile"]
            (OUT / f"profile-{name}.txt").write_text(text, encoding="utf-8")
            print(f"== {name}: cProfile of one in-process pass, top {args.profile} by tottime\n{text}")
        return 0

    try:
        results = [
            run_workload(name, args.seed, args.scale, args.seconds, bool(args.trace))
            for name in names
        ]
    except (BenchError, workloads.MixError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for r in results:
        (OUT / f"result-{r['workload']}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(r, indent=1), encoding="utf-8"
        )
        _print_summary(r)
    if args.record_digests:
        _record(results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": failed == 0 and not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
