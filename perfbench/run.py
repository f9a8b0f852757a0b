#!/usr/bin/env python3
"""fpklab benchmark: wall time, setup time and memory of user-visible jobs.

Run from the repository root:

    python3 perfbench/run.py --workload bulk_3d --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 35 --trace 1

One harness process runs the samples one after another (a closed loop with
one client).  Each sample is one job, ``cli.run_scenario`` or
``cli.run_sweep``, in a fresh child process (``child.py``), with BLAS
threads capped at 1.  Samples repeat until ``--seconds`` have passed; the
reported value of each metric is the median over the samples.

Every sample's outputs are checked: |mass - 1| <= 1e-12 on every record, a
non-increasing free energy (up to the 1e-10 round-off the acceptance suite
allows), envelope margins >= -1e-8, and the regime, T-verdicts, accepted
step counts, series row counts (for the sweep also its overall_pass column)
equal to the seed-0 reference in ``expected.json``.  A sample that raises or
fails a check counts as failed.  The sha256 of series.csv/sweep.csv is
printed for information only.

With ``--trace 0`` the last line reports ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  The two times are scaled to a fixed host speed: between
consecutive samples the harness times a fixed reference work
(``reference.py``), which runs no fpklab code, and scales each sample by
how long the readings around it took against their nominal length; the
unscaled medians are printed too.  With ``--trace 1`` the harness alternates untraced and
traced samples (the sweep traced at jobs=1, so its rows stay in one
process), then runs the kernel microbenchmarks (``micro.py``), and the last
line reports the per-layer split, the tracing overhead (traced minus
untraced ``wall_s``) and the microbenchmarks.  The spans of the latest
traced run of each workload are kept in ``.bench_work/trace/``.

``--workload all`` runs every workload in turn and prints a table.
``--record`` (seed 0 only) rewrites the workload's entry in expected.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, build_input
from reference import NOMINAL_S, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

#: the declared metrics, with their units: end_to_end untraced, per_layer traced
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACE_KEY = {False: "end_to_end", True: "per_layer"}

#: workloads the harness runs that BENCHMARK.json leaves out, and why
UNDECLARED = {
    "euler_stationary_1d": (
        "not in BENCHMARK.json: unsteady, because a run holds only 4 to 6 samples of 5.5 s "
        "and this 2-core host shifts speed by up to 1.7x for minutes at a time (quartile "
        "spread 0.255 of the median over ten seeds of 25 s runs, above the 0.25 bound)"
    ),
}

#: a run must end within 180 s; no sample starts after this much time
RUN_DEADLINE_S = 165.0

MASS_TOL = 1e-12
FREE_ENERGY_ROUNDOFF = 1e-10
ENVELOPE_TOL = -1e-8

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

NPROC = len(os.sched_getaffinity(0))


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Run a child script to completion; returns the JSON on its last line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a timeout can stop the sweep's pool workers too
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise ChildError(f"exit code {proc.returncode}: {tail[0]}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError("printed no result")
    return json.loads(lines[-1])


# -- output checks -------------------------------------------------------------


def check_series(path: Path) -> list[str]:
    """Invariant checks on one series.csv; returns the failures."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    previous = math.inf
    for i, row in enumerate(rows):
        mass = float(row["mass"])
        free_energy = float(row["free_energy"])
        margin = float(row["envelope_margin"])
        if not abs(mass - 1.0) <= MASS_TOL:
            errors.append(f"{path.name} record {i}: mass {mass!r}")
        if not free_energy <= previous + FREE_ENERGY_ROUNDOFF:
            errors.append(f"{path.name} record {i}: free energy rose to {free_energy!r}")
        if not margin >= ENVELOPE_TOL:
            errors.append(f"{path.name} record {i}: envelope margin {margin!r}")
        previous = free_energy
    if not rows:
        errors.append(f"{path.name}: no records")
    return errors


def scenario_summary(out_dir: Path, errors: list[str]) -> dict:
    """Checked outputs of one scenario run, in the form expected.json keeps."""
    report = json.loads((out_dir / "report.json").read_text())
    errors.extend(check_series(out_dir / "series.csv"))
    with (out_dir / "series.csv").open() as fh:
        csv_rows = sum(1 for _ in fh) - 1
    if csv_rows != report["series_rows"]:
        errors.append(f"series.csv has {csv_rows} rows, report says {report['series_rows']}")
    return {
        "regime": report["regime"],
        "verdicts": {c["theorem"]: c.get("overall", "error") for c in report["condition_reports"]},
        "accepted_steps": report["accepted_steps"],
        "series_rows": report["series_rows"],
    }


def check_outputs(kind: str, out_dir: Path) -> tuple[dict, str, list[str]]:
    """(summary, sha256 of the main CSV, failures) of one sample's outputs."""
    errors: list[str] = []
    if kind == "scenario":
        main_csv = out_dir / "series.csv"
        summary = scenario_summary(out_dir, errors)
    else:
        main_csv = out_dir / "sweep.csv"
        with main_csv.open(newline="") as fh:
            sweep_rows = list(csv.DictReader(fh))
        row_dirs = sorted(p for p in (out_dir / "rows").iterdir() if p.is_dir())
        summary = {
            "overall_pass": [row["overall_pass"] for row in sweep_rows],
            "rows": [scenario_summary(d, errors) for d in row_dirs],
        }
        errors.extend(f"sweep row {row['value']}: {row['error']}" for row in sweep_rows if row["error"])
    return summary, hashlib.sha256(main_csv.read_bytes()).hexdigest(), errors


def compare_to_reference(workload: str, summary: dict, reference: dict | None) -> list[str]:
    if reference is None:
        return [f"no seed-0 reference for {workload} in {EXPECTED.name}"]
    if summary != reference["summary"]:
        return [f"outputs differ from the seed-0 reference: {summary} != {reference['summary']}"]
    return []


# -- one run -------------------------------------------------------------------


class Run:
    """Samples of one workload at one seed, with their outcomes."""

    def __init__(self, workload: str, seed: int, record: bool):
        self.workload = workload
        self.seed = seed
        self.record = record
        self.kind, document, self.shift = build_input(SCENARIOS, workload, seed)
        self.dir = WORK / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.input = self.dir / "input.json"
        self.input.write_text(json.dumps(document, indent=2))
        references = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        self.reference = references.get(workload)
        self.attempted = 0
        self.failed = 0
        self.sha256: set[str] = set()
        self.versions: dict = {}

    def sample(self, deadline: float, jobs: int, spans: Path | None = None) -> dict | None:
        """One job in a fresh process; None when it fails."""
        self.attempted += 1
        out_dir = self.dir / f"out{self.attempted}"
        argv = [str(BENCH / "child.py"), "--kind", self.kind, "--input", str(self.input)]
        argv += ["--out", str(out_dir), "--jobs", str(jobs)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        try:
            result = run_child(argv, deadline)
            summary, sha, errors = check_outputs(self.kind, out_dir)
        except (ChildError, OSError, ValueError, KeyError) as exc:
            result, summary, sha, errors = None, None, None, [f"{type(exc).__name__}: {exc}"]
        if result is not None and not Path(result["fpklab_file"]).is_relative_to(SRC):
            errors.append(f"imported fpklab from {result['fpklab_file']}, not from {SRC}")
        if summary is not None:
            if self.record:
                self.save_reference(summary, sha)
            errors.extend(compare_to_reference(self.workload, summary, self.reference))
            self.sha256.add(sha)
        shutil.rmtree(out_dir, ignore_errors=True)
        label = "traced " if spans is not None else ""
        if errors:
            self.failed += 1
            print(f"  {label}sample {self.attempted} (jobs={jobs}) FAILED: {'; '.join(errors[:3])}")
            return None
        self.versions = {k: result[k] for k in ("fpklab_version", "numpy_version")}
        print(
            f"  {label}sample {self.attempted} (jobs={jobs}): wall_s={result['wall_s']:.4f} "
            f"setup_s={result['setup_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f} ok"
        )
        return result

    def save_reference(self, summary: dict, sha: str) -> None:
        references = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        references[self.workload] = {"summary": summary, "sha256": sha}
        EXPECTED.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
        self.reference = references[self.workload]
        self.record = False

    def provenance(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "translation_cells": self.shift,
            "python": platform.python_version(),
            **self.versions,
            "git_sha": git_sha(),
            "src_sha256": tree_sha256(SRC / "fpklab"),
            "nproc": NPROC,
            "blas_threads": 1,
            "machine": platform.machine(),
        }

    def sha_note(self) -> str:
        expected = (self.reference or {}).get("sha256")
        shas = sorted(self.sha256)
        same = "matches" if shas == [expected] else "differs from"
        name = "sweep.csv" if self.kind == "sweep" else "series.csv"
        return f"{name} sha256 {','.join(s[:16] for s in shas)} {same} the seed-0 reference (information only)"


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # never report an enclosing repository's sha
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def run_untraced(run: Run, seconds: float, start: float) -> dict:
    """Median over samples of wall_s and setup_s scaled to the reference host speed, and peak_rss_mb.

    The reference work is timed between consecutive samples; a sample's
    times are scaled by NOMINAL_S over the geometric mean of the two
    readings around it.
    """
    jobs = NPROC if run.kind == "sweep" else 1
    deadline = start + RUN_DEADLINE_S
    results, raw = [], []
    reference_s()  # warm-up
    before = reference_s()
    while True:
        t0 = time.monotonic()
        result = run.sample(deadline, jobs)
        after = reference_s()
        if result is not None:
            scale = NOMINAL_S / math.sqrt(before * after)
            print(f"    reference {before:.4f} s / {after:.4f} s: scale {scale:.4f}")
            raw.append(result)
            results.append({**result, "wall_s": result["wall_s"] * scale, "setup_s": result["setup_s"] * scale})
        before = after
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + (time.monotonic() - t0) > RUN_DEADLINE_S:
            break
    if not results:
        return {}
    print(
        f"  unscaled medians: wall_s={median_of(raw, 'wall_s'):.4f} setup_s={median_of(raw, 'setup_s'):.4f} "
        f"over {len(raw)} samples"
    )
    return {name: median_of(results, name) for name in ("wall_s", "setup_s", "peak_rss_mb")}


def run_traced(run: Run, seconds: float, start: float) -> dict:
    """Alternate untraced and traced samples, then the microbenchmarks."""
    parallel_jobs = NPROC if run.kind == "sweep" else 1
    deadline = start + RUN_DEADLINE_S
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob(f"{run.workload}-*.tsv.gz"):  # keep one run's spans per workload
        old.unlink()
    parallel, untraced, traced = [], [], []
    while True:
        t0 = time.monotonic()
        result = run.sample(deadline, parallel_jobs)
        if result is not None:
            parallel.append(result)
        if run.kind == "sweep":  # the overhead compares like with like: jobs=1
            result = run.sample(deadline, 1)
            if result is not None:
                untraced.append(result)
        spans = trace_dir / f"{run.workload}-seed{run.seed}-{len(traced) + 1}.tsv.gz"
        result = run.sample(deadline, 1, spans)
        if result is not None:
            traced.append(result)
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + 2 * (time.monotonic() - t0) > RUN_DEADLINE_S:
            break
    if run.kind != "sweep":
        untraced = parallel
    if not (parallel and untraced and traced):
        return {}
    for missing in traced[0]["missing"]:
        print(f"  note: {missing} not found, so not traced")
    layers = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    traced_wall = median_of(traced, "wall_s")
    layers["tracing.overhead_s"] = traced_wall - median_of(untraced, "wall_s")
    layers["cli.sweep_parallel_efficiency"] = layers["cli.sweep_row_s_sum"] / (
        parallel_jobs * median_of(parallel, "wall_s")
    )
    print(
        f"  top-level spans {layers['tracing.top_level_s']:.4f} s vs untraced wall_s "
        f"{median_of(untraced, 'wall_s'):.4f} s; tracing overhead {layers['tracing.overhead_s']:.4f} s"
    )
    micro = run_child([str(BENCH / "micro.py"), "--seed", str(run.seed)], deadline)
    layers.update(micro)
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    start = time.monotonic()
    run = Run(workload, seed, record)
    print(f"{workload} seed={seed} trace={int(trace)}")
    if workload in UNDECLARED:
        print(f"  note: {workload} is {UNDECLARED[workload]}")
    values = (run_traced if trace else run_untraced)(run, seconds, start)
    if not values:
        raise SystemExit(f"{workload}: no sample succeeded, so there is nothing to report")
    declared = {m["name"]: m["unit"] for m in BENCHMARK[TRACE_KEY[trace]]}
    if set(values) != set(declared):
        raise SystemExit(f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    print(f"  {run.sha_note()}")
    print(f"  provenance {json.dumps(run.provenance())}")
    shutil.rmtree(run.dir, ignore_errors=True)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }


def print_table(results: dict) -> None:
    """Every metric of every workload, in BENCHMARK.json order, plus failed_share."""
    first = next(iter(results.values()))["metrics"]
    rows = [(n, first[n]["unit"], [r["metrics"][n]["value"] for r in results.values()]) for n in first]
    rows.append(("failed_share", "failed/attempted", [r["failed"] / r["attempted"] for r in results.values()]))
    rows.append(("samples", "count", [r["attempted"] for r in results.values()]))
    width = max(len(name) for name, _, _ in rows)
    print(f"\n{'metric':<{width}}  {'unit':<16}" + "".join(f"{w:>22}" for w in results))
    for name, unit, values in rows:
        print(f"{name:<{width}}  {unit:<16}" + "".join(f"{v:>22.6g}" for v in values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the seed-0 reference")
    args = parser.parse_args()
    if not (SRC / "fpklab").is_dir() or not SCENARIOS.is_dir():
        print(f"error: {ROOT} has no fpklab sources (src/fpklab) or scenarios/", file=sys.stderr)
        return 2
    if args.record and args.seed != 0:
        print("error: --record takes seed 0 only", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.record) for w in workloads
        }
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(results)
        for workload, why in UNDECLARED.items():
            print(f"note: {workload} is {why}")
        return 0
    result = results[args.workload]
    print(f"  failed_share {result['failed']}/{result['attempted']} (failed/attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
