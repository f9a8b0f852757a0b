"""Scenario configuration, batch execution, sweeps, and serialization.

A scenario is a JSON file naming the grid, the four coefficient expressions,
solver settings, and optional diagnostics/theory blocks.  ``build_scenario``
validates each value once and keeps it in the form scenario.normalized.json
writes (the theory block as that dict; the solver defaults live in
SolverConfig alone), and a sweep row is its base's dict with one axis
applied, which that same call validates.  ``fpk run`` writes
a time series (series.csv), a full report (report.json), and the normalized
scenario (scenario.normalized.json) into the output directory; ``fpk check``
evaluates the decay conditions without time stepping; ``fpk sweep`` runs a
scenario family along one axis and merges per-row results into sweep.csv;
``fpk equilibrium`` prints equilibrium statistics.

A report is ``_report`` (what reads the name and theory) on ``_trajectory``
(what the flow alone decides); sweep rows that differ only in name and theory
share one trajectory.  CSV numbers have 17 significant digits, so reruns are
byte-identical.  A sweep's distinct trajectories run concurrently (up to
--jobs processes, longest predicted first) but merge in input order, so
concurrency never changes the output.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import shutil
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from . import diagnostics, solver, theory
from .coefficients import T_PROBE_COUNT, build_constants_ledger, compute_equilibrium, sample_coefficients
from .errors import MESSAGE_WIDTH, FpkError, ScenarioError, TooShortSeriesError, quote_source, quote_value
from .expressions import parse_expression
from .grid import Grid, build_grid, integrate
from .solver import SolverConfig

SERIES_COLUMNS = (
    "t",
    "mass",
    "free_energy",
    "dissipation",
    "f_min",
    "f_max",
    "u_sup",
    "envelope_margin",
    "jensen_margin",
)

#: what the commands write into an output directory: --force removes these there, and nothing else
OUTPUTS = ("series.csv", "report.json", "scenario.normalized.json", "sweep.csv", "rows")

#: the sweep axes, each with the tag a row's name carries before its value
SWEEP_AXES = {"d_scale": "d", "gamma": "g", "grad_pi_scale": "p", "resolution": "n"}

#: the solver settings a scenario may give, in validation order, with their
#: kinds: SolverConfig's fields, which hold the defaults of those it leaves out
SOLVER_KINDS = get_type_hints(SolverConfig)

#: the theory key whose certified value, if the scenario gives one, stands in for each constant
CERTIFIED_KEYS = {
    "poincare": "certified_poincare", "sobolev": "certified_sobolev", "sobolev_weighted": "certified_sobolev"
}

def _fmt(value) -> str:
    """17-significant-digit formatting; stable across reruns."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: Grid
    coefficients: dict
    solver: SolverConfig
    fit_window: tuple[float, float] | None = None
    #: the validated theory block: gamma, then the certified values the file gives
    theory: dict | None = None

    def to_dict(self) -> dict:
        solver_block = asdict(self.solver)
        record_every = solver_block.pop("record_every")
        data = {
            "name": self.name,
            "grid": asdict(self.grid),
            "coefficients": dict(self.coefficients),
            "solver": solver_block,
            "diagnostics": {"record_every": record_every},
        }
        if self.fit_window is not None:
            data["diagnostics"]["fit_window"] = list(self.fit_window)
        if self.theory is not None:
            data["theory"] = dict(self.theory)
        return data


def _object(value, context: str, keys=None) -> dict:
    """value as a dict; with ``keys``, a key outside them is a ScenarioError."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{context} must be a JSON object")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        head, allowed = f"{context} has unknown key {quote_value(unknown[0])}; allowed: ", ", ".join(keys)
        if len(head + allowed) > MESSAGE_WIDTH:  # cut after the last whole key that fits
            allowed = allowed[: allowed.rfind(", ", 0, MESSAGE_WIDTH - len(head) - 3)] + ", ..."
        raise ScenarioError(head + allowed)
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in _object(mapping, context):
        raise ScenarioError(f"{context} is missing required key {key!r}")
    return mapping[key]


def _number(kind, value, where: str):
    """int(value) or float(value) of a JSON number; anything else (a string or a
    boolean too), a number that converts to neither, or a non-integral number
    for an int, is a ScenarioError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):  # JSON true would read as 1
        raise ScenarioError(f"{where} must be a number; got {quote_value(value)}")
    try:
        number = kind(value)
    except (ValueError, OverflowError):
        raise ScenarioError(f"{where} must be a number; got {quote_value(value)}") from None
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{where} must be an integer; got {quote_value(value)}")
    return number


def _string(value, where: str) -> str:
    """value, which must be a JSON string; anything else is a ScenarioError."""
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a JSON string; got {quote_value(value)}")
    return value


def _positive(value, where: str) -> float:
    number = _number(float, value, where)
    if not 0.0 < number < math.inf:
        raise ScenarioError(f"{where} must be positive and finite; got {quote_value(value)}")
    return number


def build_scenario(data: dict, fallback_name: str = "scenario") -> Scenario:
    """Validate a scenario dict, applying defaults."""
    keys = ("name", "grid", "coefficients", "solver", "diagnostics", "theory")
    name = _string(_object(data, "scenario", keys).get("name", fallback_name), "scenario name")
    if any(c in name for c in "/\\\0"):  # a sweep row's directory is named after it
        raise ScenarioError(
            f"scenario name must not contain '/', '\\' or NUL; got {quote_source(name)}"
        )

    grid_block = _object(_require(data, "grid", "scenario"), "grid", ("dim", "cells_per_axis"))
    cells = _require(grid_block, "cells_per_axis", "grid")
    grid = build_grid(
        _number(int, _require(grid_block, "dim", "grid"), "grid.dim"),
        _number(int, cells, "grid.cells_per_axis"),
    )

    names = ("D", "phi", "pi", "f0")
    coeff_block = _object(_require(data, "coefficients", "scenario"), "coefficients", names)
    coefficients = {}
    for key in names:
        source = _string(_require(coeff_block, key, "coefficients"), f"coefficient {key!r}")
        try:
            expr = parse_expression(source)
        except FpkError as exc:
            raise ScenarioError(f"coefficient {key!r}: {exc}") from exc
        if key != "pi" and expr.uses_t:
            raise ScenarioError(f"coefficient {key!r} is spatial-only but uses t")
        coefficients[key] = source

    solver_block = _object(data.get("solver", {}), "solver", tuple(SOLVER_KINDS))
    diag_block = _object(data.get("diagnostics", {}), "diagnostics", ("record_every", "fit_window"))
    _require(solver_block, "t_end", "solver")
    given, blocks = dict(solver_block), dict.fromkeys(SOLVER_KINDS, "solver")
    if "record_every" in diag_block:  # it wins over the solver block's
        given["record_every"], blocks["record_every"] = diag_block["record_every"], "diagnostics"
    settings = {}
    for key, kind in SOLVER_KINDS.items():
        if key in given:
            where = f"{blocks[key]}.{key}"
            settings[key] = str(given[key]) if kind is str else _number(kind, given[key], where)
    try:
        config = SolverConfig(**settings)
    except ValueError as exc:  # each message starts with the name of the setting it rejects
        raise ScenarioError(f"{blocks.get(str(exc).partition(' ')[0], 'solver')}: {exc}") from exc

    fit_window = None
    if "fit_window" in diag_block:
        window = diag_block["fit_window"]
        if not (isinstance(window, (list, tuple)) and len(window) == 2):
            raise ScenarioError("diagnostics.fit_window must be [t_lo, t_hi]")
        fit_window = tuple(
            _number(float, w, f"diagnostics.fit_window[{i}]") for i, w in enumerate(window)
        )
        if not all(math.isfinite(w) for w in fit_window):
            raise ScenarioError(f"diagnostics.fit_window must have finite ends; got {quote_value(window)}")
        if fit_window[1] <= fit_window[0]:
            raise ScenarioError("diagnostics.fit_window must have t_lo < t_hi")

    theory_block = None
    if "theory" in data:
        certified_keys = ("certified_sobolev", "certified_poincare")
        given = _object(data["theory"], "theory", ("gamma", *certified_keys))
        theory_block = {"gamma": _positive(_require(given, "gamma", "theory"), "theory.gamma")}
        for key in certified_keys:
            if given.get(key) is not None:
                theory_block[key] = _positive(given[key], f"theory.{key}")

    return Scenario(
        name=name,
        grid=grid,
        coefficients=coefficients,
        solver=config,
        fit_window=fit_window,
        theory=theory_block,
    )


def _load_json(path: Path, kind: str):
    if not path.exists():
        raise ScenarioError(f"{kind} file not found: {path}")
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {kind} file {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc


def parse_scenario(path) -> Scenario:
    path = Path(path)
    return build_scenario(_load_json(path, "scenario"), fallback_name=path.stem)


def _constants(theory_block: dict | None, columns: dict) -> tuple[dict, dict, dict | None]:
    """(empirical_constants, constants, certified_consistency) as report.json writes them.
    Each constant is its certified value where the scenario gives one, else the running
    maximum of its recorded ratio (None where no state defines it); a certified Poincare
    or Sobolev value is compared with that maximum."""
    empirical, constants, consistency = {}, {}, {}
    for name, key in CERTIFIED_KEYS.items():
        empirical[name] = top = max((x for x in columns[name] if not math.isnan(x)), default=None)
        certified = (theory_block or {}).get(key)
        value, provenance = (top, "empirical") if certified is None else (certified, "certified")
        constants[name] = {"value": value, "provenance": provenance}
        if certified is not None and top is not None and name != "sobolev_weighted":
            consistency[name] = {"certified": certified, "empirical_max": top, "consistent": top <= certified}
    return empirical, constants, consistency or None


SOBOLEV_NOTE = (
    "Weighted Sobolev/Poincare constants are not constructive; this report "
    "uses empirical running maxima over recorded states unless a certified "
    "value was supplied (see each condition report's provenance)."
)
CHECK_NOTE = " (check mode: empirical values sampled at the initial state only)"

#: report.json's keys, in order; an unstepped report has fewer of them
REPORT_KEYS = (
    "scenario", "regime", "equilibrium", "constants_ledger", "empirical_constants",
    "certified_consistency", "term_breakdown_samples", "decay_fit", "condition_reports",
    "envelope", "series_rows", "accepted_steps", "sobolev_constant_note",
)


def _setup(scenario: Scenario):
    """Grid, coefficients, unit-mass f0, and the equilibrium with its shift."""
    grid = scenario.grid
    coeffs, f0 = sample_coefficients(scenario.coefficients, grid)
    feq, shift = compute_equilibrium(coeffs)
    return grid, coeffs, f0, feq, shift


def _equilibrium_block(feq, shift) -> dict:
    return {
        "shift": shift,
        "feq_min": feq.min(),
        "feq_max": feq.max(),
        "mass_residual": integrate(feq) - 1.0,
    }


def _trajectory(scenario: Scenario, steps: bool = True):
    """(series, ledger, fields): what the flow alone decides, ``fields`` being
    its report entries; it reads neither the scenario's name nor its theory.
    With ``steps=False`` the series records the initial state alone.  A stepped
    run's term breakdowns are its recorder's ``terms`` list, None where unsampled
    (see diagnostics.make_batch_recorder); a run holds at most one batch of recorded states."""
    grid, coeffs, f0, feq, shift = _setup(scenario)
    t_end = scenario.solver.t_end
    ledger = build_constants_ledger(
        coeffs, f0, grid, t_probe_count=T_PROBE_COUNT, t_horizon=max(t_end, 1e-6), feq_shift=shift
    )
    fields = {"regime": coeffs.regime, "equilibrium": _equilibrium_block(feq, shift)}
    fields["constants_ledger"] = asdict(ledger)
    if not steps:
        initial = solver.SolverState(f=f0, t=0.0, step_index=0)
        columns = diagnostics.make_batch_recorder(coeffs)([initial], [coeffs.pi_values(0.0)])
        return solver.TimeSeries(columns), ledger, fields

    envelope = diagnostics.max_principle_envelope(f0, feq, coeffs)
    recorder = diagnostics.make_batch_recorder(coeffs, envelope=envelope, config=scenario.solver)
    series = solver.run(f0, coeffs, scenario.solver, recorder)
    samples = zip(series.columns["t"], series.columns["terms"])
    fields["term_breakdown_samples"] = [{"t": t, **terms} for t, terms in samples if terms is not None]
    try:
        fields["decay_fit"] = diagnostics.decay_fit(series, scenario.fit_window or (t_end / 4.0, t_end))
    except TooShortSeriesError as exc:
        fields["decay_fit"] = {"error": str(exc)}
    fields["series_rows"] = len(series)
    fields["accepted_steps"] = series.accepted_steps
    return series, ledger, fields


def _report(scenario: Scenario, series, ledger, fields: dict) -> dict:
    """The report of ``scenario`` on its trajectory.  Empirical constants are
    maxima of the recorded ratios: on an unstepped trajectory, of the initial
    state's alone, as the note says; such a report has no envelope."""
    empirical, constants, consistency = _constants(scenario.theory, series.columns)
    regime, gamma = fields["regime"], (scenario.theory or {}).get("gamma")
    report = {
        "scenario": scenario.to_dict(),
        **fields,
        "empirical_constants": empirical,
        "condition_reports": [],
        "sobolev_constant_note": SOBOLEV_NOTE,
    }
    if gamma is not None:
        g0 = series.columns["dissipation"][0]
        report["condition_reports"] = theory.condition_reports(regime, ledger, gamma, g0, constants)
    if "accepted_steps" not in fields:  # unstepped, as fpk check reads it
        report["sobolev_constant_note"] += CHECK_NOTE
    else:
        report["certified_consistency"] = consistency
        report["envelope"] = None
        if gamma is not None:
            report["envelope"] = theory.envelope_report(regime, ledger, gamma, series)
    return {key: report[key] for key in REPORT_KEYS if key in report}


def run_scenario_data(scenario: Scenario):
    """Execute a scenario in memory; returns (series, report)."""
    series, ledger, fields = _trajectory(scenario)
    return series, _report(scenario, series, ledger, fields)


def check_scenario_data(scenario: Scenario) -> dict:
    """Condition checks only: the report of the unstepped trajectory."""
    return _report(scenario, *_trajectory(scenario, steps=False))


def _series_rows(series) -> Iterator[list[str]]:
    """series.csv's data rows, each formatted as the writer takes it, so no run holds them all."""
    return (list(map(_fmt, row)) for row in zip(*(series.columns[name] for name in SERIES_COLUMNS)))


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _prepare_out_dir(out_dir: Path, force: bool) -> Path:
    quoted = quote_source(str(out_dir), len(str(out_dir)))  # a long path shows its end
    try:
        if out_dir.exists() and any(out_dir.iterdir()):
            if not force:
                raise ScenarioError(f"output directory {quoted} is not empty; pass --force to overwrite")
            for path in map(out_dir.joinpath, OUTPUTS):
                if path.is_dir() and not path.is_symlink():
                    shutil.rmtree(path)
                else:
                    path.unlink(missing_ok=True)
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file at or above out_dir
        raise ScenarioError(f"output directory {quoted}: {exc.strerror}") from None
    return out_dir


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def run_scenario(scenario: Scenario, out_dir, force: bool = False) -> dict:
    """Run and serialize; returns the report dict."""
    out = _prepare_out_dir(Path(out_dir), force)
    return _write_run(out, scenario, *run_scenario_data(scenario))


def _write_run(out: Path, scenario: Scenario, series, report: dict) -> dict:
    _write_csv(out / "series.csv", SERIES_COLUMNS, _series_rows(series))
    write_report(out / "report.json", report)
    write_report(out / "scenario.normalized.json", scenario.to_dict())
    return report


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    axis: str
    values: list

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ScenarioError(f"sweep axis must be one of {', '.join(SWEEP_AXES)}; got {quote_value(self.axis, 16)}")
        if not self.values:
            raise ScenarioError("sweep values list must be nonempty")


def parse_sweep(path) -> SweepSpec:
    path = Path(path)
    data = _object(_load_json(path, "sweep"), "sweep", ("axis", "values", "base"))
    base_block = _require(data, "base", "sweep")
    if isinstance(base_block, str):
        base = parse_scenario(path.parent / base_block)
    else:
        base = build_scenario(base_block, fallback_name=path.stem + "-base")
    values = _require(data, "values", "sweep")
    # type(), not isinstance: JSON true would otherwise pass as the int 1
    if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
        raise ScenarioError(f"sweep values must be a list of numbers; got {quote_value(values)}")
    for index, value in enumerate(values):
        try:
            float(value)  # as a gamma row does; a NaN or infinite value is left to its row
        except OverflowError:
            raise ScenarioError(f"sweep value {index} is an integer too large for a float") from None
    return SweepSpec(base=base, axis=str(_require(data, "axis", "sweep")), values=values)


def apply_axis(scenario: Scenario, axis: str, value) -> dict:
    """The scenario dict of one sweep row, named after its value; build_scenario validates it."""
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}")
    data = scenario.to_dict()  # fresh to its leaves, so the base is left alone
    coeffs = data["coefficients"]
    if axis == "d_scale":
        coeffs["D"] = f"({value!r})*({coeffs['D']})"
    elif axis == "gamma":
        if scenario.theory is None:
            raise ScenarioError("gamma sweep requires a theory block in the base scenario")
        data["theory"]["gamma"] = float(value)
    elif axis == "grad_pi_scale":
        # pi -> 1 + s (pi - 1): scales grad(pi) and pi_t by exactly s
        coeffs["pi"] = f"1 + ({value!r})*(({coeffs['pi']}) - 1)"
    else:
        data["grid"]["cells_per_axis"] = value
    data["name"] = f"{scenario.name}-{SWEEP_AXES[axis]}{value}"
    return data


def _sweep_row(theorem: str, report: dict | None = None, error: str = "") -> list[str]:
    """A row's sweep.csv cells after its value (measured_rate, the theorem's
    margins, overall_pass, fit_error, error), from its report or the error that ended it."""
    margins = dict.fromkeys(theory.CLAUSES[theorem], math.nan)
    fit, overall = {}, ""
    if report is not None:
        fit = report["decay_fit"]
        cond = next((c for c in report["condition_reports"] if c["theorem"] == theorem), {})
        if "clauses" in cond:
            margins.update((c["name"], theory.clause_margin(c)) for c in cond["clauses"])
            overall = cond["overall"]
        elif report["condition_reports"]:  # no theory block leaves the cells blank
            error = cond.get("error", f"no {theorem} report: the row's regime is {report['regime']}")
    cells = [_fmt(fit.get("rate", math.nan)), *map(_fmt, margins.values())]
    return [*cells, str(overall), fit.get("error", ""), error]


def _sweep_task(task) -> dict:
    """One trajectory shared by a group of rows, then each row's report and files."""
    theorem, rows = task  # rows: (index, scenario, row directory), one trajectory
    try:
        trajectory = _trajectory(rows[0][1])
    except Exception as exc:  # per-row failures recorded, sweep continues
        return {index: _sweep_row(theorem, error=str(exc)) for index, _, _ in rows}
    results = {}
    for index, scenario, row_dir in rows:
        try:
            report = _write_run(row_dir, scenario, trajectory[0], _report(scenario, *trajectory))
            results[index] = _sweep_row(theorem, report)
        except Exception as exc:
            results[index] = _sweep_row(theorem, error=str(exc))
    return results


def _predicted_work(scenario: Scenario) -> int:
    """A sweep run's predicted work: cell count x min(ceil(t_end / dt0), max_steps),
    dt0 being stable_dt at t = 0, the step the solver keeps throughout for a t-free mobility,
    from D and pi alone; 0, so it runs last, where D or pi fails to sample."""
    try:
        coeffs, _ = sample_coefficients(scenario.coefficients, scenario.grid, only=("D", "pi"))
        dt0 = solver.stable_dt(coeffs, 0.0, scenario.solver.cfl_safety)
        steps = math.ceil(min(scenario.solver.t_end / dt0, scenario.solver.max_steps))  # t_end / dt0 may be +inf
        return scenario.grid.cell_count * steps
    except (FpkError, MemoryError):  # the task meets and records it
        return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(spec: SweepSpec, out_dir, force: bool = False, jobs: int | None = None) -> Path:
    """Run every sweep row and merge results, in input order, to sweep.csv.
    A row that does not build records its error and is never dispatched;
    each task is one trajectory and the rows that share it."""
    if jobs is not None and jobs < 1:
        raise ScenarioError(f"jobs must be at least 1; got {jobs}")
    out = _prepare_out_dir(Path(out_dir), force)
    coeffs, _ = sample_coefficients(spec.base.coefficients, spec.base.grid, only=("D", "pi"))
    theorem = theory.regime_theorems(coeffs.regime)[0]
    rows, groups = [None] * len(spec.values), {}
    for index, value in enumerate(spec.values):
        row = apply_axis(spec.base, spec.axis, value)
        row_dir = _prepare_out_dir(out / "rows" / f"{index:03d}_{row['name']}", force=True)
        try:
            row_scenario = build_scenario(row)
        except FpkError as exc:  # recorded in its row, which is never dispatched
            rows[index] = _sweep_row(theorem, error=str(exc))
            continue
        # rows that differ only in name and theory share one trajectory
        key = repr(replace(row_scenario, name="", theory=None))
        groups.setdefault(key, []).append((index, row_scenario, row_dir))

    tasks = [(theorem, group) for group in groups.values()]
    jobs = min(jobs or _usable_cpus(), len(tasks))
    if jobs > 1:
        # slowest run first, so it is not queued; stable, so equal work keeps input order
        tasks.sort(key=lambda task: _predicted_work(task[1][0][1]), reverse=True)
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = map(_sweep_task, tasks)
    for task_rows in results:
        for index, cells in task_rows.items():
            rows[index] = cells

    clause_cols = [f"margin_{name}" for name in theory.CLAUSES[theorem]]
    header = ["value", "measured_rate", *clause_cols, "overall_pass", "fit_error", "error"]
    path = out / "sweep.csv"
    _write_csv(path, header, [[_fmt(value), *cells] for value, cells in zip(spec.values, rows)])
    return path


def _resolve_out(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("FPK_OUT_DIR")
    return Path(env) if env else Path("./out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpk",
        description="Fokker-Planck laboratory: run scenarios, check decay conditions, sweep parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory (env FPK_OUT_DIR, default ./out)")
        p.add_argument("--force", action="store_true", help="overwrite a nonempty output directory")

    p_run = sub.add_parser("run", help="time-step a scenario and write series.csv + report.json")
    p_run.add_argument("scenario")
    add_common(p_run)

    p_check = sub.add_parser("check", help="evaluate decay conditions without time stepping")
    p_check.add_argument("scenario")
    add_common(p_check)

    p_sweep = sub.add_parser("sweep", help="run a scenario family along one axis")
    p_sweep.add_argument("sweepspec")
    add_common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=None, help="concurrent rows (default: usable CPUs)")

    p_eq = sub.add_parser("equilibrium", help="print equilibrium statistics for a scenario")
    p_eq.add_argument("scenario")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = parse_scenario(args.scenario)
            report = run_scenario(scenario, _resolve_out(args), force=args.force)
            print(f"wrote {_resolve_out(args) / 'series.csv'} ({report['series_rows']} rows)")
        elif args.command == "check":
            scenario = parse_scenario(args.scenario)
            out = _prepare_out_dir(_resolve_out(args), args.force)
            report = check_scenario_data(scenario)
            write_report(out / "report.json", report)
            write_report(out / "scenario.normalized.json", scenario.to_dict())
            if scenario.theory is None:
                print("no decay condition checked: the scenario has no theory block")
            for cond in report["condition_reports"]:
                if "error" in cond:
                    print(f"{cond['theorem']}: error: {cond['error']}")
                else:
                    verdict = "PASS" if cond["overall"] else "FAIL"
                    print(f"{cond['theorem']}: {verdict}")
        elif args.command == "sweep":
            spec = parse_sweep(args.sweepspec)
            path = run_sweep(spec, _resolve_out(args), force=args.force, jobs=args.jobs)
            print(f"wrote {path}")
        elif args.command == "equilibrium":
            _, _, _, feq, shift = _setup(parse_scenario(args.scenario))
            for key, value in _equilibrium_block(feq, shift).items():
                print(f"{key.replace('_', ' '):<15}= {_fmt(value)}")
    except FpkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a grid too large to sample
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
