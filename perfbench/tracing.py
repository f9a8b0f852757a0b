"""Span tracer for one benchmark job, kept entirely outside ``src/``.

Each traced function is replaced at the name its caller looks up (a module
attribute, or a method on the class), so the package itself is not edited.
A span is (name, parent, start, end); spans live in flat ``array`` columns
while the job runs, because the explicit-Euler workload makes about 300,000
of them, and are written to a gzipped TSV when the job ends.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array

import numpy as np

# Span names whose inclusive time is reported under ``<name>_s``; a name
# traced under several call sites (two equilibrium entry points, three
# condition checkers) sums over all of them.
TIMED = {
    "coefficients.sample": "coefficients.sample_s",
    "coefficients.equilibrium": "coefficients.equilibrium_s",
    "coefficients.ledger": "coefficients.ledger_s",
    "coefficients.pi_values": "coefficients.pi_values_s",
    "expressions.evaluate": "expressions.evaluate_s",
    "solver.run": "solver.run_s",
    "solver.step": "solver.step_s",
    "solver.stable_dt": "solver.stable_dt_s",
    "solver.velocity": "solver.velocity_s",
    "diagnostics.record": "diagnostics.record_s",
    "diagnostics.envelope": "diagnostics.envelope_s",
    "diagnostics.empirical": "diagnostics.empirical_s",
    "diagnostics.terms": "diagnostics.terms_s",
    "diagnostics.fit": "diagnostics.fit_s",
    "theory.conditions": "theory.conditions_s",
    "theory.envelope": "theory.envelope_s",
}

COUNTED = {
    "coefficients.equilibrium": "coefficients.equilibrium_calls",
    "coefficients.pi_values": "coefficients.pi_values_calls",
    "expressions.evaluate": "expressions.evaluate_calls",
    "solver.step": "solver.steps",
    "solver.stable_dt": "solver.stable_dt_calls",
    "diagnostics.record": "diagnostics.records",
    "diagnostics.empirical": "diagnostics.empirical_calls",
}

MIB = 2.0**20


class Tracer:
    """Records spans around wrapped callables and counts work at step/record."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.cell_updates = 0
        self.rejections = 0
        self.snapshot_peak_bytes = 0
        self._snapshot_bytes = 0

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str | None, adapt=None) -> None:
        """Replace ``owner.attr``; ``adapt`` decorates it first, ``name`` adds a span."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patched.append((owner, attr, original))
        fn = adapt(original) if adapt is not None else original
        setattr(owner, attr, self.wrap(name, fn) if name is not None else fn)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counters taken where the work happens --------------------------------

    def _count_step(self, step):
        def counted(state, coeffs, dt, config):
            new = step(state, coeffs, dt, config)
            self.cell_updates += state.f.values.size
            advanced = new.t - state.t
            if advanced < dt:  # each rejection halves dt before the accepted try
                self.rejections += round(math.log2(dt / advanced))
            return new

        return counted

    def _trace_recorder(self, make_recorder):
        def traced_make_recorder(*args, **kwargs):
            recorder = make_recorder(*args, **kwargs)

            def counted(state):
                self._snapshot_bytes += state.f.values.nbytes
                return recorder(state)

            return self.wrap("diagnostics.record", counted)

        return traced_make_recorder

    def _track_snapshots(self, run_scenario_data):
        def tracked(*args, **kwargs):
            self._snapshot_bytes = 0
            try:
                return run_scenario_data(*args, **kwargs)
            finally:
                self.snapshot_peak_bytes = max(self.snapshot_peak_bytes, self._snapshot_bytes)

        return tracked

    def install(self) -> None:
        """Wrap every traced fpklab entry point at the name its caller uses."""
        from fpklab import cli, coefficients, diagnostics, expressions, solver, theory

        patch = self.patch
        patch(cli, "run_sweep", "cli.run_sweep")
        patch(cli, "run_scenario", "cli.run_scenario")
        patch(cli, "run_scenario_data", "cli.run_scenario_data", self._track_snapshots)
        patch(cli, "sample_coefficients", "coefficients.sample")
        patch(cli, "compute_equilibrium", "coefficients.equilibrium")
        patch(coefficients, "compute_equilibrium", "coefficients.equilibrium")
        patch(cli, "build_constants_ledger", "coefficients.ledger")
        patch(coefficients.CoefficientSet, "pi_values", "coefficients.pi_values")
        patch(expressions.CoefficientExpr, "evaluate", "expressions.evaluate")
        patch(solver, "run", "solver.run")
        patch(solver, "step", "solver.step", self._count_step)
        patch(solver, "stable_dt", "solver.stable_dt")
        patch(solver, "compute_velocity", "solver.velocity")
        patch(diagnostics, "make_recorder", None, self._trace_recorder)
        patch(diagnostics, "max_principle_envelope", "diagnostics.envelope")
        patch(diagnostics, "empirical_poincare", "diagnostics.empirical")
        patch(diagnostics, "empirical_sobolev", "diagnostics.empirical")
        patch(diagnostics, "second_derivative_terms", "diagnostics.terms")
        patch(diagnostics, "decay_fit", "diagnostics.fit")
        for checker in ("check_condition_T2", "check_condition_T3", "check_condition_T4"):
            patch(theory, checker, "theory.conditions")
        patch(theory, "predicted_envelope", "theory.envelope")
        patch(theory, "compare_to_envelope", "theory.envelope")

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, counts and self times from the recorded spans."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        par = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        width = len(self.names)
        nested = par >= 0
        child_time = np.bincount(par[nested], weights=dur[nested], minlength=len(dur))
        total = np.bincount(ids, weights=dur, minlength=width)
        count = np.bincount(ids, minlength=width)
        self_time = np.bincount(ids, weights=dur - child_time, minlength=width)

        def pick(table, name):
            nid = self._name_ids.get(name)
            return 0.0 if nid is None else float(table[nid])

        out = {metric: pick(total, name) for name, metric in TIMED.items()}
        out.update({metric: int(pick(count, name)) for name, metric in COUNTED.items()})
        out["solver.loop_self_s"] = pick(self_time, "solver.run")
        out["solver.rejections"] = self.rejections
        step_s = out["solver.step_s"]
        out["solver.cell_updates_per_s"] = self.cell_updates / step_s if step_s > 0 else 0.0
        out["diagnostics.snapshot_mb"] = self.snapshot_peak_bytes / MIB
        # run_scenario's own time outside run_scenario_data is serialization
        out["cli.write_s"] = pick(self_time, "cli.run_scenario")
        row_id = self._name_ids.get("cli.run_scenario")
        rows = dur[ids == row_id] if row_id is not None else dur[:0]
        out["cli.sweep_row_s_max"] = float(rows.max()) if rows.size else 0.0
        out["cli.sweep_row_s_sum"] = float(rows.sum())
        out["tracing.top_level_s"] = float(dur[par < 0].sum())
        return out

    def write(self, path) -> None:
        """Spans as TSV: span, parent, name, start and end in s from the first start."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, (nid, par, s, e) in enumerate(zip(self.name_id, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{par}\t{names[nid]}\t{s - t0:.9f}\t{e - t0:.9f}\n")
