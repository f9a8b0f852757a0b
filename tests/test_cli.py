import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import SCENARIO_DIR, SCHEMA_DIR, load_scenario_dict, run_with_snapshots
from fpklab import cli, diagnostics, theory
from fpklab.coefficients import REGIMES, ConstantsLedger
from fpklab.errors import MESSAGE_WIDTH, ScenarioError, WrongRegimeError, quote_source
from fpklab.grid import gradient_arrays

MINIMAL = {
    "grid": {"dim": 1, "cells_per_axis": 32},
    "coefficients": {"D": "1", "phi": "0", "pi": "1", "f0": "1 + 0.1*sin(2*pi*x1)"},
    "solver": {"t_end": 0.002},
}


class TestParseScenario:
    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(MINIMAL))
        scenario = cli.parse_scenario(path)
        assert scenario.name == "minimal"
        assert scenario.solver.integrator == "rk4"
        assert scenario.solver.cfl_safety == 0.4
        assert scenario.solver.record_every == 10
        assert scenario.theory is None

    def test_missing_phi_named(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        del data["coefficients"]["phi"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError) as err:
            cli.parse_scenario(path)
        assert "phi" in str(err.value)

    def test_negative_gamma_rejected(self):
        data = {**MINIMAL, "theory": {"gamma": -1.0}}
        with pytest.raises(ScenarioError):
            cli.build_scenario(data)

    def test_expression_error_carries_field_context(self):
        data = json.loads(json.dumps(MINIMAL))
        data["coefficients"]["D"] = "1 +"
        with pytest.raises(ScenarioError) as err:
            cli.build_scenario(data)
        assert "'D'" in str(err.value)

    def test_bad_fit_window(self):
        data = {**MINIMAL, "diagnostics": {"fit_window": [0.5, 0.1]}}
        with pytest.raises(ScenarioError):
            cli.build_scenario(data)
        data = {**MINIMAL, "diagnostics": {"fit_window": [0.1]}}
        with pytest.raises(ScenarioError) as err:
            cli.build_scenario(data)
        assert str(err.value) == "diagnostics.fit_window must be [t_lo, t_hi]"

    @pytest.mark.parametrize("block", ["solver", "diagnostics"])
    def test_record_every_below_one_names_its_block(self, block):
        data = json.loads(json.dumps(MINIMAL))
        data.setdefault(block, {})["record_every"] = 0
        with pytest.raises(ScenarioError) as err:
            cli.build_scenario(data)
        assert str(err.value) == f"{block}: record_every must be >= 1"

    @pytest.mark.parametrize(
        "block, key",
        [
            (None, "diagnostic"),
            ("grid", "cells"),
            ("coefficients", "psi"),
            ("solver", "cfl_safty"),
            ("diagnostics", "fit_windows"),
            ("theory", "certified_sobolov"),
        ],
    )
    def test_unknown_key_named(self, block, key):
        data = json.loads(json.dumps({**MINIMAL, "diagnostics": {}, "theory": {"gamma": 1.0}}))
        (data if block is None else data[block])[key] = 1
        with pytest.raises(ScenarioError) as err:
            cli.build_scenario(data)
        assert f"unknown key {key!r}" in str(err.value)

    def test_schema_forms_accepted(self):
        grid = {"dim": 1.0, "cells_per_axis": 64.0}  # integral floats for int fields
        scenario = cli.build_scenario({**MINIMAL, "grid": grid, "solver": {"t_end": 0.002, "record_every": 3}})
        assert scenario.grid == cli.build_grid(1, 64)
        assert scenario.solver.record_every == 3

    def test_time_dependence_rejected_outside_mobility(self):
        data = json.loads(json.dumps(MINIMAL))
        data["coefficients"]["D"] = "1 + 0.1*sin(t)"
        with pytest.raises(ScenarioError) as err:
            cli.build_scenario(data)
        assert "spatial-only" in str(err.value)

    def test_scenario_without_theory_block(self, tmp_path):
        report = cli.run_scenario(cli.build_scenario(MINIMAL), tmp_path / "nt", force=True)
        assert report["envelope"] is None
        assert report["condition_reports"] == []
        assert report["certified_consistency"] is None
        import jsonschema

        schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
        jsonschema.validate(report, schema)

    def test_round_trip_normalized(self, tmp_path):
        source = load_scenario_dict("heat_1d")
        scenario = cli.build_scenario(source, fallback_name="heat_1d")
        path = tmp_path / "normalized.json"
        path.write_text(json.dumps(scenario.to_dict()))
        assert cli.parse_scenario(path) == scenario

    @pytest.mark.parametrize("name", ["x/../escaped", "a\\b", "a\0b"], ids=["slash", "backslash", "nul"])
    def test_name_with_a_path_separator_or_nul_rejected(self, name):
        import jsonschema

        with pytest.raises(ScenarioError, match="scenario name must not contain"):
            cli.build_scenario({**MINIMAL, "name": name})
        schema = json.loads((SCHEMA_DIR / "scenario.schema.json").read_text())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**MINIMAL, "name": name}, schema)
        jsonschema.validate({**MINIMAL, "name": "a-b.c_d ..e"}, schema)

    @pytest.mark.parametrize(
        "block, message",
        [
            ("grid", "scenario is missing required key 'grid'"),
            ("coefficients", "scenario is missing required key 'coefficients'"),
            ("solver", "solver is missing required key 't_end'"),
        ],
    )
    def test_missing_block_rejected_by_schema_and_build(self, block, message):
        import jsonschema

        data = {key: value for key, value in MINIMAL.items() if key != block}
        with pytest.raises(ScenarioError) as err:
            cli.build_scenario(data)
        assert str(err.value) == message
        schema = json.loads((SCHEMA_DIR / "scenario.schema.json").read_text())
        with pytest.raises(jsonschema.ValidationError, match=f"'{block}' is a required property"):
            jsonschema.validate(data, schema)

    def test_shipped_scenarios_parse_and_validate(self):
        import jsonschema

        schema = json.loads((SCHEMA_DIR / "scenario.schema.json").read_text())
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            if path.name.startswith("sweep"):
                continue
            scenario = cli.parse_scenario(path)
            jsonschema.validate(scenario.to_dict(), schema)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    data = {
        **MINIMAL,
        "name": "tiny",
        "diagnostics": {"record_every": 3},
        "theory": {"gamma": 5.0},
    }
    scenario = cli.build_scenario(data)
    report = cli.run_scenario(scenario, out, force=True)
    return {"out": out, "report": report, "scenario": scenario, "data": data}


class TestRunScenario:
    def test_artifacts_written(self, tiny_run):
        out = tiny_run["out"]
        assert (out / "series.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "scenario.normalized.json").exists()

    def test_series_header_exact(self, tiny_run):
        header = (tiny_run["out"] / "series.csv").read_text().splitlines()[0]
        assert header == "t,mass,free_energy,dissipation,f_min,f_max,u_sup,envelope_margin,jensen_margin"

    def test_row_count_matches_report(self, tiny_run):
        rows = (tiny_run["out"] / "series.csv").read_text().splitlines()
        assert len(rows) - 1 == tiny_run["report"]["series_rows"]
        accepted = tiny_run["report"]["accepted_steps"]
        expected = 1 + accepted // 3 + (1 if accepted % 3 else 0)
        assert tiny_run["report"]["series_rows"] == expected

    def test_report_validates_against_schema(self, tiny_run):
        import jsonschema

        schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
        report = json.loads((tiny_run["out"] / "report.json").read_text())
        jsonschema.validate(report, schema)

    def test_rerun_is_byte_identical(self, tiny_run, tmp_path):
        scenario = tiny_run["scenario"]
        cli.run_scenario(scenario, tmp_path / "again", force=True)
        first = (tiny_run["out"] / "series.csv").read_bytes()
        second = (tmp_path / "again" / "series.csv").read_bytes()
        assert first == second
        rep1 = (tiny_run["out"] / "report.json").read_bytes()
        rep2 = (tmp_path / "again" / "report.json").read_bytes()
        assert rep1 == rep2

    def test_refuses_nonempty_dir_without_force(self, tiny_run):
        with pytest.raises(ScenarioError):
            cli.run_scenario(tiny_run["scenario"], tiny_run["out"], force=False)

    def test_equilibrium_start_keeps_energy_flat(self, tmp_path):
        data = load_scenario_dict(
            "stationary_1d",
            **{
                "grid.cells_per_axis": 64,
                "solver.t_end": 0.01,
                "diagnostics.record_every": 64,
            },
        )
        scenario = cli.build_scenario(data, fallback_name="stationary_small")
        report = cli.run_scenario(scenario, tmp_path / "eq", force=True)
        rows = (tmp_path / "eq" / "series.csv").read_text().splitlines()[1:]
        fe = np.array([float(r.split(",")[2]) for r in rows])
        dis = np.array([float(r.split(",")[3]) for r in rows])
        assert fe.max() - fe.min() <= 1e-10
        assert dis.max() <= 1e-10

    def test_pi_time_clause_failure_surfaces_in_report(self, tmp_path):
        data = {
            "name": "fast_mobility",
            "grid": {"dim": 1, "cells_per_axis": 32},
            "coefficients": {
                "D": "1",
                "phi": "0",
                "pi": "1 + 0.2*sin(t)",
                "f0": "1 + 0.1*sin(2*pi*x1)",
            },
            "solver": {"t_end": 0.002},
            "theory": {"gamma": 1.0},
        }
        report = cli.run_scenario(cli.build_scenario(data), tmp_path / "pt", force=True)
        assert report["regime"] == "full"
        t4 = next(c for c in report["condition_reports"] if c["theorem"] == "T4")
        clause = next(c for c in t4["clauses"] if c["name"] == "mobility_time")
        assert clause["pass"] is False

    def test_certified_constants_carry_provenance(self, tmp_path):
        data = {**MINIMAL, "name": "certified", "theory": {"gamma": 1.0, "certified_poincare": 0.05}}
        report = cli.run_scenario(cli.build_scenario(data), tmp_path / "cert", force=True)
        t2 = next(c for c in report["condition_reports"] if c["theorem"] == "T2")
        assert t2["constants"]["poincare"] == {"value": 0.05, "provenance": "certified"}
        # the first-mode ratio ~ 1/(4 pi^2) ~ 0.0253 stays below the certified 0.05
        consistency = report["certified_consistency"]["poincare"]
        assert consistency["consistent"] is True
        assert consistency["empirical_max"] <= 0.05

    def test_zero_velocity_leaves_empirical_constants_undefined(self):
        data = {
            **MINIMAL,
            "coefficients": {**MINIMAL["coefficients"], "f0": "1"},
            "theory": {"gamma": 1.0},
        }
        series, report = cli.run_scenario_data(cli.build_scenario(data))
        assert all(np.isnan(series.column("poincare")))
        undefined = dict.fromkeys(("poincare", "sobolev", "sobolev_weighted"))
        assert report["empirical_constants"] == undefined
        assert "u = 0" in report["condition_reports"][0]["error"]

    def test_output_blocks_keep_their_key_order(self):
        # the report schema fixes no key order; these blocks are written as they are built
        theory = {"gamma": 1.0, "certified_poincare": 0.05}  # so both provenances appear
        data = {**MINIMAL, "diagnostics": {"record_every": 1}, "theory": theory}
        _, report = cli.run_scenario_data(cli.build_scenario(data))
        assert list(report["decay_fit"]) == ["rate", "log_intercept", "window", "residual_rms", "n_points"]
        samples = report["term_breakdown_samples"]
        assert len(samples) == 5 and all(list(s) == ["t", "mode", "terms", "sum"] for s in samples)
        ledger_keys = [field.name for field in dataclasses.fields(ConstantsLedger)]
        assert list(report["constants_ledger"]) == ledger_keys
        assert [list(cond["ledger"]) for cond in report["condition_reports"]] == [ledger_keys] * 3
        constants = [cond["constants"] for cond in report["condition_reports"]]
        assert [list(used) for used in constants] == [["poincare"], ["sobolev", "poincare"], ["sobolev", "poincare"]]
        entries = [entry for used in constants for entry in used.values()]
        assert all(list(entry) == ["value", "provenance"] for entry in entries)
        assert {entry["provenance"] for entry in entries} == {"certified", "empirical"}

    def test_term_samples_when_run_stops_early(self):
        data = {
            **MINIMAL,
            "solver": {"t_end": 0.002, "max_steps": 2},
            "diagnostics": {"record_every": 1},
        }
        series, report, snapshots = run_with_snapshots(data)
        final = series.columns["t"][-1]
        assert final < 0.002 / 4  # only the first target time is reached
        times = [sample["t"] for sample in report["term_breakdown_samples"]]
        assert times == [0.0, final]  # the final record takes the targets left
        assert [terms is not None for terms in series.columns["terms"]] == [True, False, True]
        coeffs, _ = cli.sample_coefficients(data["coefficients"], snapshots[-1].f.grid)
        terms = diagnostics.second_derivative_terms(snapshots[-1].f, coeffs, final, "homogeneous")
        assert series.columns["terms"][-1] == terms
        assert report["term_breakdown_samples"][-1]["terms"] == terms["terms"]

    def test_overclaimed_certified_constant_flagged(self, tmp_path):
        data = {**MINIMAL, "name": "overclaim", "theory": {"gamma": 1.0, "certified_poincare": 1e-4}}
        report = cli.run_scenario(cli.build_scenario(data), tmp_path / "over", force=True)
        assert report["certified_consistency"]["poincare"]["consistent"] is False


class TestCheck:
    def test_check_without_a_theory_block_says_so(self, tmp_path, capsys):
        path = tmp_path / "heat.json"
        path.write_text(json.dumps({**MINIMAL, "grid": {"dim": 1, "cells_per_axis": 16}}))
        assert cli.main(["check", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == "no decay condition checked: the scenario has no theory block\n"
        assert json.loads((tmp_path / "out" / "report.json").read_text())["condition_reports"] == []

    def test_check_without_stepping(self, tmp_path):
        data = {**MINIMAL, "name": "checkonly", "theory": {"gamma": 1.0}}
        report = cli.check_scenario_data(cli.build_scenario(data))
        assert report["regime"] == "homogeneous"
        assert any(c.get("theorem") == "T2" for c in report["condition_reports"])
        assert "initial state only" in report["sobolev_constant_note"]

    def test_check_reports_the_runs_setup_and_first_record(self):
        scenario = cli.build_scenario({**MINIMAL, "theory": {"gamma": 1.0}})
        series, run = cli.run_scenario_data(scenario)
        check = cli.check_scenario_data(scenario)
        assert check["equilibrium"] == run["equilibrium"]
        assert check["constants_ledger"] == run["constants_ledger"]
        names = ("poincare", "sobolev", "sobolev_weighted")
        assert check["empirical_constants"] == {name: series.columns[name][0] for name in names}
        assert all(value is not None for value in check["empirical_constants"].values())


# one coefficient set per regime: (D, pi, regime, checked theorems, modes that raise)
REGIME_TABLE = [
    ("1", "1", "homogeneous", ["T2", "T3", "T4"], []),
    ("1.5 + 0.25*cos(2*pi*x1)", "1", "inhomogeneous-D", ["T3", "T4"], ["homogeneous"]),
    ("1", "1.2 + 0.1*cos(2*pi*x1)", "full", ["T4"], ["homogeneous", "inhomogeneous-D"]),
    ("1", "1 + 0.1*sin(t)", "full", ["T4"], ["homogeneous", "inhomogeneous-D"]),
]


@pytest.mark.parametrize("d, pi, regime, theorems, raising", REGIME_TABLE)
def test_regime_truth_table(d, pi, regime, theorems, raising):
    coefficients = {**MINIMAL["coefficients"], "D": d, "pi": pi, "phi": "0.3*cos(2*pi*x1)"}
    data = {**MINIMAL, "coefficients": coefficients, "theory": {"gamma": 1.0}}
    scenario = cli.build_scenario(data)
    _, report = cli.run_scenario_data(scenario)
    assert report["regime"] == regime
    assert [c["theorem"] for c in report["condition_reports"]] == theorems
    assert report["envelope"]["theorem"] == theorems[0]
    assert [c["theorem"] for c in cli.check_scenario_data(scenario)["condition_reports"]] == theorems

    coeffs, f0 = cli.sample_coefficients(coefficients, scenario.grid)
    raised = []
    for mode in REGIMES:
        try:
            diagnostics.second_derivative_terms(f0, coeffs, 0.0, mode)
        except WrongRegimeError:
            raised.append(mode)
    assert raised == raising


class TestSweep:
    def test_gamma_sweep_flips_at_most_once(self, tmp_path):
        base = {
            **MINIMAL,
            "name": "gsweep",
            "solver": {"t_end": 0.01},
            "diagnostics": {"record_every": 4, "fit_window": [0.002, 0.008]},
            "theory": {"gamma": 1.0},
        }
        spec = cli.SweepSpec(
            base=cli.build_scenario(base), axis="gamma", values=[0.5, 1.0, 40.0, 200.0, 500.0]
        )
        path = cli.run_sweep(spec, tmp_path / "gsweep", force=True, jobs=1)
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        flag_idx = header.index("overall_pass")
        flags = [r.split(",")[flag_idx] == "True" for r in rows[1:]]
        flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert flips <= 1
        assert flags[0] and not flags[-1]

    @pytest.mark.parametrize(
        "axis, values, coefficients, theorem",
        [
            ("d_scale", [1, 2], {}, "T2"),
            ("grad_pi_scale", [0, 0.5, 1], {"D": "1.5 + 0.25*cos(2*pi*x1)", "pi": "1.2 + 0.2*cos(2*pi*x1)"}, "T4"),
        ],
    )
    def test_margin_columns_are_the_clause_margins(self, tmp_path, axis, values, coefficients, theorem):
        # grad_pi_scale 0 makes pi constant; the row still reports T4, the sweep's theorem
        coefficients = {**MINIMAL["coefficients"], **coefficients}
        base = {**MINIMAL, "coefficients": coefficients, "theory": {"gamma": 5.0}}
        spec = cli.SweepSpec(base=cli.build_scenario(base), axis=axis, values=values)
        path = cli.run_sweep(spec, tmp_path / "msweep", force=True, jobs=1)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        row_dirs = sorted((path.parent / "rows").iterdir())
        assert len(rows) == len(row_dirs) == len(values)
        seen = set()
        for row, row_dir in zip(rows, row_dirs):
            reports = json.loads((row_dir / "report.json").read_text())["condition_reports"]
            (report,) = [r for r in reports if r["theorem"] == theorem]
            assert row["overall_pass"] == str(report["overall"])
            for clause in report["clauses"]:
                margin = float(row[f"margin_{clause['name']}"])
                assert margin == theory.clause_margin(clause), clause
                assert (margin > 0.0) == clause["pass"], clause
                seen.add((clause["op"], clause["pass"], margin == math.inf))
        if theorem == "T2":
            assert ("<", True, True) in seen  # initial_energy_finite: g0 < inf
        else:
            assert {op for op, _, _ in seen} == {"<", "<=", ">="}
            assert {passed for _, passed, _ in seen} == {True, False}

    def test_resolution_sweep_rows_in_order(self, tmp_path):
        base = {
            **MINIMAL,
            "name": "rsweep",
            "solver": {"t_end": 0.004},
            "diagnostics": {"record_every": 4, "fit_window": [0.001, 0.003]},
            "theory": {"gamma": 1.0},
        }
        spec = cli.SweepSpec(base=cli.build_scenario(base), axis="resolution", values=[16, 32])
        path = cli.run_sweep(spec, tmp_path / "rsweep", force=True, jobs=2)
        rows = path.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["16", "32"]
        assert all(r.split(",")[-1] == "" for r in rows[1:])  # no per-row errors

    def test_failed_decay_fit_has_its_own_column(self, tmp_path):
        base = {**MINIMAL, "name": "fitsweep", "theory": {"gamma": 1.0}}
        spec = cli.SweepSpec(base=cli.build_scenario(base), axis="resolution", values=[16])
        path = cli.run_sweep(spec, tmp_path / "fitsweep", force=True, jobs=1)
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            (row,) = list(reader)
        assert reader.fieldnames[-2:] == ["fit_error", "error"]
        assert row["measured_rate"] == "nan"
        assert row["fit_error"].startswith("need >= 5 records")
        assert row["error"] == ""

    def test_row_whose_theorem_reports_an_error(self, tmp_path):
        # D = 0.5 is below the diffusion floor: the row keeps its rate, and its error replaces a verdict
        base = {**MINIMAL, "solver": {"t_end": 0.01}, "diagnostics": {"record_every": 1}, "theory": {"gamma": 1.0}}
        spec = cli.SweepSpec(base=cli.build_scenario(base), axis="d_scale", values=[0.5, 1])
        with cli.run_sweep(spec, tmp_path / "esweep", jobs=1).open(newline="") as fh:
            below, above = csv.DictReader(fh)
        assert math.isfinite(float(below["measured_rate"]))
        margins = [value for key, value in below.items() if key.startswith("margin_")]
        assert margins and all(math.isnan(float(value)) for value in margins)
        assert below["overall_pass"] == ""
        assert below["error"] == "decay conditions require the diffusion floor d_min >= 1"
        assert above["error"] == ""

    def test_row_whose_regime_has_no_report_for_the_theorem(self, tmp_path):
        # cos(8 pi x) is constant on 4 cells: the base is homogeneous and the columns T2's,
        # but the 8-cell row resolves D, is inhomogeneous-D and is checked from T3 on
        base = {
            "name": "alias", "grid": {"dim": 1, "cells_per_axis": 4},
            "coefficients": {"D": "1.5 + 0.1*cos(8*pi*x1)", "phi": "0", "pi": "1", "f0": "1 + 0.1*sin(2*pi*x1)"},
            "solver": {"t_end": 0.05}, "diagnostics": {"record_every": 1}, "theory": {"gamma": 1.0},
        }
        spec = cli.SweepSpec(base=cli.build_scenario(base), axis="resolution", values=[4, 8])
        with cli.run_sweep(spec, tmp_path / "alias", jobs=1).open(newline="") as fh:
            coarse, fine = csv.DictReader(fh)
        assert coarse["error"] == "" and coarse["overall_pass"] == "True"
        assert math.isnan(float(fine["margin_rate"])) and fine["overall_pass"] == ""
        assert fine["error"] == "no T2 report: the row's regime is inhomogeneous-D"
        # with no theory block there are no reports, and the cells stay blank
        base.pop("theory")
        spec = cli.SweepSpec(base=cli.build_scenario(base), axis="resolution", values=[8])
        with cli.run_sweep(spec, tmp_path / "plain", jobs=1).open(newline="") as fh:
            (plain,) = csv.DictReader(fh)
        assert plain["measured_rate"] == fine["measured_rate"]
        assert (plain["overall_pass"], plain["error"]) == ("", "")

    def test_rows_leave_their_base_alone(self, tmp_path):
        theory_block = {"gamma": 1.0, "certified_poincare": 0.05}
        base = cli.build_scenario({**MINIMAL, "name": "b", "theory": theory_block})
        before = base.to_dict()
        gamma_spec = cli.SweepSpec(base=base, axis="gamma", values=[2, 3])
        out = cli.run_sweep(gamma_spec, tmp_path / "gamma", jobs=1).parent
        cli.run_sweep(cli.SweepSpec(base=base, axis="d_scale", values=[2]), tmp_path / "d", jobs=1)
        assert base.to_dict() == before and before["theory"] == theory_block
        rows = [out / "rows" / name for name in ("000_b-g2", "001_b-g3")]
        gammas = [json.loads((row / "report.json").read_text())["scenario"]["theory"]["gamma"] for row in rows]
        assert gammas == [2.0, 3.0]

    def test_relative_base_is_read_from_the_sweep_files_directory(self, tmp_path, monkeypatch):
        specs, elsewhere = tmp_path / "specs", tmp_path / "elsewhere"
        specs.mkdir()
        elsewhere.mkdir()
        (specs / "base.json").write_text(json.dumps({**MINIMAL, "name": "beside"}))
        (elsewhere / "base.json").write_text(json.dumps({**MINIMAL, "name": "cwd"}))
        (specs / "sweep.json").write_text(json.dumps({"axis": "d_scale", "values": [1], "base": "base.json"}))
        monkeypatch.chdir(elsewhere)
        assert cli.parse_sweep(specs / "sweep.json").base.name == "beside"
        assert cli.parse_sweep("../specs/sweep.json").base.name == "beside"

    def test_empty_values_rejected(self):
        with pytest.raises(ScenarioError):
            cli.SweepSpec(base=cli.build_scenario(MINIMAL), axis="gamma", values=[])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ScenarioError):
            cli.SweepSpec(base=cli.build_scenario(MINIMAL), axis="viscosity", values=[1])

    def test_apply_axis_rejects_an_unknown_axis(self):
        with pytest.raises(ScenarioError) as err:
            cli.apply_axis(cli.build_scenario(MINIMAL), "bogus", 1)
        assert str(err.value) == "unknown sweep axis 'bogus'"

    def test_row_whose_files_fail_to_write_records_the_error(self, tmp_path, monkeypatch):
        write_run = cli._write_run

        def failing(out, scenario, series, report):
            if scenario.name == "w-g20":
                raise OSError(28, "No space left on device")
            return write_run(out, scenario, series, report)

        monkeypatch.setattr(cli, "_write_run", failing)
        base = {**MINIMAL, "name": "w", "solver": {"t_end": 0.01}, "diagnostics": {"record_every": 1},
                "theory": {"gamma": 1.0}}
        spec = cli.SweepSpec(base=cli.build_scenario(base), axis="gamma", values=[1, 20])
        with cli.run_sweep(spec, tmp_path / "wsweep", jobs=1).open(newline="") as fh:
            whole, failed = csv.DictReader(fh)
        assert failed["error"] == "[Errno 28] No space left on device"
        assert failed["measured_rate"] == "nan" and failed["overall_pass"] == ""
        assert whole["error"] == "" and whole["overall_pass"] in ("True", "False")
        assert math.isfinite(float(whole["measured_rate"]))
        assert (tmp_path / "wsweep" / "rows" / "000_w-g1" / "series.csv").exists()

    def test_row_failure_recorded_and_sweep_continues(self, tmp_path):
        base = {**MINIMAL, "name": "fsweep", "theory": {"gamma": 1.0}}
        values = [2, math.nan, math.inf, 16.5, 16]
        for jobs in (1, 2):  # the pool dispatches the failing rows last
            spec = cli.SweepSpec(base=cli.build_scenario(base), axis="resolution", values=values)
            path = cli.run_sweep(spec, tmp_path / f"fsweep{jobs}", force=True, jobs=jobs)
            rows = path.read_text().splitlines()
            assert rows[1].split(",")[-1] != ""  # N=2 fails validation
            assert [r.split(",")[-1] for r in rows[2:5]] == [
                "grid.cells_per_axis must be a number; got nan",
                "grid.cells_per_axis must be a number; got inf",
                "grid.cells_per_axis must be an integer; got 16.5",
            ]
            assert rows[5].split(",")[-1] == ""
            # an error message with a comma survives the round trip through sweep.csv
            spec = cli.SweepSpec(base=cli.build_scenario(base), axis="d_scale", values=[-1.0, 1.0])
            path = cli.run_sweep(spec, tmp_path / f"csweep{jobs}", force=True, jobs=jobs)
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[1][-1] == "D must be strictly positive; got -1.0 at cell (0,)"
            assert rows[2][-1] == ""

    def test_grad_pi_scale_axis_scales_mobility_deviation(self):
        base = cli.build_scenario(
            {**MINIMAL, "coefficients": {**MINIMAL["coefficients"], "pi": "1 + 0.2*cos(2*pi*x1)"}}
        )
        row = cli.build_scenario(cli.apply_axis(base, "grad_pi_scale", 0.5))
        assert "0.5" in row.coefficients["pi"]
        grid_mod = cli.build_grid(1, 32)
        coeffs, _ = cli.sample_coefficients(row.coefficients, grid_mod)
        base_coeffs, _ = cli.sample_coefficients(base.coefficients, grid_mod)
        scaled = np.stack(gradient_arrays(coeffs.pi_values(0.0), grid_mod.spacing))
        original = np.stack(gradient_arrays(base_coeffs.pi_values(0.0), grid_mod.spacing))
        assert np.allclose(scaled, 0.5 * original, rtol=1e-12)


class TestMain:
    def test_run_and_equilibrium_subcommands(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps({**MINIMAL, "name": "cli_smoke"}))
        out = tmp_path / "o"
        assert cli.main(["run", str(scenario_path), "--out", str(out)]) == 0
        assert (out / "series.csv").exists()
        assert cli.main(["equilibrium", str(scenario_path)]) == 0
        assert "shift" in capsys.readouterr().out

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps({**MINIMAL, "name": "envout"}))
        target = tmp_path / "envdir"
        monkeypatch.setenv("FPK_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", str(scenario_path)]) == 0
        assert (target / "series.csv").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err
        assert cli.main(["run", str(tmp_path)]) == 2  # a directory, not a file


_TRUNCATED = '{"axis": "d_scale", "values": [1, 2'
_SWEEP = {"axis": "d_scale", "values": [1, 2], "base": MINIMAL}


def _with_coefficients(**sources):
    """MINIMAL on 16 cells, with the given coefficient sources."""
    grid = {"dim": 1, "cells_per_axis": 16}
    return json.dumps({**MINIMAL, "grid": grid, "coefficients": {**MINIMAL["coefficients"], **sources}})


def _with_phi(source):
    return json.dumps({**MINIMAL, "coefficients": {**MINIMAL["coefficients"], "phi": source}})


# admissible theory inputs at the edge of float range: each ends in a verdict
EXTREME_THEORY = [
    (
        {"D": "1.5 + 0.25*cos(2*pi*x1)"},
        {"certified_sobolev": 1e300},
        {"T3": ["diffusion_floor"], "T4": ["diffusion_floor"]},
    ),
    (
        {"pi": "1.2 + 0.1*cos(2*pi*x1)"},
        {"certified_sobolev": 1e300},
        {"T4": ["mobility_gradient", "poincare_gate"]},
    ),
    (
        {"pi": "1e-150*(2 + cos(2*pi*x1))"},
        {},
        {"T4": ["mobility_gradient", "poincare_gate", "gronwall_threshold"]},
    ),
    (
        {"pi": "1.2 + 0.2*cos(2*pi*x1)"},
        {"certified_sobolev": 1e-300},  # K^{3/2} underflows to 0
        {"T4": ["mobility_gradient"]},
    ),
    (
        {"pi": "1e160*(1.5 + sin(2*pi*x1))"},  # |grad pi| about 6e161: finite, its square is not
        {"certified_sobolev": 1, "certified_poincare": 1},
        {"T4": ["mobility_gradient", "poincare_gate", "rate"]},
    ),
]


@pytest.mark.parametrize(
    "coefficients, theory_block, failing",
    EXTREME_THEORY,
    ids=["sobolev_t3", "sobolev_t4", "tiny_pi", "tiny_sobolev_t4", "grad_pi_square_overflows"],
)
def test_extreme_theory_inputs_give_a_verdict(tmp_path, capsys, coefficients, theory_block, failing):
    import jsonschema

    data = {
        **MINIMAL,
        "grid": {"dim": 1, "cells_per_axis": 16},
        "coefficients": {**MINIMAL["coefficients"], **coefficients},
        "theory": {"gamma": 1.0, **theory_block},
    }
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{theorem}: FAIL" for theorem in failing]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    jsonschema.validate(report, json.loads((SCHEMA_DIR / "report.schema.json").read_text()))
    for cond in report["condition_reports"]:
        assert [c["name"] for c in cond["clauses"] if not c["pass"]] == failing[cond["theorem"]]


# |u|^6 underflows while |grad u|^2 does not, so both empirical Sobolev ratios
# are 0; and g0, about 4e-157, makes g0^-2 overflow in the envelope's bound
UNDERFLOWING_MOMENT = {
    **MINIMAL,
    "grid": {"dim": 1, "cells_per_axis": 16},
    "coefficients": {
        "D": "1.5 + 0.25*cos(2*pi*x1)",
        "phi": "0",
        "pi": "1e140",
        "f0": "1 + 1e-9*sin(2*pi*x1)",
    },
    "theory": {"gamma": 1.0},
}


@pytest.mark.parametrize("command", ["check", "run"])
def test_underflowed_sobolev_ratio_gives_error_entries(tmp_path, capsys, command):
    import jsonschema

    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(UNDERFLOWING_MOMENT))
    assert cli.main([command, str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    jsonschema.validate(report, json.loads((SCHEMA_DIR / "report.schema.json").read_text()))
    assert report["empirical_constants"]["sobolev"] == 0.0
    assert report["condition_reports"] == [
        {"theorem": "T3", "error": "the empirical Sobolev constant is 0.0, not positive"},
        {"theorem": "T4", "error": "the empirical weighted Sobolev constant is 0.0, not positive"},
    ]
    if command == "run":
        envelope = report["envelope"]
        assert envelope["theorem"] == "T3" and 0.0 < envelope["g0"] < 1e-154
        assert envelope["coefficient"] == envelope["g0"]


@pytest.mark.parametrize(
    "command, text",
    [
        ("sweep", _TRUNCATED),
        ("sweep", json.dumps({"axis": "d_scale", "values": 5, "base": MINIMAL})),
        ("run", json.dumps({**MINIMAL, "grid": 5})),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": "abc", "cells_per_axis": 32}})),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": 1, "cells_per_axis": float("inf")}})),
        ("run", json.dumps({**MINIMAL, "solver": {"t_end": float("nan")}})),
        ("run", json.dumps({**MINIMAL, "solver": {"t_end": float("inf")}})),
        ("run", json.dumps({**MINIMAL, "solver": {"t_end": 0.002, "positivity_floor": -1}})),
        ("run", json.dumps({**MINIMAL, "solver": {"t_end": 0.002, "cfl_safty": 0.1}})),
        ("run", json.dumps({**MINIMAL, "diagnostic": {"record_every": 2}})),
        ("sweep", json.dumps({"axis": "d_scale", "values": [1], "base": MINIMAL, "jobs": 2})),
        ("run", json.dumps({**MINIMAL, "theory": {"gamma": 1.0, "certified_sobolev": -1}})),
        ("check", json.dumps({**MINIMAL, "theory": {"gamma": 1.0, "certified_poincare": 0}})),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": 1, "cells_per_axis": 16.5}})),
        ("run", json.dumps({**MINIMAL, "theory": {"gamma": float("inf")}})),
        ("check", json.dumps({**MINIMAL, "theory": {"gamma": 1.0, "certified_poincare": float("inf")}})),
        ("run", json.dumps({**MINIMAL, "diagnostics": {"fit_window": [float("nan"), 0.01]}})),
        ("run", json.dumps({**MINIMAL, "diagnostics": {"fit_window": [0.004, float("inf")]}})),
        ("run", json.dumps({**MINIMAL, "solver": {"t_end": 0.002, "positivity_floor": float("inf")}})),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": True, "cells_per_axis": 32}})),
        ("run", json.dumps({**MINIMAL, "diagnostics": {"record_every": True}})),
        ("check", json.dumps({**MINIMAL, "diagnostics": {"record_every": 0}})),
        ("sweep", json.dumps({"axis": "gamma", "values": [True, 16], "base": {**MINIMAL, "theory": {"gamma": 1.0}}})),
        ("run", _with_phi("+".join(["1"] * 5001))),
        ("run", _with_phi("(" * 3000 + "1" + ")" * 3000)),
        ("run", _with_phi("-" * 5000 + "1")),
        ("run", _with_phi("^".join(["2"] * 3000))),
        ("sweep", json.dumps({**_SWEEP, "base": {**MINIMAL, "name": "x/../../../../escaped"}})),
        ("sweep", json.dumps({**_SWEEP, "base": {**MINIMAL, "name": "a\0b"}})),
        ("sweep", json.dumps({**_SWEEP, "base": {**MINIMAL, "name": "n" * 300}})),
        ("run", _with_coefficients(D="1e300", pi="1e-10", f0="1")),
        ("run", _with_coefficients(f0="1e308")),
        ("check", _with_coefficients(f0="exp(700*sin(2*pi*x1))")),
        ("run", json.dumps({**MINIMAL, "solver": {"t_end": 0.002, "cfl_safety": 5e-324}})),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": 3, "cells_per_axis": 10000000}})),
        ("check", json.dumps({**MINIMAL, "grid": {"dim": 3, "cells_per_axis": 10000000}})),
        ("equilibrium", json.dumps({**MINIMAL, "grid": {"dim": 3, "cells_per_axis": 10000000}})),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": 1, "cells_per_axis": 1e30}})),
        ("check", json.dumps({**MINIMAL, "grid": {"dim": 1, "cells_per_axis": 1e30}})),
        ("run", _with_coefficients(phi="800*cos(2*pi*x1)")),
        ("check", _with_coefficients(phi="800*cos(2*pi*x1)")),
        ("equilibrium", _with_coefficients(phi="800*cos(2*pi*x1)")),
        ("run", _with_coefficients(D="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("check", _with_coefficients(D="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("equilibrium", _with_coefficients(D="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("run", _with_coefficients(phi="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("check", _with_coefficients(phi="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("equilibrium", _with_coefficients(phi="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("run", _with_coefficients(pi="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("check", _with_coefficients(pi="0.8e308*(1.0001+sin(2*pi*x1))")),
        ("check", _with_coefficients(D="1e160*(1.5+sin(2*pi*x1))")),
        ("run", _with_coefficients(D="1e160*(1.5+sin(2*pi*x1))")),
        ("check", _with_coefficients(pi="1e-300")),
        ("run", _with_coefficients(pi="1e-300")),
        ("run", _with_coefficients(pi="1e-300", f0="1")),
        ("run", json.dumps({**MINIMAL, "name": ["a"]})),
        ("sweep", json.dumps({**_SWEEP, "base": {**MINIMAL, "name": ["a"]}})),
        ("run", _with_coefficients(D=None)),
        ("check", _with_coefficients(f0=2)),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": "1", "cells_per_axis": 32}})),
        ("run", json.dumps({**MINIMAL, "grid": {"dim": 1, "cells_per_axis": "32"}})),
        ("run", json.dumps({**MINIMAL, "solver": {"t_end": "0.001"}})),
        ("check", json.dumps({**MINIMAL, "theory": {"gamma": "5"}})),
        ("run", json.dumps({**MINIMAL, "diagnostics": {"fit_window": [0.0005, "0.002"]}})),
        ("run", json.dumps({**MINIMAL, "diagnostics": {"fit_window": [0.1]}})),
        ("run", _with_coefficients(D="1e308", f0="1")),
        ("check", _with_coefficients(D="1e308", f0="1")),
        ("run", _with_coefficients(D="3e160", pi="1e10")),
        ("check", _with_coefficients(D="3e160", pi="1e10")),
        ("run", _with_coefficients(D="1e158", pi="1e10")),
        ("run", _with_coefficients(D="1e140*(1.5+sin(2*pi*x1))", phi="1e140*(cos(2*pi*x1)+sin(2*pi*x1))",
                                   pi="1e-10*(2+cos(2*pi*x1))", f0="1")),
        ("run", _with_coefficients(D="1e-10", phi="cos(2*pi*x1)")),
        ("check", _with_coefficients(D="1e-10", phi="cos(2*pi*x1)")),
        ("equilibrium", _with_coefficients(D="1e-10", phi="cos(2*pi*x1)")),
        ("check", _with_coefficients(D="1e307", phi="1e307*log(1+0.9*sin(2*pi*x1))", f0="1+0.9*sin(2*pi*x1)")),
        ("run", _with_coefficients(D="1e307", phi="1e307*log(1+0.9*sin(2*pi*x1))", f0="1+0.9*sin(2*pi*x1)")),
        ("run", _with_coefficients(D="1e308", f0="1+0.9*sin(2*pi*x1)")),
        ("check", _with_coefficients(D="1e308", f0="1+0.9*sin(2*pi*x1)")),
        ("check", _with_coefficients(D="1e152", phi="1e152*sin(2*pi*x1)", f0="1")),
        ("run", _with_coefficients(D="1e-5+x1^4", f0="1+0.9*sin(2*pi*x1)")),
    ],
    ids=[
        "truncated_json",
        "values_not_a_list",
        "grid_not_an_object",
        "dim_not_a_number",
        "cells_infinite",
        "t_end_nan",
        "t_end_infinite",
        "floor_negative",
        "solver_key_misspelled",
        "block_misspelled",
        "sweep_key_unknown",
        "certified_sobolev_negative",
        "certified_poincare_zero",
        "cells_not_integral",
        "gamma_infinite",
        "certified_poincare_infinite",
        "fit_window_nan",
        "fit_window_infinite",
        "floor_infinite",
        "dim_boolean",
        "record_every_boolean",
        "check_record_every_zero",
        "sweep_value_boolean",
        "phi_5001_term_sum",
        "phi_3000_parentheses",
        "phi_5000_unary_minuses",
        "phi_3000_power_chain",
        "sweep_name_climbs_out",
        "sweep_name_with_nul",
        "sweep_name_300_characters",
        "d_over_pi_overflows",
        "f0_mass_overflows",
        "f0_rescaled_underflows",
        "stable_step_underflows",
        "cells_3d_beyond_numpy_index",
        "check_cells_3d_beyond_numpy_index",
        "equilibrium_cells_3d_beyond_numpy_index",
        "cells_1d_beyond_numpy_index",
        "check_cells_1d_beyond_numpy_index",
        "equilibrium_overflows",
        "check_equilibrium_overflows",
        "equilibrium_command_equilibrium_overflows",
        "grad_d_overflows",
        "check_grad_d_overflows",
        "equilibrium_grad_d_overflows",
        "grad_phi_overflows",
        "check_grad_phi_overflows",
        "equilibrium_grad_phi_overflows",
        "grad_pi_overflows",
        "check_grad_pi_overflows",
        "check_velocity_squares_overflow",
        "velocity_squares_overflow",
        "check_tiny_pi_velocity_overflows",
        "tiny_pi_velocity_overflows",
        "tiny_pi_flux_overflows",
        "name_a_list",
        "sweep_name_a_list",
        "coefficient_null",
        "check_coefficient_a_number",
        "dim_a_string",
        "cells_a_string",
        "t_end_a_string",
        "check_gamma_a_string",
        "fit_window_end_a_string",
        "fit_window_one_end",
        "free_energy_overflows",
        "check_free_energy_overflows",
        "dissipation_overflows",
        "check_dissipation_overflows",
        "term_overflows",
        "term_integrand_inf_minus_inf",
        "bisection_cap_reached",
        "check_bisection_cap_reached",
        "equilibrium_bisection_cap_reached",
        "check_hessian_phi_overflows",
        "hessian_phi_overflows",
        "envelope_ratio_overflows",
        "check_velocity_potential_overflows",
        "check_ratio_denominator_overflows",
        "envelope_upper_bound_overflows",
    ],
)
def test_bad_input_exits_2_with_one_line_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    out = tmp_path / "a" / "b" / "out"  # deep enough that a path climbing out stays in tmp_path
    out_args = [] if command == "equilibrium" else ["--out", str(out)]  # equilibrium writes no files
    assert cli.main([command, str(path), *out_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    inside_out = {out, *out.parents, *out.rglob("*")}
    assert set(tmp_path.rglob("*")) - inside_out == {path}  # nothing written outside --out


def test_stiffness_error_prints_a_summary_that_fits(tmp_path, capsys):
    # the tiny_pi_flux_overflows input above: every halved step overflows the flux
    path = tmp_path / "input.json"
    path.write_text(_with_coefficients(pi="1e-300", f0="1"))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    line = capsys.readouterr().err.rstrip("\n")
    assert line == "error: 10 consecutive step rejections at t = 0, step 0 (last dt 1.526e-306, min new value nan)"
    assert len(line) <= len("error: ") + MESSAGE_WIDTH


@pytest.mark.parametrize("below", [False, True], ids=["out_is_a_file", "out_below_a_file"])
@pytest.mark.parametrize("command", ["run", "check", "sweep"])
def test_out_at_or_below_a_file_exits_2(tmp_path, capsys, command, below):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_SWEEP if command == "sweep" else MINIMAL))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if below else blocker
    assert cli.main([command, str(path), "--out", str(out), "--force"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory {quote_source(str(out), len(str(out)))}: Not a directory\n"


def test_force_removes_earlier_outputs_only(tmp_path):
    # a check after a run leaves no series.csv; a 1-row sweep after a 3-row one leaves one row
    scenario, sweep = tmp_path / "input.json", tmp_path / "sweep.json"
    scenario.write_text(json.dumps(MINIMAL))
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert cli.main(["check", str(scenario), "--out", str(out), "--force"]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["notes.txt", "report.json", "scenario.normalized.json"]
    assert (out / "notes.txt").read_text() == "kept"
    sweep.write_text(json.dumps({**_SWEEP, "values": [1, 2, 4]}))
    assert cli.main(["sweep", str(sweep), "--out", str(out), "--force", "--jobs", "1"]) == 0
    assert len(list((out / "rows").iterdir())) == 3
    sweep.write_text(json.dumps({**_SWEEP, "values": [1]}))
    assert cli.main(["sweep", str(sweep), "--out", str(out), "--force", "--jobs", "1"]) == 0
    assert [path.name for path in (out / "rows").iterdir()] == ["000_sweep-base-d1"]
    assert len((out / "sweep.csv").read_text().splitlines()) == 2
    assert sorted(path.name for path in out.iterdir()) == ["notes.txt", "rows", "sweep.csv"]


def test_long_path_error_quotes_a_window(tmp_path, capsys):
    # the row directory of a 300-character name is refused by the file system;
    # the error quotes the path's last 60 characters, not the whole path
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**_SWEEP, "base": {**MINIMAL, "name": "n" * 300}}))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory ...") and err.count("\n") == 1
    assert len(err.rstrip("\n")) <= 200, err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("axis", cli.SWEEP_AXES)
def test_sweep_value_no_float_holds_exits_2(tmp_path, capsys, axis, jobs):
    # a gamma row takes float(value); the other axes name a row directory after it
    path = tmp_path / "input.json"
    base = {**MINIMAL, "theory": {"gamma": 1.0}}
    path.write_text(json.dumps({"axis": axis, "values": [1, 10**400], "base": base}))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err == "error: sweep value 1 is an integer too large for a float\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_infinite_sweep_value_is_its_rows_error(tmp_path, jobs):
    base = cli.build_scenario({**MINIMAL, "theory": {"gamma": 1.0}})
    spec = cli.SweepSpec(base=base, axis="gamma", values=[math.inf, 1.0])
    rows = list(csv.reader(cli.run_sweep(spec, tmp_path / "out", jobs=jobs).open()))
    assert rows[1][0] == "inf" and rows[1][-1] == "theory.gamma must be positive and finite; got inf"
    assert rows[2][-3] == "True" and rows[2][-1] == ""  # the sweep went on


def test_gamma_sweep_of_a_base_without_theory_exits_2(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"axis": "gamma", "values": [1, 2], "base": MINIMAL}))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: gamma sweep requires a theory block in the base scenario\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_SWEEP))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: jobs must be at least 1; got {jobs}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_pool_never_larger_than_the_row_count(tmp_path, monkeypatch):
    started = []

    class SerialPool:  # records the pool size and maps in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    spec = cli.SweepSpec(base=cli.build_scenario(MINIMAL), axis="d_scale", values=[1, 2])
    path = cli.run_sweep(spec, tmp_path / "sweep", force=True, jobs=64)
    assert started == [2]
    assert [row.split(",")[0] for row in path.read_text().splitlines()[1:]] == ["1", "2"]


class RecordingPool:  # maps in this process and records the dispatch order
    dispatched = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        RecordingPool.dispatched = [scenario.name for _, rows in tasks for _, scenario, _ in rows]
        return map(fn, tasks)


def _dispatch(tmp_path, monkeypatch, base, axis, values):
    """(dispatched row names, sweep.csv value column) of a jobs=2 sweep."""
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = cli.SweepSpec(base=cli.build_scenario(base), axis=axis, values=values)
    path = cli.run_sweep(spec, tmp_path / "sweep", force=True, jobs=2)
    with path.open(newline="") as fh:
        return RecordingPool.dispatched, list(csv.DictReader(fh))


def test_sweep_dispatches_longest_predicted_row_first(tmp_path, monkeypatch):
    base = {**MINIMAL, "name": "s"}
    dispatched, rows = _dispatch(tmp_path, monkeypatch, base, "d_scale", [1, 8, 2, 4])
    assert dispatched == ["s-d8", "s-d4", "s-d2", "s-d1"]
    assert [row["value"] for row in rows] == ["1", "8", "2", "4"]


def test_sweep_rows_of_equal_work_keep_input_order(tmp_path, monkeypatch):
    # on pi = 1 every scale leaves pi = 1: equal work, but distinct trajectories
    base = {**MINIMAL, "name": "s", "theory": {"gamma": 1.0}}
    dispatched, rows = _dispatch(tmp_path, monkeypatch, base, "grad_pi_scale", [4.0, 1.0, 2.0])
    assert dispatched == ["s-p4.0", "s-p1.0", "s-p2.0"]
    assert [row["value"] for row in rows] == ["4", "1", "2"]


def test_sweep_row_that_fails_to_build_is_never_dispatched(tmp_path, monkeypatch):
    base = {**MINIMAL, "name": "s", "theory": {"gamma": 1.0}}
    dispatched, rows = _dispatch(tmp_path, monkeypatch, base, "resolution", [16.5, 16, 32])
    assert dispatched == ["s-n32", "s-n16"]
    assert [row["error"] for row in rows] == ["grid.cells_per_axis must be an integer; got 16.5", "", ""]


def test_predicted_work_of_a_row_that_cannot_sample_is_zero(monkeypatch):
    base = cli.build_scenario(MINIMAL)
    assert cli._predicted_work(base) > 0
    assert cli._predicted_work(cli.build_scenario(cli.apply_axis(base, "d_scale", -1.0))) == 0

    def exhausted(self):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli.Grid, "coordinates", exhausted)
    assert cli._predicted_work(base) == 0


def test_predicted_work_of_a_caller_mistake_raises():
    with pytest.raises(AttributeError):
        cli._predicted_work(None)


def test_predicted_work_of_an_overflowing_step_count_is_max_steps():
    # dt0 is about 1.2e-312, so t_end / dt0 is +inf and max_steps bounds the step count
    row = cli.build_scenario(load_scenario_dict("heat_1d", **{"coefficients.D": "1e307", "solver.t_end": 1.0}))
    coeffs, _ = cli.sample_coefficients(row.coefficients, row.grid, only=("D", "pi"))
    assert row.solver.t_end / cli.solver.stable_dt(coeffs, 0.0, row.solver.cfl_safety) == math.inf
    assert cli._predicted_work(row) == row.grid.cell_count * row.solver.max_steps
    # a stationary start runs every one of its max_steps steps
    stationary = json.loads(_with_coefficients(D="1e307", f0="1"))
    row = cli.build_scenario({**stationary, "solver": {"t_end": 1.0, "max_steps": 3000}})
    assert cli.run_scenario_data(row)[1]["accepted_steps"] == 3000
    assert cli._predicted_work(row) == 16 * 3000


def test_usable_cpus_without_an_affinity_set(monkeypatch):
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # undeterminable
    assert cli._usable_cpus() == 1


def test_sweep_command_prints_the_csv_path(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_SWEEP))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--out", str(out), "--jobs", "1"]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'sweep.csv'}\n"
    assert (out / "sweep.csv").is_file()


def test_sweep_parent_samples_only_d_and_pi(tmp_path, monkeypatch):
    # the base's regime and each row's predicted work read D and pi alone; the pool's
    # workers sample their rows in full, in processes of their own
    sampled, sample = [], cli.sample_coefficients

    def spy(specs, grid, only=None):
        sampled.append(only)
        return sample(specs, grid, only=only)

    monkeypatch.setattr(cli, "sample_coefficients", spy)
    spec = cli.SweepSpec(base=cli.build_scenario({**MINIMAL, "name": "s"}), axis="d_scale", values=[1, 8, 2, 4])
    path = cli.run_sweep(spec, tmp_path / "sweep", force=True, jobs=2)
    assert sampled == [("D", "pi")] * 5
    assert [row.split(",")[-1] for row in path.read_text().splitlines()[1:]] == [""] * 4


def test_sweep_base_phi_that_fails_to_sample_is_each_rows_error(tmp_path):
    # the parent samples D and pi alone, so phi fails in each row, as an equilibrium failure does
    base = {**MINIMAL, "coefficients": {**MINIMAL["coefficients"], "phi": "1/(x1-x1)"}}
    spec = cli.SweepSpec(base=cli.build_scenario(base), axis="d_scale", values=[1, 2])
    with cli.run_sweep(spec, tmp_path / "sweep", jobs=1).open(newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    assert errors == ["coefficient 'phi' is not finite at cell (0,) at offset 0 in '1/(x1-x1)'"] * 2


def test_short_unknown_key_lists_the_allowed_keys_that_fit(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**MINIMAL, "solver": {"t_end": 0.002, "cfl_saftey": 0.4}}))
    assert cli.main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver has unknown key 'cfl_saftey'; allowed: t_end, cfl_safety, ")
    assert err.endswith(", ...\n") and len(err.rstrip("\n")) <= 120


@pytest.fixture(scope="module")
def d_scale_sweep(tmp_path_factory):
    """sweep_d_scale as shipped, run serially."""
    spec = cli.parse_sweep(SCENARIO_DIR / "sweep_d_scale.json")
    out = tmp_path_factory.mktemp("d_scale")
    return spec, cli.run_sweep(spec, out / "jobs1", force=True, jobs=1)


def test_predicted_steps_equal_accepted_steps(d_scale_sweep):
    spec, path = d_scale_sweep
    cells = spec.base.grid.cell_count
    for index, value in enumerate(spec.values):
        row = cli.build_scenario(cli.apply_axis(spec.base, spec.axis, value))
        report = json.loads((path.parent / "rows" / f"{index:03d}_{row.name}" / "report.json").read_text())
        assert cli._predicted_work(row) == cells * report["accepted_steps"]


# per axis: values with one row that fails (to build or to sample) and one duplicate
IDENTITY_SWEEPS = [
    ("d_scale", [1, -1, 2, 1]),
    ("gamma", [1.0, -1, 40.0, 1.0]),
    ("grad_pi_scale", [0.5, 10, 1, 0.5]),
    ("resolution", [16, 16.5, 32, 16]),
]


@pytest.mark.parametrize("axis, values", IDENTITY_SWEEPS, ids=[axis for axis, _ in IDENTITY_SWEEPS])
def test_sweep_output_identical_at_one_and_two_jobs(tmp_path, axis, values):
    coefficients = {**MINIMAL["coefficients"], "pi": "1 + 0.2*cos(2*pi*x1)"}
    base = {**MINIMAL, "name": "s", "coefficients": coefficients, "theory": {"gamma": 1.0}}
    spec = cli.SweepSpec(base=cli.build_scenario(base), axis=axis, values=values)
    serial, pooled = (cli.run_sweep(spec, tmp_path / f"jobs{j}", jobs=j).parent for j in (1, 2))
    serial_paths = sorted(p.relative_to(serial) for p in serial.rglob("*"))
    assert serial_paths == sorted(p.relative_to(pooled) for p in pooled.rglob("*"))
    files = [name for name in serial_paths if (serial / name).is_file()]
    assert len(files) == 1 + 3 * (len(values) - 1)  # sweep.csv, and 3 files per row that ran
    for name in files:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
    with (serial / "sweep.csv").open(newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    assert [error != "" for error in errors] == [False, True, False, False]


@pytest.mark.parametrize("jobs", [1, 2])
def test_gamma_sweep_runs_one_trajectory(tmp_path, monkeypatch, jobs):
    runs, solver_run = [], cli.solver.run

    def spy(*args, **kwargs):
        runs.append(args)
        return solver_run(*args, **kwargs)

    monkeypatch.setattr(cli.solver, "run", spy)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = cli.build_scenario({**MINIMAL, "name": "s", "theory": {"gamma": 1.0}})
    values = [0.5, 1.0, 40.0, 200.0]
    out = cli.run_sweep(cli.SweepSpec(base=base, axis="gamma", values=values), tmp_path, jobs=jobs).parent
    assert len(runs) == 1
    rows = [out / "rows" / f"{i:03d}_s-g{float(v)}" for i, v in enumerate(values)]
    assert len({(row / "series.csv").read_bytes() for row in rows}) == 1
    gammas = [json.loads((row / "report.json").read_text())["scenario"]["theory"]["gamma"] for row in rows]
    assert gammas == values


def test_default_jobs_counts_the_cpus_this_process_may_use(tmp_path, monkeypatch):
    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError("a pool started on one usable CPU")

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", NoPool)
    spec = cli.SweepSpec(base=cli.build_scenario(MINIMAL), axis="d_scale", values=[1, 2])
    path = cli.run_sweep(spec, tmp_path / "sweep", force=True)
    assert [row.split(",")[0] for row in path.read_text().splitlines()[1:]] == ["1", "2"]


@pytest.mark.parametrize("detail", ["Unable to allocate 7.28 TiB for an array", ""])
@pytest.mark.parametrize("command", ["run", "check", "sweep", "equilibrium"])
def test_out_of_memory_exits_2_with_one_line_error(tmp_path, capsys, monkeypatch, command, detail):
    def exhausted(*args, **kwargs):
        raise MemoryError(detail)

    monkeypatch.setattr(cli, "sample_coefficients", exhausted)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_SWEEP if command == "sweep" else MINIMAL))
    out = [] if command == "equilibrium" else ["--out", str(tmp_path / "out")]
    assert cli.main([command, str(path), *out]) == 2
    expected = f"error: out of memory: {detail}\n" if detail else "error: out of memory\n"
    assert capsys.readouterr().err == expected


def test_long_expression_error_is_one_short_line(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(_with_phi("+".join(["1"] * 5001)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert "at offset 0 in '1+1+" in err and "(10001 characters)" in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("check", json.dumps({**MINIMAL, "solver": {"t_end": 10**400}})),
        ("check", json.dumps({**MINIMAL, "solver": {"t_end": "9" * 500}})),
        ("check", json.dumps({**MINIMAL, "theory": {"gamma": -(10**300)}})),
        ("check", json.dumps({**MINIMAL, "grid": {"dim": 1, "cells_per_axis": -(10**400)}})),
        ("check", json.dumps({**MINIMAL, "coefficients": {**MINIMAL["coefficients"], "D": [1] * 300}})),
        ("sweep", json.dumps({**_SWEEP, "values": ["9" * 500]})),
        ("check", json.dumps({**MINIMAL, "solver": {"t_end": 0.002, "k" * 500: 1}})),
        ("sweep", json.dumps({**_SWEEP, "axis": "a" * 500})),
        ("check", json.dumps({**MINIMAL, "grid": {"dim": 3, "cells_per_axis": 10**400}})),
    ],
    ids=["t_end_401_digits", "t_end_long_string", "gamma_301_digits", "cells_401_digits", "coefficient_a_list",
         "sweep_value_long_string", "solver_key_500_characters", "sweep_axis_500_characters",
         "cells_3d_401_digits_beyond_numpy_index"],
)
def test_long_bad_value_is_one_short_line(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli.main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.rstrip("\n")) <= 120, err
    assert "... (" in err and " characters)" in err  # the value is quoted as a window
