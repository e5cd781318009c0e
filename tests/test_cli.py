"""Scenario runner: exit codes, report schema, overrides, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import levicheck.levi as levi_module
from levicheck.cli import SCENARIOS, main, run_scenario

ALL_SCENARIOS = sorted(SCENARIOS)
REPORT_KEYS = {
    "assertions",
    "expect_violation",
    "parameters",
    "passed",
    "scenario",
    "seed",
    "tables",
}


def write_config(tmp_path, name, **fields):
    config = {"scenario": fields.pop("scenario"), "outdir": str(tmp_path / "out")}
    config.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_report(tmp_path):
    return json.loads((tmp_path / "out" / "report.json").read_text())


class TestListCommand:
    def test_plain_listing_names_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(ALL_SCENARIOS) == 7
        assert [line.split()[0] for line in lines] == ALL_SCENARIOS

    def test_json_listing_carries_defaults(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ALL_SCENARIOS
        for entry in payload.values():
            assert set(entry) == {"description", "defaults"}
            assert entry["description"]
        assert payload["mollify-sweep"]["defaults"]["epsilon"] == 1e-2
        assert payload["staircase-build"]["defaults"]["alpha1"] == "9/10"


class TestUsageErrors:
    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", scenario="no-such-scenario")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        for name in ALL_SCENARIOS:
            assert name in err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_non_object_config_exits_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_parameter_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        code = main(["run", "--config", str(cfg), "--set", "params.bogus=1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_invalid_parameter_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        assert main(["run", "--config", str(cfg), "--set", "params.spacing=0"]) == 2

    def test_unknown_model_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", scenario="levi-check", params={"model": "torus"}
        )
        assert main(["run", "--config", str(cfg)]) == 2

    def test_set_without_equals_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        assert main(["run", "--config", str(cfg), "--set", "oops"]) == 2

    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("slice-check", 'params.extent="7"'),
            ("slice-check", "params.extent=7.0"),
            ("slice-check", "params.spacing=true"),
            ("slice-check", 'params.t_values=[[0.1, "a"]]'),
            ("slice-check", "params.t_values=0.1"),
            ("cantor-potential", "params.cert_generations=[4, 5.5]"),
            ("staircase-build", "params.alpha1=0.9"),
            ("slice-check", 'seed="x"'),
            ("slice-check", 'expect_violation="false"'),
            ("slice-check", "expect_violation=0"),
        ],
    )
    def test_parameter_of_wrong_type_exits_2(self, tmp_path, capsys, scenario, override):
        cfg = write_config(tmp_path, "c.json", scenario=scenario)
        assert main(["run", "--config", str(cfg), "--set", override]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_int_stands_for_float(self, tmp_path):
        report, _ = run_scenario(
            {
                "scenario": "slice-check",
                "outdir": str(tmp_path / "out"),
                "params": {"t_values": [[0, 0.05]]},
            }
        )
        assert report["passed"] and report["parameters"]["t_values"] == [[0, 0.05]]

    @pytest.mark.parametrize("override", ['params.alpha1="abc"', 'params.alpha1="1/0"'])
    def test_malformed_fraction_exits_2(self, tmp_path, override):
        cfg = write_config(tmp_path, "c.json", scenario="staircase-build")
        assert main(["run", "--config", str(cfg), "--set", override]) == 2

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    @pytest.mark.parametrize(
        "scenario, override, message",
        [
            # at spacing 0.1 the 17^3 grid reaches |xi| > 1, where the
            # ball's graph is undefined
            ("levi-check", "params.spacing=0.1", "finite"),
            ("green-identity", "params.spacing=0", "spacing must be positive"),
            ("slice-check", "params.t_values=[[0.1]]", "pairs"),
        ],
    )
    def test_value_out_of_range_exits_2(self, tmp_path, capsys, scenario, override, message):
        cfg = write_config(tmp_path, "c.json", scenario=scenario)
        assert main(["run", "--config", str(cfg), "--set", override]) == 2
        assert message in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestRunReports:
    def test_slice_check_passes_with_schema(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        assert main(["run", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        assert set(report) == REPORT_KEYS
        assert report["scenario"] == "slice-check"
        assert report["passed"] is True
        assert report["seed"] == 0
        names = [a["name"] for a in report["assertions"]]
        assert names == ["slice_ratio_identity", "slice_ratio_lower_bound"]
        header = (tmp_path / "out" / "slices.csv").read_text().splitlines()[0]
        assert header == "t_re,t_im,ratio_min,expected"

    def test_runtime_sidecar_not_in_report(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        assert main(["run", "--config", str(cfg)]) == 0
        assert "runtime" not in read_report(tmp_path)
        sidecar = (tmp_path / "out" / "runtime.txt").read_text()
        assert sidecar.startswith("runtime_seconds:")

    def test_set_overrides_reach_parameters(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        code = main(
            ["run", "--config", str(cfg), "--set", "params.spacing=0.05", "--set", "seed=3"]
        )
        assert code == 0
        report = read_report(tmp_path)
        assert report["parameters"]["spacing"] == 0.05
        assert report["seed"] == 3

    def test_ball_scan_all_pseudoconvex(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="levi-check")
        assert main(["run", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        (assertion,) = report["assertions"]
        assert assertion["name"] == "all_nodes_pseudoconvex"
        assert assertion["detail"]["violating"] == 0
        assert (tmp_path / "out" / "levi_nodes.csv").exists()

    def test_g2_expected_violation_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            scenario="levi-check",
            expect_violation=True,
            params={"model": "g2"},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        assert report["expect_violation"] is True
        by_name = {a["name"]: a for a in report["assertions"]}
        assert by_name["model_origin_value_quarter"]["detail"]["symbolic"] == -0.25
        assert abs(by_name["dual_route_agreement"]["detail"]["fd_route"] + 0.25) <= 1e-6

    def test_expectation_never_implicit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", scenario="levi-check", params={"model": "g2"}
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert "assertion failed: all_nodes_pseudoconvex" in capsys.readouterr().err
        assert read_report(tmp_path)["passed"] is False

    def test_failed_assertion_named_on_stderr(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", scenario="levi-check", expect_violation=True
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert "assertion failed: violating_nodes_present" in capsys.readouterr().err

    def test_staircase_build_reports_expected_growth(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="staircase-build")
        assert main(["run", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        by_name = {a["name"]: a for a in report["assertions"]}
        assert by_name["interval_length_identity"]["passed"] is True
        assert by_name["interval_length_identity"]["detail"]["generations_checked"] == 12
        assert by_name["quadratic_growth_bound"]["detail"]["L"] == 4.5
        assert float(report["tables"]["x0_certificate"]["growth"]) == 4.5
        rows = (tmp_path / "out" / "intervals.csv").read_text().splitlines()
        assert rows[0] == "n,count,length_exact,length"
        assert len(rows) == 1 + 12

    def test_hartogs_ball_no_violations(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            scenario="hartogs-scan",
            params={"spacing": 1.0 / 128.0},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        (assertion,) = report["assertions"]
        assert assertion["name"] == "no_violating_nodes"

    def test_hartogs_staircase_expected_violation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            scenario="hartogs-scan",
            expect_violation=True,
            params={"cap": "staircase", "spacing": 1.0 / 256.0},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        names = [a["name"] for a in report["assertions"]]
        assert names == [
            "violating_nodes_present",
            "violations_within_2h_of_base_kinks",
            "far_nodes_strictly_subharmonic",
        ]
        rows = (tmp_path / "out" / "violators.csv").read_text().splitlines()
        assert rows[0] == "x,y,laplacian,dist_horizontal,dist_euclidean"
        assert len(rows) == 1 + report["assertions"][0]["detail"]["violating"]

    def test_green_identity_residual_columns(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="green-identity")
        assert main(["run", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        names = [a["name"] for a in report["assertions"]]
        assert names == [
            "green_identity_re_zeta",
            "green_identity_abs2",
            "green_identity_abs4",
        ]
        rows = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        assert rows[0] == "field,r,residual,circle_mean,area_term"
        assert len(rows) == 1 + 3 * 3

    def test_run_scenario_api_returns_report(self, tmp_path):
        report, outdir = run_scenario(
            {"scenario": "slice-check", "outdir": str(tmp_path / "api")}
        )
        assert report["passed"] is True
        assert (outdir / "report.json").exists()


class TestDualRouteFailure:
    @pytest.mark.parametrize(
        "shift_complex, where",
        [(False, "delta_tau_fields"), (True, "graph_levi_fields")],
    )
    def test_broken_route_is_a_failed_assertion(
        self, tmp_path, capsys, monkeypatch, shift_complex, where
    ):
        # shifting only the T-form breaks Delta_tau's own check; shifting
        # both of its forms passes that check and breaks the direct route's
        original = levi_module._delta_tau_forms

        def shifted(hess, tau1, tau2):
            complex_form, t_form = original(hess, tau1, tau2)
            if shift_complex:
                complex_form = complex_form + 1e-3
            return complex_form, t_form + 1e-3

        monkeypatch.setattr(levi_module, "_delta_tau_forms", shifted)
        cfg = write_config(tmp_path, "c.json", scenario="levi-check")
        assert main(["run", "--config", str(cfg)]) == 1
        name = f"dual_route_agreement_{where}"
        assert f"assertion failed: {name}" in capsys.readouterr().err
        report = read_report(tmp_path)
        assert set(report) == REPORT_KEYS
        assert report["passed"] is False
        assert [a["name"] for a in report["assertions"]] == [name]
        detail = report["assertions"][0]["detail"]
        assert set(detail) == {"worst", "scale"}
        assert detail["worst"] > 1e-9 * detail["scale"]


class TestInternalErrors:
    @pytest.mark.parametrize("error", [ValueError, TypeError])
    def test_error_inside_a_run_is_not_a_usage_error(
        self, tmp_path, capsys, monkeypatch, error
    ):
        # an error raised by the numerics is a bug: it keeps its traceback
        # instead of becoming "invalid configuration" with exit 2
        def broken(params, expect_violation, outdir):
            raise error("internal fault")

        scenario = dataclasses.replace(SCENARIOS["slice-check"], runner=broken)
        monkeypatch.setitem(SCENARIOS, "slice-check", scenario)
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        with pytest.raises(error, match="internal fault"):
            main(["run", "--config", str(cfg)])
        assert "usage error" not in capsys.readouterr().err


# imports every module a run needs, then runs green-identity and
# mollify-sweep at the benchmark's tiny sizes; prints the loaded scipy modules
IMPORT_GRAPH_CODE = """
import json, sys
import levicheck.cli
from levicheck.cli import run_scenario
loaded = {"import": sorted(m for m in sys.modules if m.startswith("scipy"))}
for config in json.loads(sys.argv[1]):
    report, _ = run_scenario(config)
    assert report["passed"], config["scenario"]
loaded["runs"] = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(loaded))
"""


class TestImportGraph:
    def test_runs_load_no_signal_stats_or_integrate(self, tmp_path):
        configs = [
            {
                "scenario": "green-identity",
                "params": {"spacing": 1.0 / 256.0},
                "outdir": str(tmp_path / "green"),
            },
            {
                "scenario": "mollify-sweep",
                "params": {"count": 2},
                "outdir": str(tmp_path / "mollify"),
            },
        ]
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GRAPH_CODE, json.dumps(configs)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        for stage in ("import", "runs"):
            assert "scipy.fft" in loaded[stage]
            for heavy in ("scipy.signal", "scipy.stats", "scipy.integrate"):
                assert not any(
                    m == heavy or m.startswith(heavy + ".") for m in loaded[stage]
                ), (stage, heavy)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        assert main(["run", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        first_csv = (tmp_path / "out" / "slices.csv").read_bytes()
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first
        assert (tmp_path / "out" / "slices.csv").read_bytes() == first_csv

    def test_thread_counts_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "slice-check",
                    "outdir": str(tmp_path / "out"),
                    "seed": 0,
                }
            )
        )
        blobs = []
        for threads in (1, 4, 8):
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [sys.executable, "-m", "levicheck", "run", "--config", str(cfg)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append((tmp_path / "out" / "report.json").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
