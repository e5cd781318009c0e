"""Scenario runner: exit codes, report schema, overrides, determinism."""

import dataclasses
import hashlib
import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import levicheck.cli as cli_module
import levicheck.levi as levi_module
import levicheck.staircase as staircase_module
from levicheck.cli import SCENARIOS, Assertion, main, run_scenario
from helpers_report import (
    _plain,
    certificate_report,
    column_distances,
    levi_summary,
    scan_summary,
    x0_certificate_to_json,
)
from levicheck.fields import DiscField
from test_reachability import RUNS as SMOKE_RUNS

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


OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}

# runs one config; prints whether it passed and its own peak RSS (RUSAGE_SELF:
# the test process's RUSAGE_CHILDREN takes the peak of every child it reaped)
FINEST_SWEEP_CODE = """
import json, resource, sys
from levicheck.cli import run_scenario
report, _ = run_scenario(json.loads(sys.argv[1]))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"passed": report["passed"], "maxrss_kb": peak}))
"""


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
        # the sweep's exponents are its case's own, not knobs
        assert set(payload["mollify-sweep"]["defaults"]) == {"spacing", "epsilon", "count"}
        assert payload["staircase-build"]["defaults"]["alpha1"] == "9/10"

    def test_json_listing_bytes_are_pinned(self, capsys):
        # every scenario's description and defaults, as json writes them
        assert main(["list", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "71e85c1ebdb89c140860784a18ce4c3a4f20423ddc7634a9ef7bd87df9846628"


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

    # alpha and p are the shipped case's exponents (StaircaseCase.alpha and
    # .p), never a scenario parameter
    @pytest.mark.parametrize("override", ["params.alpha=0.9", "params.alpha=5", "params.p=0"])
    def test_mollify_sweep_exponents_are_unknown_parameters(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, "c.json", scenario="mollify-sweep")
        assert main(["run", "--config", str(cfg), "--set", override]) == 2
        name = override.split(".")[1].split("=")[0]
        assert f"unknown parameter(s) for mollify-sweep: {name}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

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
            # int() would truncate it to 1
            ("slice-check", "seed=1.5"),
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

    @pytest.mark.parametrize(
        "scenario, params, override",
        [
            pytest.param(scenario, params, override, id=prefix + override)
            for scenario, params, prefix in [
                ("staircase-build", {}, ""),
                ("hartogs-scan", {"cap": "staircase"}, "hartogs-scan-"),
            ]
            for override in ['params.alpha1="abc"', 'params.alpha1="1/0"']
        ],
    )
    def test_malformed_fraction_exits_2(self, tmp_path, scenario, params, override):
        cfg = write_config(tmp_path, "c.json", scenario=scenario, params=params)
        assert main(["run", "--config", str(cfg), "--set", override]) == 2

    @pytest.mark.parametrize("alpha1", ['"abc"', '"2"'])
    def test_ball_cap_checks_alpha1(self, tmp_path, capsys, alpha1):
        # the ball cap reads no alpha1, but a report must not record a bad one
        cfg = write_config(
            tmp_path, "c.json", scenario="hartogs-scan", params={"spacing": 1.0 / 64.0}
        )
        assert main(["run", "--config", str(cfg), "--set", f"params.alpha1={alpha1}"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_depth_over_budget_exits_2(self, tmp_path, capsys):
        depth = staircase_module._DEPTH_BUDGET + 1
        cfg = write_config(tmp_path, "c.json", scenario="staircase-build")
        assert main(["run", "--config", str(cfg), "--set", f"params.depth={depth}"]) == 2
        assert f"got {depth}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "through-a-file"])
    def test_unusable_outdir_exits_2(self, tmp_path, capsys, below):
        # once a NotADirectoryError traceback and exit 1, the code of a failed assertion
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outdir = blocker / below if below else blocker
        cfg = write_config(tmp_path, "c.json", scenario="slice-check", outdir=str(outdir))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "cannot create outdir" in capsys.readouterr().err
        assert blocker.read_text() == "" and not list(tmp_path.rglob("report.json"))

    @pytest.mark.parametrize("blocked", ["report.json", "runtime.txt"])
    def test_unwritable_report_exits_2(self, tmp_path, capsys, blocked):
        # once an IsADirectoryError traceback and exit 1, the code of a failed assertion
        outdir = tmp_path / "out"
        (outdir / blocked).mkdir(parents=True)
        cfg = write_config(tmp_path, "c.json", scenario="slice-check")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "cannot write report" in capsys.readouterr().err
        # the CSV the scenario wrote before the report stays
        assert (outdir / "slices.csv").read_text().startswith("t_re,t_im,ratio_min,expected")

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    @pytest.mark.parametrize(
        "scenario, override, message",
        [
            # at spacing 0.1 the 17^3 grid reaches |xi| > 1, where the
            # ball's graph is undefined
            ("levi-check", "params.spacing=0.1", "finite"),
            ("green-identity", "params.spacing=0", "spacing must be >= 0.00048828125"),
            ("slice-check", "params.t_values=[[0.1]]", "pairs"),
            # one value just past each scenario's limit, from its ranges
            ("levi-check", "params.spacing=9.9e-5", "spacing must be >= 0.0001 for levi-check"),
            ("levi-check", "params.tol=-1.0", "tol must be >= 0 for levi-check, got -1.0"),
            ("levi-check", "params.tol=NaN", "tol must be >= 0 for levi-check, got nan"),
            (
                "green-identity",
                "params.spacing=0.00048828124",
                "spacing must be >= 0.00048828125 for green-identity, got 0.00048828124",
            ),
            ("slice-check", "params.spacing=9.9e-5", "spacing must be >= 0.0001 for slice-check"),
            # each one built its grid and crashed in numpy with exit 1: a run
            # at 1e-6 asked for 29.1 TiB, one at extent 200001 for 298 GiB
            (
                "hartogs-scan",
                "params.spacing=1e-6",
                "spacing must be >= 0.00048828125 for hartogs-scan, got 1e-06",
            ),
            (
                "hartogs-scan",
                "params.spacing=0.00048828124",
                "spacing must be >= 0.00048828125 for hartogs-scan, got 0.00048828124",
            ),
            (
                "levi-check",
                "params.extent=200001",
                "extent must be <= 121 for levi-check, got 200001",
            ),
            ("levi-check", "params.extent=123", "extent must be <= 121 for levi-check, got 123"),
            (
                "slice-check",
                "params.extent=200001",
                "extent must be <= 385 for slice-check, got 200001",
            ),
            ("slice-check", "params.extent=387", "extent must be <= 385 for slice-check, got 387"),
            ("hartogs-scan", 'params.alpha1="1"', "alpha1 must be < 1 for hartogs-scan, got '1'"),
            (
                "cantor-potential",
                "params.cert_generations=[4]",
                "len(cert_generations) must be >= 2 for cantor-potential, got 1",
            ),
            # graph_angles 0 exited 2 only after the potentials were built,
            # and -3 crashed in numpy
            (
                "cantor-potential",
                "params.graph_angles=0",
                "graph_angles must be >= 1 for cantor-potential, got 0",
            ),
            (
                "cantor-potential",
                "params.graph_angles=-3",
                "graph_angles must be >= 1 for cantor-potential, got -3",
            ),
            # find_x0 rejected it only after the fat_F work
            (
                "staircase-build",
                "params.n_offsets=0",
                "n_offsets must be >= 1 for staircase-build, got 0",
            ),
            # find_x0 raised it only after intervals.csv was written
            ("staircase-build", "params.depth=1", "depth must be >= 2 for staircase-build, got 1"),
            # the scan rejected 1.5 only after the cap was built
            ("hartogs-scan", "params.scan_radius=0", "scan_radius must be > 0 for hartogs-scan"),
            (
                "hartogs-scan",
                "params.scan_radius=1.5",
                "scan_radius must be < 1 for hartogs-scan, got 1.5",
            ),
            # the certificate rejected these only after the case build
            ("mollify-sweep", "params.epsilon=0", "epsilon must be > 0 for mollify-sweep, got 0"),
            ("mollify-sweep", "params.count=0", "count must be >= 2 for mollify-sweep, got 0"),
            # the first kernel (delta = 1/4) would hold 501^3 taps, 1.0 GB per array
            (
                "mollify-sweep",
                "params.spacing=1e-3",
                "spacing must be >= 0.001953125 for mollify-sweep, got 0.001",
            ),
            # or from a library precondition; cantor-potential builds every
            # square set before any work, so growth.csv is never left behind
            ("staircase-build", "params.depth=15", "depth must lie in [1, 14], got 15"),
            ("cantor-potential", "params.generation=0", "generation must be >= 1, got 0"),
            ("cantor-potential", "params.cert_generations=[4, 11]", "generation 11 exceeds"),
            ("cantor-potential", "params.dim_generation=11", "generation 11 exceeds"),
            ("cantor-potential", "params.graph_generation=0", "generation must be >= 1, got 0"),
            # box_dimension raised it after growth.csv was written
            ("cantor-potential", "params.alpha=0.3", "too fine for the point spread"),
            # atoms rounded onto one point: the radius sweep once halved r to 0.0 forever
            ("cantor-potential", "params.alpha=0.1", "needs distinct atom locations"),
        ],
    )
    def test_value_out_of_range_exits_2(self, tmp_path, capsys, scenario, override, message):
        cfg = write_config(tmp_path, "c.json", scenario=scenario)
        assert main(["run", "--config", str(cfg), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_ranges_cover_defaults(self, scenario):
        spec = SCENARIOS[scenario]
        assert set(spec.ranges) <= set(spec.defaults)
        cli_module._check_ranges(spec, spec.defaults)

    @pytest.mark.parametrize(
        "scenario, override",
        [
            # each raised from Fraction(spacing) with a traceback
            ("mollify-sweep", "params.spacing=0"),
            ("mollify-sweep", "params.spacing=NaN"),
            ("mollify-sweep", "params.spacing=Infinity"),
            # the first two passed over an empty scan, the third overflowed
            ("hartogs-scan", "params.spacing=10"),
            ("hartogs-scan", "params.spacing=Infinity"),
            ("hartogs-scan", "params.spacing=1e300"),
            # the first three failed a verdict that holds (exit 1 with
            # all_nodes_pseudoconvex or slice_ratio_lower_bound), the fourth
            # raised a numpy ValueError; the last would allocate 14.9 GiB
            ("levi-check", "params.spacing=1e-300"),
            ("levi-check", "params.spacing=1e-9"),
            ("slice-check", "params.spacing=1e-300"),
            ("green-identity", "params.spacing=1e-300"),
            ("green-identity", "params.spacing=1e-9"),
        ],
    )
    def test_spacing_out_of_range_exits_2(self, tmp_path, capsys, scenario, override):
        cfg = write_config(tmp_path, "c.json", scenario=scenario)
        assert main(["run", "--config", str(cfg), "--set", override]) == 2
        assert "spacing must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("scenario", ["levi-check", "slice-check"])
    def test_finest_accepted_spacing_passes(self, tmp_path, scenario):
        cfg = write_config(tmp_path, "c.json", scenario=scenario)
        assert main(["run", "--config", str(cfg), "--set", "params.spacing=1e-4"]) == 0

    # the coarsest accepted spacing, and one finer than the default; the
    # sweep window is fixed at 1/4 to 1/32, so neither moves it
    @pytest.mark.parametrize("spacing", ["0.01", "0.00390625"])
    def test_mollify_sweep_passes_at_accepted_spacings(self, tmp_path, spacing):
        cfg = write_config(tmp_path, "c.json", scenario="mollify-sweep")
        assert main(["run", "--config", str(cfg), "--set", f"params.spacing={spacing}"]) == 0
        certificate = read_report(tmp_path)["tables"]["certificate"]
        assert certificate["deltas"] == [0.25 * 2.0 ** (-0.5 * k) for k in range(7)]

    # the finest accepted spacing, run in a child so that its ru_maxrss is the
    # run's own: 589 MB measured, 1,747 MB when v and phi were full 3-D
    # arrays; most of it is the first kernel's 257^3 taps
    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts kB on Linux")
    def test_mollify_sweep_at_finest_accepted_spacing_peaks_under_700_mb(self, tmp_path):
        config = {
            "scenario": "mollify-sweep",
            "params": {"spacing": 1.0 / 512.0},
            "outdir": str(tmp_path / "out"),
        }
        proc = subprocess.run(
            [sys.executable, "-c", FINEST_SWEEP_CODE, json.dumps(config)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["passed"]
        assert result["maxrss_kb"] <= 700 * 1024

    # at 1/64 the first kernel (delta = 1/4) left no usable interior: a
    # StencilError after the case build
    @pytest.mark.parametrize("spacing", ["0.010000000000000002", "0.015625", "0.03125"])
    def test_mollify_sweep_spacing_above_limit_exits_2_before_the_case(
        self, tmp_path, capsys, monkeypatch, spacing
    ):
        def never(*args, **kwargs):
            raise AssertionError("staircase_sweep_case ran")

        monkeypatch.setattr(cli_module, "staircase_sweep_case", never)
        cfg = write_config(tmp_path, "c.json", scenario="mollify-sweep")
        assert main(["run", "--config", str(cfg), "--set", f"params.spacing={spacing}"]) == 2
        assert "spacing must be <= 0.01 for mollify-sweep" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    # from spacing 0.149 (bisected) up to 0.9 the staircase scan's segment
    # mean checks raised DomainError after the cap build and the whole scan
    @pytest.mark.parametrize("spacing", ["0.15", "0.3"])
    def test_hartogs_scan_spacing_above_limit_exits_2_before_the_cap(
        self, tmp_path, capsys, monkeypatch, spacing
    ):
        def never(*args, **kwargs):
            raise AssertionError("hartogs_staircase ran")

        monkeypatch.setattr(cli_module, "hartogs_staircase", never)
        cfg = write_config(tmp_path, "c.json", scenario="hartogs-scan", expect_violation=True)
        args = ["--set", 'params.cap="staircase"', "--set", f"params.spacing={spacing}"]
        assert main(["run", "--config", str(cfg), *args]) == 2
        assert "spacing must be <= 0.125 for hartogs-scan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("params.radii=[0.001]", "spans fewer than 4 cells"),
            ("params.radii=[2.0]", "r = 2.0 is not a radius in the unit disc (r <= 1)"),
        ],
    )
    def test_green_identity_radius_out_of_range_exits_2(
        self, tmp_path, capsys, override, message
    ):
        cfg = write_config(tmp_path, "c.json", scenario="green-identity")
        assert main(["run", "--config", str(cfg), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("radii, code", [("[0.25, 0.5]", 0), ("[0.25, 0.5, 1.0]", 2)])
    def test_green_identity_checks_the_laplacian_in_each_disc(
        self, tmp_path, capsys, monkeypatch, radii, code
    ):
        # a NaN Laplacian at |z| = 0.75 lies in the disc of r = 1 only
        original = DiscField.laplacian_field

        def with_hole(field):
            lap = original(field)
            lap[field.half + round(0.75 / field.spacing), field.half] = np.nan
            return lap

        monkeypatch.setattr(DiscField, "laplacian_field", with_hole)
        cfg = write_config(tmp_path, "c.json", scenario="green-identity")
        args = ["--set", "params.spacing=0.00390625", "--set", f"params.radii={radii}"]
        assert main(["run", "--config", str(cfg), *args]) == code
        if code == 2:
            assert "Laplacian undefined somewhere in the disc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, override, message",
        [
            # each passed every assertion over no items
            ("slice-check", "params.t_values=[]", "len(t_values) must be >= 1 for slice-check"),
            ("green-identity", "params.radii=[]", "len(radii) must be >= 1 for green-identity"),
            # growth_constant_stable held over an empty ratio list
            ("cantor-potential", "params.cert_generations=[4]", "len(cert_generations) must"),
        ],
    )
    def test_list_too_short_for_its_check_exits_2(
        self, tmp_path, capsys, scenario, override, message
    ):
        cfg = write_config(tmp_path, "c.json", scenario=scenario)
        assert main(["run", "--config", str(cfg), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    # at 1 - 10^-320 staircase-build wrote intervals.csv and both runs then
    # died with an OverflowError in float(growth), growth ~ 1/(2 (1 - alpha1))
    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            ("staircase-build", ["params.depth=3", "params.n_offsets=10"]),
            ("hartogs-scan", ['params.cap="staircase"', "params.spacing=0.015625"]),
        ],
    )
    @pytest.mark.parametrize("exponent, code", [(320, 2), (300, 0)])
    def test_alpha1_whose_growth_overflows_a_float_exits_2_before_any_output(
        self, tmp_path, capsys, scenario, overrides, exponent, code
    ):
        alpha1 = f"{10**exponent - 1}/{10**exponent}"
        cfg = write_config(tmp_path, "c.json", scenario=scenario)
        args = [a for o in [*overrides, f'params.alpha1="{alpha1}"'] for a in ("--set", o)]
        assert main(["run", "--config", str(cfg), *args]) == code
        if code == 2:
            assert "1/(1 - alpha1) overflows a float" in capsys.readouterr().err
            assert not list((tmp_path / "out").glob("*"))

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
        err = capsys.readouterr().err
        assert "assertion failed: violating_nodes_present (value 0 > 0)" in err.splitlines()

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

    def test_staircase_build_checks_the_built_row(self, tmp_path, capsys, monkeypatch):
        # the shifts applied shallowest-first: every generation-N interval
        # keeps its length, but the coarser pairs of the row do not
        def shallowest_first(alphas):
            system = staircase_module.build_cantor(alphas)
            spans = [system.interval_length(k) * system.denominator for k in range(len(alphas) + 1)]
            xs = [0, int(spans[-1])]
            for k in range(1, len(alphas) + 1):
                xs += [x + int(spans[k - 1] - spans[k]) for x in xs]
            return dataclasses.replace(system, xs=tuple(xs))

        monkeypatch.setattr(cli_module, "build_cantor", shallowest_first)
        cfg = write_config(tmp_path, "c.json", scenario="staircase-build")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "assertion failed: interval_length_identity" in capsys.readouterr().err
        by_name = {a["name"]: a for a in read_report(tmp_path)["assertions"]}
        assert by_name["interval_length_identity"]["passed"] is False
        assert Fraction(by_name["interval_length_identity"]["detail"]["value"]) > 0

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
        assert len(rows) == 1 + report["assertions"][0]["detail"]["value"]

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

    def test_green_identity_builds_weights_per_radius_and_laplacians_per_field(
        self, tmp_path, monkeypatch
    ):
        calls = {"weights": 0, "laplacian": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(cli_module, "_log_weights", counted("weights", cli_module._log_weights))
        monkeypatch.setattr(
            DiscField, "laplacian_field", counted("laplacian", DiscField.laplacian_field)
        )
        cfg = write_config(tmp_path, "c.json", scenario="green-identity")
        assert main(["run", "--config", str(cfg), "--set", "params.spacing=0.00390625"]) == 0
        assert calls == {"weights": 3, "laplacian": 3}

    @pytest.mark.parametrize("radius", [1e308, math.inf, math.nan, 0.0])
    def test_green_identity_radius_off_the_grid_is_a_usage_error(self, tmp_path, radius):
        # 1e308, inf and NaN are no radius in the unit disc, 0 spans no cell:
        # each is a usage error that writes nothing
        cfg = write_config(
            tmp_path, "c.json", scenario="green-identity", params={"radii": [radius]}
        )
        assert main(["run", "--config", str(cfg), "--set", "params.spacing=0.0078125"]) == 2
        assert list((tmp_path / "out").iterdir()) == []

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

        def shifted(hess, tau1, tau2, *parts):
            complex_form, t_form = original(hess, tau1, tau2, *parts)
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
        assert set(detail) == {"value", "op", "bound", "margin", "scale"}
        assert detail["op"] == "<=" and detail["bound"] == 1e-9 * detail["scale"]
        assert detail["value"] > detail["bound"] and detail["margin"] < 0


class TestAssertion:
    @pytest.mark.parametrize(
        "value, op, bound, passed, margin",
        [
            (1.0, "<=", 1.0, True, 0.0),
            (1.0, "<", 1.0, False, 0.0),
            (0.5, "<", 1.0, True, 0.5),
            (2.0, ">=", 1.0, True, 1.0),
            (0, ">", 0, False, 0),
            (3.0, "<=", 1.0, False, -2.0),
            (Fraction(1, 3), "<=", 0, False, Fraction(-1, 3)),
        ],
    )
    def test_passed_and_margin_follow_from_value_op_bound(
        self, value, op, bound, passed, margin
    ):
        check = Assertion("check", value, op, bound)
        assert check.passed is passed
        assert check.margin == margin

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_nan_value_fails(self, op):
        check = Assertion("check", math.nan, op, 0.0)
        assert check.passed is False and math.isnan(check.margin)

    def test_detail_is_the_numbers_and_the_context(self):
        detail = Assertion("check", 1.0, "<=", 2.0, {"count": 3}).detail
        assert detail == {"count": 3, "value": 1.0, "op": "<=", "bound": 2.0, "margin": 1.0}


def _number(x):
    """A detail number as compared: exact rationals are written as strings."""
    return Fraction(x) if isinstance(x, str) else x


# the four runs whose declared polarity opposes their subject, at smoke
# sizes, with the assertions each fails
OPPOSITE_RUNS = [
    (
        "levi-check-ball-expecting-violation",
        {"scenario": "levi-check", "expect_violation": True, "params": {"extent": 9}},
        {"violating_nodes_present"},
    ),
    (
        "levi-check-g2-expecting-none",
        {"scenario": "levi-check", "params": {"model": "g2", "extent": 9}},
        {"all_nodes_pseudoconvex"},
    ),
    (
        "hartogs-scan-ball-expecting-violation",
        {"scenario": "hartogs-scan", "expect_violation": True, "params": {"spacing": 1.0 / 64.0}},
        {
            "violating_nodes_present",
            "violations_within_2h_of_base_kinks",
            "far_nodes_strictly_subharmonic",
        },
    ),
    (
        "hartogs-scan-staircase-expecting-none",
        {"scenario": "hartogs-scan", "params": {"cap": "staircase", "spacing": 1.0 / 128.0}},
        {"no_violating_nodes"},
    ),
]
CHECKED_RUNS = [(name, config, set()) for name, config in SMOKE_RUNS] + OPPOSITE_RUNS


class TestReportedChecks:
    @pytest.mark.parametrize(
        "name, config, failing", CHECKED_RUNS, ids=[name for name, _, _ in CHECKED_RUNS]
    )
    def test_passed_and_margin_agree_with_value_op_bound(self, tmp_path, name, config, failing):
        returned, outdir = run_scenario(dict(config, outdir=str(tmp_path / name)))
        report = json.loads((outdir / "report.json").read_text())
        # the caller gets the report as written; repr reads NaN as equal to NaN
        assert repr(returned) == repr(report)
        for check in report["assertions"]:
            detail = check["detail"]
            op = detail["op"]
            value, bound, margin = (_number(detail[k]) for k in ("value", "bound", "margin"))
            assert check["passed"] is OPS[op](value, bound), check["name"]
            held = margin > 0 if op in ("<", ">") else margin >= 0
            assert check["passed"] is held, check["name"]
            distance = bound - value if op.startswith("<") else value - bound
            assert margin == distance or (math.isnan(margin) and math.isnan(distance))
        assert report["passed"] is all(check["passed"] for check in report["assertions"])
        assert {a["name"] for a in report["assertions"] if not a["passed"]} == failing

    def test_nan_green_residual_fails(self, tmp_path, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN residual must not drop out of the check
        original = cli_module.green_identity_report

        def nan_at_half(field, r, *args):
            report = original(field, r, *args)
            return dataclasses.replace(report, residual=math.nan) if r == 0.5 else report

        monkeypatch.setattr(cli_module, "green_identity_report", nan_at_half)
        cfg = write_config(tmp_path, "c.json", scenario="green-identity")
        assert main(["run", "--config", str(cfg), "--set", "params.spacing=0.00390625"]) == 1
        by_name = {a["name"]: a for a in read_report(tmp_path)["assertions"]}
        assert by_name["green_identity_re_zeta"]["passed"] is False
        assert math.isnan(by_name["green_identity_re_zeta"]["detail"]["value"])

    def test_nan_sweep_minimum_fails(self, tmp_path, monkeypatch):
        # min() drops a NaN after the first item
        original = cli_module.mollified_sign_certificate

        def nan_second(*args, **kwargs):
            report = original(*args, **kwargs)
            m_values = (report.m_values[0], math.nan) + report.m_values[2:]
            return dataclasses.replace(report, m_values=m_values)

        monkeypatch.setattr(cli_module, "mollified_sign_certificate", nan_second)
        cfg = write_config(tmp_path, "c.json", scenario="mollify-sweep")
        assert main(["run", "--config", str(cfg), "--set", "params.count=2"]) == 1
        by_name = {a["name"]: a for a in read_report(tmp_path)["assertions"]}
        assert by_name["mollified_sign_sweep"]["passed"] is False

    @pytest.mark.parametrize(
        "ratio, passed",
        [
            (0.5, True),
            (2.0, True),
            (float(np.nextafter(0.5, 0.0)), False),
            (float(np.nextafter(2.0, 3.0)), False),
        ],
    )
    def test_growth_constant_band_edges(self, tmp_path, monkeypatch, ratio, passed):
        constants = iter([1.0, ratio])
        original = cli_module.frostman_certificate

        def fixed_constant(square_set):
            return dataclasses.replace(original(square_set), constant=next(constants))

        monkeypatch.setattr(cli_module, "frostman_certificate", fixed_constant)
        (config,) = [c for name, c in SMOKE_RUNS if name == "cantor-potential"]
        report, _ = run_scenario(dict(config, outdir=str(tmp_path / "out")))
        (growth,) = [a for a in report["assertions"] if a["name"] == "growth_constant_stable"]
        assert growth["detail"]["ratios"] == [ratio]
        assert growth["passed"] is passed


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

    def test_frozen_constants_load_no_integrate(self):
        # kernel_profile_constants once ran scipy's quad on its first call
        code = (
            "import sys, levicheck.cli\n"
            "from levicheck import mollify, staircase\n"
            "mollify.kernel_profile_constants()\n"
            "staircase.bump_window_second_derivative_sup()\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_import_loads_no_spatial(self):
        # frostman_certificate reads its gap off the construction: no k-d tree
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GRAPH_CODE, "[]"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert not any(m.startswith("scipy.spatial") for m in loaded["import"])


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


def _canonical(table):
    """A table as report.json writes it, NaN and all, for comparing."""
    return json.dumps(table, sort_keys=True, default=cli_module._json_default)


# the leaves runners put in reports: builtin and numpy scalars, NaN, +-inf
# and -0.0 among the floats, Fractions, complex numbers and numpy arrays
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_, np.complex128]),
    hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.fractions(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    _ARRAYS,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonHook:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_hook_writes_what_plain_did(self, value):
        # _plain converted a report before json wrote it; the hook must give
        # the same text
        assert cli_module._to_json(value) == json.dumps(_plain(value), sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", np.datetime64("2020-01-01")])
    def test_anything_else_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli_module._to_json({"entry": [value]})


class TestTablesAgainstTheDeletedSerializers:
    """Each runner's table is what the library results once serialized
    themselves (tests/helpers_report.py), built from the very result the
    runner got, at configs that test_09 does not pin."""

    @staticmethod
    def record(monkeypatch, name, change=lambda result: result):
        """Wrap cli's binding of the library call name; the returned list
        gets (kwargs, result) of each call, result passed through change."""
        calls = []
        original = getattr(cli_module, name)

        def recording(*args, **kwargs):
            calls.append((kwargs, change(original(*args, **kwargs))))
            return calls[-1][1]

        monkeypatch.setattr(cli_module, name, recording)
        return calls

    @staticmethod
    def written(tmp_path, config, entry):
        _, outdir = run_scenario(dict(config, outdir=str(tmp_path / "out")))
        tables = json.loads((outdir / "report.json").read_text())["tables"]
        return json.dumps(tables[entry], sort_keys=True)

    @pytest.mark.parametrize(
        "params, nan_second",
        [({"spacing": 1.0 / 256.0}, False), ({"count": 2}, True)],
        ids=["spacing-1/256", "nan-minimum"],
    )
    def test_mollify_sweep_certificate(self, tmp_path, monkeypatch, params, nan_second):
        def change(report):
            if not nan_second:
                return report
            m_values = (report.m_values[0], math.nan) + report.m_values[2:]
            return dataclasses.replace(report, m_values=m_values)

        calls = self.record(monkeypatch, "mollified_sign_certificate", change)
        got = self.written(tmp_path, {"scenario": "mollify-sweep", "params": params}, "certificate")
        [(kwargs, report)] = calls
        # the arguments the runner once passed: case.alpha, case.p, epsilon
        want = certificate_report(report, alpha=0.9, p=6.0, epsilon=1e-2, **kwargs)
        assert want.rate_target == pytest.approx(0.4) and want.passed is not nan_second
        assert got == _canonical(json.loads(want.to_json()))

    def test_staircase_build_x0_certificate(self, tmp_path, monkeypatch):
        calls = self.record(monkeypatch, "find_x0")
        config = {"scenario": "staircase-build", "params": {"depth": 6, "n_offsets": 100}}
        got = self.written(tmp_path, config, "x0_certificate")
        [(_, cert)] = calls
        assert got == _canonical(json.loads(x0_certificate_to_json(cert)))

    @pytest.mark.parametrize(
        "params, expect_violation",
        [
            ({"cap": "staircase"}, False),
            ({"cap": "staircase", "alpha1": "1/2"}, False),
            ({"cap": "ball"}, True),
        ],
        ids=["staircase-99/100", "staircase-1/2", "ball-expecting-violation"],
    )
    def test_hartogs_scan_table(self, tmp_path, monkeypatch, params, expect_violation):
        staircase = params["cap"] == "staircase"
        builds = self.record(monkeypatch, "hartogs_staircase" if staircase else "hartogs_ball_domain")
        calls = self.record(monkeypatch, "subharmonicity_scan")
        config = {
            "scenario": "hartogs-scan",
            "expect_violation": expect_violation,
            "params": {**params, "spacing": 1.0 / 128.0},
        }
        got = self.written(tmp_path, config, "scan")
        [(_, built)] = builds
        [(kwargs, scan)] = calls
        cap, columns, p = (built.cap, built.columns, built.params) if staircase else (built, [], None)
        dist_x = column_distances(cap, columns)
        want = scan_summary(scan, kwargs["scan_radius"], params["cap"], cap, dist_x, p)
        assert ("alignment" in want) is ("implied_growth_threshold" in want) is staircase
        assert got == _canonical(want)

    @pytest.mark.parametrize(
        "params, expect_violation",
        [
            ({"model": "ball", "extent": 9}, False),
            ({"model": "ball", "extent": 9, "tol": 1.0}, False),
            ({"model": "g2", "extent": 9}, True),
            ({"model": "g2", "extent": 9}, False),
        ],
        ids=["ball", "ball-tol-1", "g2-expecting-violation", "g2"],
    )
    def test_levi_check_scan_table(self, tmp_path, monkeypatch, params, expect_violation):
        calls = self.record(monkeypatch, "levi_scan")
        config = {"scenario": "levi-check", "expect_violation": expect_violation, "params": params}
        got = self.written(tmp_path, config, "scan")
        [(_, scan)] = calls
        assert got == _canonical(levi_summary(scan))
