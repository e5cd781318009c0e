"""Which library functions the standard runs never enter, and which
dataclass fields nothing outside the tests reads.

The nine standard runs (``scripts/run_all_scenarios.py``, here at the
smoke sizes of SMOKE_PARAMS) plus the ``list`` and ``run`` commands
execute under ``sys.setprofile``.  Every function, method, closure and lambda compiled from
``src/levicheck/`` that no frame entered is reported by its qualified name;
a closure is listed only if the function around it ran.
The set must equal UNREACHED exactly, so deleting a pinned name, leaving new
test-only code in the library, or calling a pinned name from a run all fail
here until the pin and its reason are updated.  Dataclass-generated methods
are compiled from strings, not from these files, so they never appear.

The second pin, WRITE_ONLY, holds the dataclass fields of the library that
no attribute load in ``src/levicheck/``, ``scripts/`` or ``levibench/``
reads (see test_every_dataclass_field_has_a_reader).
"""

import ast
import inspect
import json
import os
import sys
from pathlib import Path

import levicheck
from levicheck import cli
from test_acceptance import STANDARD_RUN_DIGESTS, STANDARD_RUNS, THREAD_COUNTS

SRC = Path(levicheck.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# run name -> the params that shrink each standard run to the smoke sizes
# of the benchmark's tiny workloads
SMOKE_PARAMS = {
    "levi-check-ball": {"extent": 9},
    "levi-check-g2": {"extent": 9},
    "mollify-sweep": {"count": 2},
    "staircase-build": {"depth": 6, "n_offsets": 50},
    "hartogs-scan-ball": {"spacing": 1.0 / 64.0},
    "hartogs-scan-staircase": {"spacing": 1.0 / 128.0},
    "cantor-potential": {
        "generation": 3,
        "cert_generations": [3, 4],
        "dim_generation": 7,
        "graph_angles": 512,
    },
    "green-identity": {"spacing": 1.0 / 256.0},
    "slice-check": {},
}

# (run name, config): the standard runs at smoke sizes
RUNS = [
    (name, dict(config, params={**config.get("params", {}), **SMOKE_PARAMS[name]}))
    for name, config in STANDARD_RUNS.items()
]


def test_run_lists_name_the_pinned_runs():
    # scripts/run_all_scenarios.py holds the one list of standard runs; each
    # table keyed by run name covers exactly the runs test_09 pins
    names = set(STANDARD_RUN_DIGESTS)
    assert set(STANDARD_RUNS) == names
    assert set(THREAD_COUNTS) == names
    assert set(SMOKE_PARAMS) == names


# qualified name -> why the library keeps it although no standard run enters it
UNREACHED = {
    "cli._cmd_list.<locals>.<dictcomp>": "the `list --json` branch; tests/test_cli.py runs it",
    "fields.DiscField.value": "levibench/tracing.py wraps it (fields.disc_sample)",
    "fields.ScalarField3._require_interior": "the node block of fd_gradient and fd_hessian",
    "fields.ScalarField3.fd_gradient": "levibench/tracing.py wraps it; the one stencil at a node",
    "fields.ScalarField3.fd_hessian": "levibench/tracing.py wraps it; the one stencil at a node",
    "fields.ScalarField3.complex_wirtinger": "levibench/tracing.py wraps it; the node stencil's parts",
    "fields.ScalarField3.hessian_fields": "wrapped by levibench/tracing.py; the whole-grid oracle of tests",
    "fields.ScalarField3.wirtinger_fields": "wrapped by levibench/tracing.py; tests check it per node",
    "levi.ConsistencyError.__init__": "raised only when two routes disagree; tests force it",
    "levi.Defining2.ball": "closed-form domain, the exact Levi anchor of tests",
    "levi.Defining2.hartogs_ball": "closed-form domain, the exact Levi anchor of tests",
    "levi.Defining2.hartogs_lifted": "the Hartogs lift behind hartogs_ball and its tests",
    "levi.Defining2.from_graph_partials": "the symbolic route of test_01's dual-route check",
    "levi.delta_tau": "levibench/tracing.py wraps it; delta_tau_fields at one node",
    "levi.delta_tau_fields": "levibench/tracing.py wraps it; the one Delta_tau form, one block",
    "mollify.kernel_profile_constants": (
        "a frozen literal; the benchmark's fill_lazy_caches calls it (item 16)"
    ),
    "potential.AtomicMeasure.atoms": (
        "levibench/tracing.py reads len(.atoms); item 2 moves it to locations.size"
    ),
    "potential.potential_field": "ROADMAP item 3 brings it under hartogs-scan cap=cantor",
    "potential.zygmund_domain": "ROADMAP item 3; the benchmark's cantor_cap job calls it",
    "potential.zygmund_seminorm": "ROADMAP item 3 records the cap's seminorm with it",
    "staircase.superharmonic_mean_excess": "ROADMAP item 3's second route for the Cantor cap",
    "staircase.CantorSystem.kept_measure": "tests check the exact Cantor length identities with it",
    "staircase.CantorSystem.sup_distance": "tests check that successive f_n converge",
    "staircase.FatF.truncation_error": "ROADMAP item 11 puts its 2^(1-N) bound in a report",
}


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def _unreached(entered):
    """Qualified names of the outermost package functions that never ran."""
    out = set()

    def walk(code, prefix):
        for child in code.co_consts:
            if not inspect.iscode(child):
                continue
            name = prefix + child.co_name
            if not child.co_flags & inspect.CO_OPTIMIZED:
                walk(child, name + ".")  # a class body
            elif _key(child) in entered:
                walk(child, name + ".<locals>.")
            else:
                out.add(name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return out


def _entered(work):
    """Keys of the package code objects whose frames work() entered."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return {_key(c) for c in seen if os.path.dirname(c.co_filename) == str(SRC)}


def test_standard_runs_reach_all_but_the_pinned_names(tmp_path):
    config = tmp_path / "slice.json"
    config.write_text(json.dumps({"scenario": "slice-check", "outdir": str(tmp_path / "cli")}))

    def work():
        for name, run in RUNS:
            report, _ = cli.run_scenario(dict(run, outdir=str(tmp_path / name)))
            assert report["passed"], name
        assert cli.main(["list"]) == 0
        assert cli.main(["run", "--config", str(config), "--set", "params.extent=7"]) == 0

    unreached = _unreached(_entered(work))
    new = sorted(unreached - set(UNREACHED))
    reached = sorted(set(UNREACHED) - unreached)
    assert not new, f"no standard run enters {new}: delete them or pin a reason"
    assert not reached, f"a standard run now enters the pinned {reached}: unpin them"


# module.Class.field -> why the library keeps a field nothing outside the tests reads
WRITE_ONLY = {
    "mollify.BumpKernel.delta": "tests check the kernel's second moment against delta^2 m2",
    "potential.FrostmanCertificate.radii": "tests check the dyadic radius sweep through it",
}


def _is_dataclass(node):
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def test_every_dataclass_field_has_a_reader():
    """Every field of a @dataclass in src/levicheck/ is read somewhere in
    src/levicheck/, scripts/ or levibench/*.py, or pinned in WRITE_ONLY.

    A field counts as read when an attribute load of its name occurs in any
    of those files.  The match is by name only, not by owner, so a field
    whose name another class shares looks read when only the other one is:
    ``AtomicMeasure.generation`` would have passed for
    ``SquareCantor.generation``, which the CLI reads."""
    fields = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.update(
                    (f"{path.stem}.{node.name}", stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
    loaded = {
        node.attr
        for folder in (SRC, ROOT / "scripts", ROOT / "levibench")
        for path in sorted(folder.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {f"{owner}.{name}" for owner, name in fields if name not in loaded}
    new = sorted(unread - set(WRITE_ONLY))
    read = sorted(set(WRITE_ONLY) - unread)
    assert not new, f"nothing reads the fields {new}: delete them or pin a reason"
    assert not read, f"the pinned fields {read} now have a reader (or are gone): unpin them"
