"""The benchmark's span tracer still finds every name it wraps and reads.

``levibench/tracing.py`` looks each traced (owner, attribute) pair up in
``owner.__dict__``, so deleting or renaming a traced library name breaks
``levibench/run.py --trace 1``.  Its counters read attributes of the traced
calls' arguments and results (``measure.atoms``, ``fat.xs``, ...), which
only a traced run reaches.  The tracer module is loaded read-only from its
file; nothing in it is changed here.
"""

import importlib.util
from pathlib import Path

from levicheck import cli
from test_reachability import RUNS as SMOKE_RUNS

TRACING = Path(__file__).resolve().parent.parent / "levibench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("levibench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names(modules):
    return {(mod, name): id(value) for mod in modules for name, value in vars(mod).items()}


def test_tracer_installs_and_restores_every_traced_name():
    tracing = load_tracing()
    targets = [pair for pairs in tracing.LAYERS.values() for pair in pairs]
    for owner, attr in [*targets, *tracing.HOOKS]:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is traced but gone"
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in targets}
    modules = [tracing.cli, tracing.fields, tracing.levi, tracing.mollify, tracing.potential, tracing.staircase]
    before = bound_names(modules)

    with tracing.Tracer().installed([]):
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr].__wrapped__ is original

    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    assert bound_names(modules) == before


def test_tracer_counters_read_the_cantor_layers(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    runs = dict(SMOKE_RUNS)
    with tracer.installed([]):
        for name in ("cantor-potential", "staircase-build"):
            report, _ = cli.run_scenario(dict(runs[name], outdir=str(tmp_path / name)))
            assert report["passed"], name
    counters = tracer.counters
    for key in (
        "potential.atoms_built",
        "potential.kernel_pairs",
        "staircase.breakpoints",
        "staircase.x0_offsets",
    ):
        assert counters[key] > 0, key
    # one frostman measure for generation 3 and one for graph 5; the
    # certificates count on the square sets of cert_generations 3 and 4
    assert counters["potential.atoms_built"] == 4**3 + 4**5
