"""The benchmark's span tracer still finds every name it wraps.

``levibench/tracing.py`` looks each traced (owner, attribute) pair up in
``owner.__dict__``, so deleting or renaming a traced library name breaks
``levibench/run.py --trace 1``.  The tracer module is loaded read-only from
its file; nothing in it is changed here.
"""

import importlib.util
from pathlib import Path

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
