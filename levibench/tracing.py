"""Span tracing of levicheck's layer boundaries, installed from outside.

``Tracer.installed()`` replaces each traced function with a wrapper, in the
module or class that defines it and under every name another levicheck
module (or the benchmark's workload module) bound it to, and restores the
originals on exit.  A span records its name, start, end, parent span and
job id in flat arrays; counters computed from arguments and results sit at
the same boundaries.  ``pass_metrics`` turns one pass's spans into the
per-layer metrics.

levibench/README.md lists each metric and the end-to-end metric and workload
it should move.
"""

from __future__ import annotations

import functools
import math
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from levicheck import cli, fields, levi, mollify, potential, staircase

# metric stem -> (owner, attribute) pairs whose calls are its spans
LAYERS = {
    "fields.stencil": [
        (fields.ScalarField3, "gradient_fields"),
        (fields.ScalarField3, "hessian_fields"),
        (fields.ScalarField3, "wirtinger_fields"),
        (fields.ScalarField3, "fd_gradient"),
        (fields.ScalarField3, "fd_hessian"),
        (fields.ScalarField3, "complex_wirtinger"),
    ],
    "fields.disc_sample": [(fields.DiscField, "value")],
    "fields.circle_mean": [(fields, "circle_mean")],
    "fields.stable_sum": [(fields, "stable_sum")],
    "levi.levi_scan": [(levi, "levi_scan")],
    "levi.graph_levi_fields": [(levi, "graph_levi_fields")],
    "levi.delta_tau_fields": [(levi, "delta_tau_fields"), (levi, "delta_tau")],
    "levi.tau_fields": [(levi, "tau_fields")],
    "levi.scan_csv": [(levi.LeviScan, "to_csv")],
    "levi.green_identity": [(levi, "green_identity_report")],
    "levi.log_weights": [(levi, "_log_weights")],
    "mollify.case_build": [(mollify, "staircase_sweep_case")],
    "mollify.certificate": [(mollify, "mollified_sign_certificate")],
    "mollify.convolve3": [(mollify, "convolve3")],
    "staircase.build_cantor": [(staircase, "build_cantor")],
    "staircase.fat_F": [(staircase, "fat_F")],
    "staircase.find_x0": [(staircase, "find_x0")],
    "staircase.cap_build": [
        (staircase, "hartogs_staircase"),
        (staircase, "hartogs_ball_domain"),
    ],
    "staircase.scan": [(staircase, "subharmonicity_scan")],
    "potential.cap_build": [(potential, "zygmund_domain")],
    "potential.grid_values": [(potential.GreenPotential, "grid_values")],
    "potential.build": [(potential, "build_square_cantor")],
    "potential.measure": [(potential, "frostman_measure")],
    "potential.frostman": [(potential, "frostman_certificate")],
    "potential.box_dimension": [(potential, "box_dimension")],
    "potential.flux": [(potential, "disc_mass_recovery")],
    "cli.run_scenario": [(cli, "run_scenario")],
}

# stems reported as a call count next to their seconds
CALL_COUNTS = (
    "fields.disc_sample",
    "fields.circle_mean",
    "levi.delta_tau_fields",
    "levi.log_weights",
    "mollify.convolve3",
    "potential.grid_values",
)

# (owner, attribute) -> counter hook(counters, args, kwargs, result); every
# count is computed from arguments or results, never measured
_FLOAT_BYTES = 8


def _sum_into(key, measure):
    def hook(c, args, kwargs, result):
        c[key] += measure(args, result)
    return hook


def _count_grid_stencil(outputs):
    def hook(c, args, kwargs, result):
        nodes = args[0].values.size
        c["fields.stencil_nodes"] += nodes
        c["fields.stencil_bytes_computed"] += (1 + outputs) * nodes * _FLOAT_BYTES
    return hook


def _count_node_stencil(points, outputs):
    def hook(c, args, kwargs, result):
        c["fields.stencil_nodes"] += 1
        c["fields.stencil_bytes_computed"] += (points + outputs) * _FLOAT_BYTES
    return hook


def _count_convolve3(c, args, kwargs, result):
    radius = result.kernel.cell_radius
    taps = result.kernel.weights.size
    out_nodes = math.prod(n - 2 * radius for n in result.base.grid.extents)
    c["mollify.kernel_taps"] += taps
    c["mollify.conv_out_nodes"] += out_nodes
    c["mollify.direct_ops_computed"] += taps * out_nodes


HOOKS = {
    (fields.ScalarField3, "gradient_fields"): _count_grid_stencil(3),
    (fields.ScalarField3, "hessian_fields"): _count_grid_stencil(9),
    (fields.ScalarField3, "fd_gradient"): _count_node_stencil(6, 3),
    (fields.ScalarField3, "fd_hessian"): _count_node_stencil(19, 9),
    (fields, "stable_sum"): _sum_into("fields.stable_sum_values", lambda a, r: int(np.size(a[0]))),
    (mollify, "convolve3"): _count_convolve3,
    (staircase, "fat_F"): _sum_into("staircase.breakpoints", lambda a, r: len(r.xs)),
    (staircase, "find_x0"): _sum_into("staircase.x0_offsets", lambda a, r: r.offsets_checked),
    (staircase, "subharmonicity_scan"): _sum_into(
        "staircase.scan_nodes", lambda a, r: r.scanned_count()
    ),
    (potential.GreenPotential, "grid_values"): _sum_into(
        "potential.kernel_pairs", lambda a, r: len(a[0].measure.atoms) * r.size
    ),
    (potential, "frostman_measure"): _sum_into("potential.atoms_built", lambda a, r: len(r.atoms)),
    (potential, "box_dimension"): _sum_into(
        "potential.box_points", lambda a, r: len(a[0]) * len(r.scales)
    ),
}

_GRADIENT = {"gradient_fields", "fd_gradient"}
_HESSIAN = {"hessian_fields", "fd_hessian"}

COUNTERS = (
    "fields.stencil_nodes",
    "fields.stencil_bytes_computed",
    "fields.stable_sum_values",
    "mollify.kernel_taps",
    "mollify.conv_out_nodes",
    "mollify.direct_ops_computed",
    "staircase.x0_offsets",
    "staircase.breakpoints",
    "staircase.scan_nodes",
    "potential.kernel_pairs",
    "potential.atoms_built",
    "potential.box_points",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for stem in LAYERS:
        if stem == "cli.run_scenario":
            continue
        out.append((f"{stem}_s", "s", "lower"))
        out.append((f"{stem}_self_s", "s", "lower"))
        if stem in CALL_COUNTS:
            out.append((f"{stem}_calls", "count", "lower"))
    out += [
        ("fields.stencil_calls", "count", "lower"),
        ("fields.gradient_calls", "count", "lower"),
        ("fields.hessian_calls", "count", "lower"),
    ]
    out += [(name, "B" if name.endswith("bytes_computed") else "count", "lower") for name in COUNTERS]
    out += [
        ("potential.kernel_pairs_per_s", "1/s", "higher"),
        ("cli.run_scenario_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.report_drift", "count", "lower"),
        ("cli.jobs_failed", "count", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return out


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.stems: list[str] = []
        self.job_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans and counters; names and job ids persist."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.outer = array("b")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._depth: dict[str, int] = {}
        self.job_id = -1

    def _name_id(self, label: str, stem: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.span_names)
            self.span_names.append(label)
            self.stems.append(stem)
        return self._ids[label]

    def _open(self, name_id: int, outer: bool) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.outer.append(outer)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id: int, stem: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = tracer._depth.get(stem, 0)
            tracer._depth[stem] = depth + 1
            idx = tracer._open(name_id, depth == 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._depth[stem] = depth
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, namespaces):
        """Patch every traced function; ``namespaces`` are extra modules
        whose imported names are patched too."""
        modules = [fields, levi, mollify, potential, staircase, cli, *namespaces]
        undo = []
        try:
            for stem, targets in LAYERS.items():
                for owner, attr in targets:
                    original = owner.__dict__[attr]
                    label = f"{owner.__name__.removeprefix('levicheck.')}.{attr}"
                    nid = self._name_id(label, stem)
                    wrapped = self._wrap(original, nid, stem, HOOKS.get((owner, attr)))
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, original))
                    if isinstance(owner, type):
                        continue
                    for mod in modules:
                        if mod is not owner and mod.__dict__.get(attr) is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def job_span(self, job_name: str):
        """Root span of one job; every layer span below it carries its id."""
        self.job_id = len(self.job_names)
        self.job_names.append(job_name)
        idx = self._open(self._name_id("job", "job"), True)
        try:
            yield
        finally:
            self._close(idx)
            self.job_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
        }

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last clear().

        Inclusive seconds count only spans with no ancestor of the same
        stem; self seconds subtract the time covered by child spans.
        """
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        covered = np.zeros_like(dur)
        child = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][child], dur[child])
        self_time = dur - covered
        stem_of = np.array(self.stems, dtype=object)[spans["name"]]
        attr_of = np.array([n.rsplit(".", 1)[-1] for n in self.span_names], dtype=object)[
            spans["name"]
        ]
        outer = spans["outer"].astype(bool)

        out: dict[str, float] = {}
        for stem in LAYERS:
            mine = stem_of == stem
            self_name = "cli.self_s" if stem == "cli.run_scenario" else f"{stem}_self_s"
            out[f"{stem}_s"] = float(dur[mine & outer].sum())
            out[self_name] = float(self_time[mine].sum())
            if stem in CALL_COUNTS:
                out[f"{stem}_calls"] = int(mine.sum())
        stencil = stem_of == "fields.stencil"
        out["fields.stencil_calls"] = int((stencil & outer).sum())
        out["fields.gradient_calls"] = int((stencil & np.isin(attr_of, list(_GRADIENT))).sum())
        out["fields.hessian_calls"] = int((stencil & np.isin(attr_of, list(_HESSIAN))).sum())
        out.update(self.counters)
        grid_s = out["potential.grid_values_s"]
        out["potential.kernel_pairs_per_s"] = (
            out["potential.kernel_pairs"] / grid_s if grid_s > 0 else 0.0
        )
        out["trace.spans"] = int(dur.size)
        return out

    def write(self, path: Path, chunks: list[dict[str, np.ndarray]]) -> None:
        """Write the spans of every traced pass to one .npz file; parent
        indices are rebased onto the concatenated arrays."""
        offset = 0
        parents = []
        for chunk in chunks:
            parents.append(np.where(chunk["parent"] >= 0, chunk["parent"] + offset, -1))
            offset += chunk["parent"].size
        merged = {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}
        merged["parent"] = np.concatenate(parents)
        np.savez(
            path,
            span_names=np.array(self.span_names),
            job_names=np.array(self.job_names),
            **merged,
        )
