"""Report tables as the library results once serialized them, kept as
oracles of the scenario runners that now build those tables.

Each body is the deleted method's, verbatim but for ``self`` becoming an
argument (and ``self.violation_alignment()`` the call
``violation_alignment(self)``): ``CertificateReport.to_json`` with the
fields it read and the lines of ``mollified_sign_certificate`` that set
them, ``X0Certificate.to_json`` with the ``_number_str`` it called,
``SubharmonicityScan.summary``/``violation_alignment`` and
``LeviScan.summary``.  An old runner's table was ``json.loads`` of a
``to_json`` string, or a ``summary()`` dict, before ``_plain``.

The scan's table members (``max_laplacian``, ``far_field_max``,
``reach_2h``, ``_threshold_report`` with ``_ball_laplacian_modulus_sup``,
and the ``mean_checks`` dict ``subharmonicity_scan`` once stored) are
functions here, computed from the scan's arrays as the deleted members
did.  The scan now holds only its Laplacian, so what it once stored
besides comes in as arguments: the cap, its kind, the staircase's
``params`` and the per-column distances ``dist_x``, which
``column_distances`` builds as the scan once did.  ``scan_summary`` also
takes the scan radius.  ``_plain``, the recursive converter reports went
through before ``json`` got a ``default`` hook, is kept verbatim as the
hook's oracle.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from levicheck.cli import _FAR_FIELD, _violators
from levicheck.staircase import interval_distance, segment_mean_excess


def _plain(value):
    """Recursively convert to JSON-stable builtin types."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    return value


@dataclass(frozen=True)
class CertificateReport:
    epsilon: float
    alpha: float
    p: float
    deltas: tuple[float, ...]
    m_values: tuple[float, ...]
    fitted_slope: float
    passed: bool
    rate_target: float
    hypothesis_min: float
    reduced_axes: tuple[int, ...]

    def to_json(self) -> str:
        payload = {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "p": self.p,
            "deltas": list(self.deltas),
            "m_values": list(self.m_values),
            "fitted_slope": self.fitted_slope,
            "pass": self.passed,
            "reduced_axes": list(self.reduced_axes),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def certificate_report(report, alpha, p, epsilon, deltas) -> CertificateReport:
    """The full result mollified_sign_certificate returned when it took
    alpha, p and epsilon, around the fields its result keeps."""
    alpha = float(alpha)
    p = float(p)
    epsilon = float(epsilon)
    deltas = tuple(float(d) for d in deltas)
    m_arr = np.array(report.m_values)
    return CertificateReport(
        epsilon=epsilon,
        alpha=alpha,
        p=p,
        deltas=deltas,
        m_values=tuple(report.m_values),
        fitted_slope=report.fitted_slope,
        passed=bool(np.all(m_arr >= -epsilon)),
        rate_target=alpha - 3.0 / p,
        hypothesis_min=report.hypothesis_min,
        reduced_axes=report.reduced_axes,
    )


def _number_str(fr: Fraction) -> str:
    """Shortest exact decimal for a rational.

    Round-trip float repr when the value is exactly a float, full decimal
    expansion for other dyadic rationals, float approximation otherwise.
    """
    try:
        as_float = float(fr)
    except OverflowError:
        as_float = None
    if as_float is not None and Fraction(as_float) == fr:
        return repr(as_float)
    den = fr.denominator
    k = den.bit_length() - 1
    if den == 1 << k:
        num = fr.numerator * 5**k
        sign = "-" if num < 0 else ""
        digits = str(abs(num)).rjust(k + 1, "0")
        if k == 0:
            return sign + digits
        head, tail = digits[:-k], digits[-k:]
        return f"{sign}{head}.{tail}"
    return repr(float(fr))


def x0_certificate_to_json(self) -> str:
    payload = {
        "x0": _number_str(self.x0),
        "growth": _number_str(self.growth),
        "delta0": _number_str(self.delta0),
        "g_min": _number_str(self.g_min),
        "offsets_checked": self.offsets_checked,
        "left_gap": None
        if self.left_gap is None
        else [_number_str(self.left_gap[0]), _number_str(self.left_gap[1])],
        "left_defect": _number_str(self.left_defect),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def column_distances(cap, columns) -> np.ndarray:
    """Per grid column x, the horizontal distance to the kept ``columns``
    of the segment, all NaN without a segment (the ball and the Cantor cap)."""
    xs = cap.axis()
    return interval_distance(xs, columns) if columns else np.full(xs.shape, np.nan)


def max_laplacian(self) -> float:
    vals = self.laplacian[self.scanned]
    return float(np.max(vals)) if vals.size else float("nan")


def far_field_max(self, dist_x) -> float:
    """Max Laplacian over scanned nodes at horizontal distance > _FAR_FIELD."""
    vals = self.laplacian[self.scanned & (dist_x[:, None] > _FAR_FIELD)]
    return float(np.max(vals)) if vals.size else float("nan")


def reach_2h(spacing) -> float:
    """The horizontal distance 2h the violations must lie within, plus float slack."""
    return 2.0 * spacing + 1e-12


def _ball_laplacian_modulus_sup(center_radius: float, radius: float) -> float:
    """Sup of |Laplacian of (1/2) log(1 - |z|^2)| = 2/(1 - |z|^2)^2 nearby.

    The modulus is radial and increasing, so the sup over a disc of the
    given radius around a point sits at the largest radius reached.
    """
    r = min(center_radius + radius, 0.999)
    return 2.0 / (1.0 - r * r) ** 2


def threshold_report(params) -> dict:
    """Smooth-part mean-comparison constant and the growth it demands."""
    p = params
    c3 = 0.25 * _ball_laplacian_modulus_sup(abs(p["z0_real"]), 0.02)
    c1 = p["c1"]
    threshold = 4.0 * c3 / c1 + 0.5
    growth = p["growth"]
    return {
        "empirical_c3": c3,
        "implied_growth_threshold": threshold,
        "growth": growth,
        "growth_below_threshold": bool(growth < threshold),
    }


def mean_checks(radius, excess) -> dict:
    """The segment's circle-mean checks as subharmonicity_scan stored them."""
    return {
        "radius": radius,
        "nodes": int(excess.size),
        "positive": int(np.count_nonzero(excess > 0.0)),
        "max_excess": float(np.max(excess)) if excess.size else float("nan"),
    }


def violation_alignment(violators, spacing) -> dict:
    """Distance statistics of the violating set relative to the segment
    (maxima 0.0 when no node violates)."""
    _, _, _, dh, de = violators
    return {
        "count": int(dh.size),
        "max_horizontal": float(np.max(dh, initial=0.0)),
        "max_euclidean": float(np.max(de, initial=0.0)),
        "within_2h": bool(np.max(dh, initial=0.0) <= reach_2h(spacing)),
    }


def scan_summary(self, scan_radius, kind, cap, dist_x, params=None) -> dict:
    out = {
        "kind": kind,
        "spacing": cap.spacing,
        "scan_radius": scan_radius,
        "scanned_count": self.scanned_count(),
        "violating_count": self.violating_count(),
        "max_laplacian": max_laplacian(self),
    }
    if kind == "staircase":
        out["far_field_max"] = far_field_max(self, dist_x)
        violators = _violators(cap.axis(), self.laplacian, dist_x)
        out["alignment"] = violation_alignment(violators, cap.spacing)
        out.update(threshold_report(params))
        out["mean_checks"] = mean_checks(*segment_mean_excess(cap, self.laplacian, dist_x))
    return out


def levi_summary(self) -> dict:
    vals = np.where(self.finite_mask, self.values, np.inf)
    node = np.unravel_index(np.argmin(vals), vals.shape)
    out = {"min": float(self.values[node]), "argmin": self._coords(node), "tol": self.tol}
    out.update(self.counts())
    return out
