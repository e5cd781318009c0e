"""Report tables as the library results once serialized them, kept as
oracles of the scenario runners that now build those tables.

Each body is the deleted method's, verbatim but for ``self`` becoming an
argument (and ``self.violation_alignment()`` the call
``violation_alignment(self)``): ``CertificateReport.to_json`` with the
fields it read and the lines of ``mollified_sign_certificate`` that set
them, ``X0Certificate.to_json`` with the ``_number_str`` it called,
``SubharmonicityScan.summary``/``violation_alignment`` and
``LeviScan.summary``.  An old runner's table was ``json.loads`` of a
``to_json`` string, or a ``summary()`` dict, before ``cli._plain``.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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


def violation_alignment(self) -> dict:
    """Distance statistics of the violating set relative to the segment
    (maxima 0.0 when no node violates)."""
    _, _, _, dh, de = self.violators()
    return {
        "count": int(dh.size),
        "max_horizontal": float(np.max(dh, initial=0.0)),
        "max_euclidean": float(np.max(de, initial=0.0)),
        "within_2h": bool(np.max(dh, initial=0.0) <= self.reach_2h),
    }


def scan_summary(self) -> dict:
    out = {
        "kind": self.domain.kind,
        "spacing": self.domain.spacing,
        "scan_radius": self.scan_radius,
        "scanned_count": self.scanned_count(),
        "violating_count": self.violating_count(),
        "max_laplacian": self.max_laplacian(),
    }
    if self.domain.kind == "staircase":
        out["far_field_max"] = self.far_field_max()
        out["alignment"] = violation_alignment(self)
        out.update(self._threshold_report())
    if self.mean_checks is not None:
        out["mean_checks"] = self.mean_checks
    return out


def levi_summary(self) -> dict:
    vals = np.where(self.finite_mask, self.values, np.inf)
    node = np.unravel_index(np.argmin(vals), vals.shape)
    out = {"min": float(self.values[node]), "argmin": self._coords(node), "tol": self.tol}
    out.update(self.counts())
    return out
