"""Trivariate polynomial test fields with exact derivatives, and oracles
written apart from the library: the central-difference stencil element by
element at one node, whole-grid derivative arrays filled node by node from
it, the real T-table of Delta_tau, and a least-squares positive scale."""

import itertools

import numpy as np

from levicheck.levi import ConsistencyError


def node_gradient(field, node):
    """Central-difference gradient of a ScalarField3 at an interior node,
    term by term: the stencil that fd_gradient and the whole-grid passes
    must reproduce bit for bit."""
    i, j, k = node
    v, h = field.values, field.grid.spacing
    return (
        float(v[i + 1, j, k] - v[i - 1, j, k]) / (2.0 * h),
        float(v[i, j + 1, k] - v[i, j - 1, k]) / (2.0 * h),
        float(v[i, j, k + 1] - v[i, j, k - 1]) / (2.0 * h),
    )


def node_hessian(field, node):
    """Central-difference Hessian of a ScalarField3 at an interior node,
    term by term (3-point pure, 4-point mixed entries), as for node_gradient."""
    i, j, k = node
    v, h = field.values, field.grid.spacing
    hh = h * h
    out = np.empty((3, 3))
    out[0, 0] = (v[i + 1, j, k] - 2.0 * v[i, j, k] + v[i - 1, j, k]) / hh
    out[1, 1] = (v[i, j + 1, k] - 2.0 * v[i, j, k] + v[i, j - 1, k]) / hh
    out[2, 2] = (v[i, j, k + 1] - 2.0 * v[i, j, k] + v[i, j, k - 1]) / hh
    out[0, 1] = out[1, 0] = (
        v[i + 1, j + 1, k] - v[i + 1, j - 1, k] - v[i - 1, j + 1, k] + v[i - 1, j - 1, k]
    ) / (4.0 * hh)
    out[0, 2] = out[2, 0] = (
        v[i + 1, j, k + 1] - v[i + 1, j, k - 1] - v[i - 1, j, k + 1] + v[i - 1, j, k - 1]
    ) / (4.0 * hh)
    out[1, 2] = out[2, 1] = (
        v[i, j + 1, k + 1] - v[i, j + 1, k - 1] - v[i, j - 1, k + 1] + v[i, j - 1, k - 1]
    ) / (4.0 * hh)
    return out


def node_derivatives(field):
    """(gradient, Hessian) arrays of a ScalarField3 in the layout of
    gradient_fields and hessian_fields, filled node by node from
    node_gradient and node_hessian; NaN on the ring."""
    shape = field.values.shape
    grad = np.full((3,) + shape, np.nan)
    hess = np.full((3, 3) + shape, np.nan)
    for node in itertools.product(*(range(1, n - 1) for n in shape)):
        grad[(slice(None),) + node] = node_gradient(field, node)
        hess[(slice(None), slice(None)) + node] = node_hessian(field, node)
    return grad, hess


def t_matrix(tau1, tau2):
    """Real symmetric coefficient table T_jk of Delta_tau in xi coordinates:
    Delta_tau v = T_00 v_00 + T_11 v_11 + T_22 v_22 + T_01 v_01 + T_02 v_02,
    v_jk = d2v/dxi_j dxi_k (each mixed entry taken once)."""
    tau1, tau2 = complex(tau1), complex(tau2)
    cross = tau1.conjugate() * tau2
    t = np.zeros((3, 3))
    t[0, 0] = tau1.real * tau1.real + tau1.imag * tau1.imag
    t[1, 1] = t[2, 2] = 0.25 * (tau2.real * tau2.real + tau2.imag * tau2.imag)
    t[0, 1] = t[1, 0] = cross.imag
    t[0, 2] = t[2, 0] = -cross.real
    return t


def fit_positive_scale(a, b):
    """Least-squares positive scalar s minimizing ||a - s b||_2."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = float(np.dot(b, b))
    if denom == 0.0:
        raise ValueError("cannot fit a scale against the zero vector")
    s = float(np.dot(a, b)) / denom
    if s <= 0.0:
        raise ConsistencyError(f"fitted scale {s} is not positive", where="fit_positive_scale")
    return s


class Poly3:
    """sum of coeff * xi1^a xi2^b xi3^c with exact partial derivatives."""

    def __init__(self, terms):
        self.terms = {tuple(int(x) for x in e): float(c) for e, c in terms.items() if c != 0.0}

    def __call__(self, x1, x2, x3):
        out = np.zeros(np.broadcast(x1, x2, x3).shape, dtype=float)
        for (a, b, c), co in self.terms.items():
            out = out + co * (np.asarray(x1) ** a) * (np.asarray(x2) ** b) * (np.asarray(x3) ** c)
        return out

    def value(self, xi):
        return float(self(xi[0], xi[1], xi[2]))

    def diff(self, axis):
        out = {}
        for e, co in self.terms.items():
            if e[axis] == 0:
                continue
            e2 = list(e)
            e2[axis] -= 1
            key = tuple(e2)
            out[key] = out.get(key, 0.0) + co * e[axis]
        return Poly3(out)

    def grad(self, xi):
        return np.array([self.diff(ax).value(xi) for ax in range(3)])

    def hess(self, xi):
        return np.array(
            [[self.diff(a).diff(b).value(xi) for b in range(3)] for a in range(3)]
        )

    @staticmethod
    def random(rng, degrees=(2, 3), cmax=1.0):
        """Random polynomial whose monomials all have total degree in `degrees`
        (no constant/linear part, so the gradient vanishes at 0 when 1 is excluded)."""
        terms = {}
        for a in range(4):
            for b in range(4 - a):
                for c in range(4 - a - b):
                    if a + b + c in degrees:
                        terms[(a, b, c)] = rng.uniform(-cmax, cmax)
        return Poly3(terms)
