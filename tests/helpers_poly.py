"""Trivariate polynomial test fields with exact derivatives, and whole-grid
derivative arrays filled node by node as an oracle for the stencils."""

import itertools

import numpy as np


def node_derivatives(field):
    """(gradient, Hessian) arrays of a ScalarField3 in the layout of
    gradient_fields and hessian_fields, filled node by node from fd_gradient
    and fd_hessian; NaN on the ring."""
    shape = field.values.shape
    grad = np.full((3,) + shape, np.nan)
    hess = np.full((3, 3) + shape, np.nan)
    for node in itertools.product(*(range(1, n - 1) for n in shape)):
        grad[(slice(None),) + node] = field.fd_gradient(node)
        hess[(slice(None), slice(None)) + node] = field.fd_hessian(node)
    return grad, hess


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
