"""Numerical verification toolkit for pseudoconvexity machinery in C^2.

Subpackages / modules:
    fields     grids, scalar fields, finite differences, disc sampling
    levi       Levi forms, degenerate-elliptic operators, defining functions
    staircase  devil's-staircase constructions and Hartogs-type domains
    mollify    mollification and mollified sign certificates
    potential  planar Cantor sets, Riesz/Green potentials, dimension probes
    cli        scenario runner
"""

from levicheck.fields import (
    DiscField,
    DomainError,
    Grid3,
    ScalarField3,
    StencilError,
)

__all__ = [
    "DiscField",
    "DomainError",
    "Grid3",
    "ScalarField3",
    "StencilError",
]

__version__ = "0.1.0"
