"""DiscField node helpers that only tests use: the |z| < 1 node mask
and the coordinates of a node, as the library once defined them."""

import numpy as np


def disc_inside(g):
    """Mask of the nodes of g with |z| < 1."""
    gx, gy = g.meshes()
    return np.hypot(gx, gy) < 1.0


def disc_node_coords(g, node) -> tuple[float, float]:
    """(x, y) of the node (i, j) of g."""
    i, j = (int(n) for n in node)
    return (g.spacing * (i - g.half), g.spacing * (j - g.half))
