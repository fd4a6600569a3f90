"""Fixed composite Gauss-Legendre quadrature.

Every integral of a built-in kernel (the bump's normalisation, the moments
and the cosine transform) uses this rule: 64-point Gauss-Legendre panels,
each exact for polynomials up to degree 127.  The integrands are analytic on
the kernels' (truncated) supports, so the rule converges geometrically and
needs no error estimate or refinement.
"""

from __future__ import annotations

import numpy as np

PANELS = 64  # integrate()'s panel count, enough for every built-in kernel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b] with equal panels."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _NODES).ravel()
    return nodes, np.tile(half * _WEIGHTS, panels)


def integrate(f, a: float, b: float) -> float:
    """Integral of the vectorised callable f on [a, b] over ``PANELS`` panels."""
    if not b > a:
        raise ValueError(f"integration bounds must satisfy b > a, got [{a}, {b}]")
    nodes, weights = rule(a, b, PANELS)
    return float(np.asarray(f(nodes), dtype=float) @ weights)
