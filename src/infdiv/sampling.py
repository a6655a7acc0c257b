"""Random matrix sampling for searches and property suites.

The tilt-like sampler is the documented scheme behind every randomized scan:

    M = G^t G / |G^t G|_2 + jitter * I,   G standard normal n x n,

then rescaled to unit spectral radius. Normalizing before the jitter biases
toward ill-conditioned matrices near the boundary of the cone, which is where
the interesting cases live; the jitter keeps Cholesky safely feasible.

A whole stack of matrices is drawn at once with `size`, as in numpy: one
standard_normal(size + (n, n)) draw is the same stream as the sequential
draws, and every matrix of the stack has the bits of its own call.
"""

from __future__ import annotations

import numpy as np

from . import matcore


def random_tilt_like(gen: np.random.Generator, n: int = 4, jitter: float = 1e-3,
                     size=()) -> np.ndarray:
    """One tilt-like n x n matrix, or a size + (n, n) stack of them (size an
    int or a tuple)."""
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    g = gen.standard_normal(shape + (n, n))
    m = matcore.symmetrize(np.swapaxes(g, -1, -2) @ g)
    m = m / matcore.top_eigenvalue(m)[..., None, None] + jitter * np.eye(n)
    return m / matcore.top_eigenvalue(m)[..., None, None]


def random_covariance(gen: np.random.Generator, n: int, jitter: float = 1e-2) -> np.ndarray:
    """Well-conditioned positive definite matrix, suitable as a covariance."""
    g = gen.standard_normal((n, n))
    return matcore.symmetrize(g.T @ g / n + jitter * np.eye(n))
