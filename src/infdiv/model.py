"""Model objects: covariance with block split, the tilt matrix, and the
delta/epsilon example families.

The central construction is the tilt of a covariance Sigma at parameter a > 0:

    T = I - (I + a*Sigma)^(-1)

T shares eigenvectors with Sigma and maps each eigenvalue lambda to
a*lambda/(1+a*lambda), so T is positive definite with spectrum in (0, 1).
All word-trace machinery downstream consumes T (or any symmetric matrix with
the same block split).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DegenerateInput, NotPositiveDefinite

# "sufficiently large a" is operationalized as a finite grid; callers get
# per-a reports and no universal claim is ever made from it
A_GRID_DEFAULT = (1.0, 10.0, 100.0, 1000.0, 10000.0)


@dataclass(frozen=True)
class BlockMatrix:
    """A symmetric matrix with a fixed 2-block partition (n1 + n2 rows).

    b12 == b21.T holds exactly because the full matrix is exactly symmetric.
    """

    full: np.ndarray
    n1: int
    n2: int

    @classmethod
    def from_array(cls, m, n1: int) -> "BlockMatrix":
        a = matcore.symmetrize(m)
        n = a.shape[0]
        if not 1 <= n1 < n:
            raise ValueError(f"n1 must be in [1, {n - 1}], got {n1}")
        return cls(full=a, n1=n1, n2=n - n1)

    @property
    def dim(self) -> int:
        return self.n1 + self.n2

    @property
    def b11(self) -> np.ndarray:
        return self.full[: self.n1, : self.n1]

    @property
    def b12(self) -> np.ndarray:
        return self.full[: self.n1, self.n1 :]

    @property
    def b21(self) -> np.ndarray:
        return self.full[self.n1 :, : self.n1]

    @property
    def b22(self) -> np.ndarray:
        return self.full[self.n1 :, self.n1 :]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [float(x) for x in self.full.ravel()],
            "n1": self.n1,
        }


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance Sigma with block sizes (n1, n2) and tilt parameter a > 0."""

    sigma: matcore.SymMatrix
    n1: int
    n2: int
    a: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("block sizes must be >= 1")
        if self.n1 + self.n2 != self.sigma.dim:
            raise ValueError(
                f"n1 + n2 = {self.n1 + self.n2} != sigma.dim = {self.sigma.dim}"
            )
        if not self.a > 0:
            raise ValueError(f"tilt parameter a must be > 0, got {self.a}")
        if not matcore.is_positive_definite(self.sigma.entries):
            raise NotPositiveDefinite("sigma is not positive definite")

    @classmethod
    def from_json(cls, obj: dict) -> "CovarianceModel":
        return cls(
            sigma=matcore.SymMatrix.from_json(obj["sigma"]),
            n1=int(obj["n1"]),
            n2=int(obj["n2"]),
            a=float(obj.get("a", 1.0)),
        )

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "n1": self.n1,
            "n2": self.n2,
            "a": self.a,
        }

    def with_a(self, a: float) -> "CovarianceModel":
        return CovarianceModel(sigma=self.sigma, n1=self.n1, n2=self.n2, a=a)


def tilt_matrix(model: CovarianceModel) -> BlockMatrix:
    """T = I - (I + a*Sigma)^(-1), partitioned like the model."""
    n = model.sigma.dim
    inner = np.eye(n) + model.a * model.sigma.entries
    t = np.eye(n) - matcore.inverse_spd(inner)
    return BlockMatrix.from_array(t, model.n1)


def invert_blocks(model: CovarianceModel) -> BlockMatrix:
    """Sigma^(-1) with the same (n1, n2) partition."""
    inv = matcore.inverse_spd(model.sigma.entries)
    return BlockMatrix.from_array(inv, model.n1)


def scale_to_unit_spectral_radius(m: BlockMatrix) -> BlockMatrix:
    """Divide by the largest eigenvalue so the result has lambda_max == 1."""
    top = matcore.top_eigenvalue(m.full)
    if top <= 0.0:
        raise DegenerateInput(f"largest eigenvalue is {top}, cannot scale")
    return BlockMatrix.from_array(m.full / top, m.n1)


@dataclass(frozen=True)
class DeltaEpsilonFamily:
    """The two-parameter 4x4 families used as worked examples and tests.

    kind "tilt": the matrix plays the role of a tilt matrix T; the pattern is

        [q1   0   eps  eps]
        [0    q2  eps  -delta]
        [eps  eps q3   0]
        [eps  -delta 0 q4]

    kind "precision": the matrix is an inverse covariance; -delta sits at
    (1,3)/(3,1) instead and the off-diagonal block is the row-and-column
    swap of the tilt pattern.

    Orderings diag[0] > diag[1] and diag[2] > diag[3] are required strictly;
    tie cases belong to the general criteria machinery, not to the families.
    """

    kind: str
    diag: tuple[float, float, float, float]
    delta: float
    epsilon: float

    def __post_init__(self):
        if self.kind not in ("tilt", "precision"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        d = self.diag
        if len(d) != 4 or min(d) <= 0:
            raise ValueError("diag must be 4 positive reals")
        if not (d[0] > d[1] and d[2] > d[3]):
            raise ValueError("need diag[0] > diag[1] and diag[2] > diag[3] strictly")
        if not (self.delta > 0 and self.epsilon > 0):
            raise ValueError("delta and epsilon must be positive")

    @classmethod
    def from_json(cls, obj: dict) -> "DeltaEpsilonFamily":
        return cls(
            kind=str(obj["kind"]),
            diag=tuple(float(x) for x in obj["diag"]),
            delta=float(obj["delta"]),
            epsilon=float(obj["epsilon"]),
        )


def materialize(family: DeltaEpsilonFamily) -> BlockMatrix:
    """Write out the family pattern as a concrete 4x4 BlockMatrix."""
    d1, d2, d3, d4 = family.diag
    de, ep = family.delta, family.epsilon
    if family.kind == "tilt":
        m = np.array(
            [
                [d1, 0.0, ep, ep],
                [0.0, d2, ep, -de],
                [ep, ep, d3, 0.0],
                [ep, -de, 0.0, d4],
            ]
        )
    else:
        m = np.array(
            [
                [d1, 0.0, -de, ep],
                [0.0, d2, ep, ep],
                [-de, ep, d3, 0.0],
                [ep, ep, 0.0, d4],
            ]
        )
    return BlockMatrix.from_array(m, 2)
