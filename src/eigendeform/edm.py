"""Eigen-deformation modes: mass-weighted SVD of eigenmode variation.

For a tracked mode chain, the deviation of each sampled mode from the
parameter-averaged mean is collected into a data matrix, weighted by the
factor F of the mass matrix (FᵀF = E, see ``numerics.MassFactor``) so that
Euclidean norms become physically meaningful, and factorized by an SVD.  The
leading left singular vectors, mapped back by F⁻¹, are an E-orthonormal
basis for how the mode deforms across the parameter range; the scaled right
singular vectors are the per-sample coordinates in that basis and are what
gets interpolated to obtain modes at unsampled parameters.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import make_interp_spline

from .modal import ModeDatabase
from .numerics import MassFactor, truncated_svd


class OutOfDomainError(ValueError):
    """Requested parameter lies outside the sampled interval."""


_SPLINE_DEGREE = {"linear": 1, "cubic": 3}


@lru_cache(maxsize=64)
def _cardinal_weights(grid: bytes, k: int):
    """Map μ to the weights w that make ``values @ w`` the degree-k spline interpolant.

    Splines are linear in the sampled values, so w is the spline through the
    unit vectors on the grid: two hat functions for k = 1, else one spline of
    the identity, built here once per grid and degree.
    """
    x = np.frombuffer(grid)
    if not np.all(np.diff(x) > 0):
        raise ValueError("sample parameters must be strictly increasing")
    if k != 1:
        return make_interp_spline(x, np.eye(x.size), k=k)
    knots = x.tolist()

    def hat_weights(mu: float) -> np.ndarray:
        j = min(bisect_right(knots, mu), len(knots) - 1)  # knots[j-1] <= mu <= knots[j]
        t = (mu - knots[j - 1]) / (knots[j] - knots[j - 1])
        w = np.zeros(len(knots))
        w[j - 1], w[j] = 1.0 - t, t
        return w

    return hat_weights


def interpolate_columns(sample_mus, values, mu: float, scheme: str = "linear"):
    """Interpolate the columns of ``values`` (rows, p) at one parameter value.

    Shared machinery for every interpolation in the package: mode chains in
    physical space, deformation coefficients, eigenvalues, and trajectory
    snapshots all go through here.  ``scheme`` is "linear" or "cubic"; the
    spline degree degrades gracefully when fewer than degree+1 samples exist.
    A query costs one weight vector on the sample grid and one product
    ``values @ w``.  Extrapolation is refused.
    """
    sample_mus = np.asarray(sample_mus, dtype=float)
    values = np.atleast_2d(np.asarray(values))
    if scheme not in _SPLINE_DEGREE:
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    if not sample_mus[0] <= mu <= sample_mus[-1]:
        raise OutOfDomainError(
            f"parameter {mu} outside the sampled interval "
            f"[{sample_mus[0]}, {sample_mus[-1]}]"
        )
    k = min(_SPLINE_DEGREE[scheme], sample_mus.size - 1)
    return values @ _cardinal_weights(sample_mus.tobytes(), k)(mu)


@dataclass(frozen=True)
class EdmBasis:
    """Low-order representation of one eigenmode's deformation with the parameter.

    ``edms`` holds r E-orthonormal deformation directions; ``coefficients`` is
    the (r, p) block of coordinates at the p >= 2 parameters ``sample_mus``,
    checked when the basis is made; ``singular_values`` keeps the full
    spectrum of the weighted data matrix so energy fractions at any rank
    remain computable after truncation.
    """

    mode_index: int
    mean_mode: np.ndarray  # (n,)
    edms: np.ndarray  # (n, r)
    singular_values: np.ndarray  # (min(n, p),)
    coefficients: np.ndarray  # (r, p)
    sample_mus: np.ndarray  # (p,)

    def __post_init__(self):
        mus = self.sample_mus
        if mus is None:
            raise ValueError("basis carries no sample parameters to interpolate against")
        mus = np.asarray(mus, dtype=float)
        if mus.size < 2:
            raise ValueError("need at least 2 samples to interpolate")
        if mus.shape != self.coefficients.shape[1:]:
            raise ValueError(f"{mus.size} sample parameters do not fit coefficients {self.coefficients.shape}")
        object.__setattr__(self, "sample_mus", mus)

    @property
    def rank(self) -> int:
        return self.edms.shape[1]


def build_data_matrix(db: ModeDatabase, i: int, which: str = "right"):
    """Mean mode of chain i and the matrix of per-sample deviations from it.

    Averaging modes with inconsistent signs or phases is meaningless, so an
    unaligned database is refused.  Columns of the returned matrix sum to zero
    by construction.  ``which`` selects the right or left mode family.
    """
    if not (db.paired and db.aligned):
        raise ValueError("database must be paired and aligned before averaging modes")
    if not 0 <= i < db.m:
        raise ValueError(f"mode index {i} out of range [0, {db.m})")
    if which == "right":
        block = db.right_block(i)
    elif which == "left":
        block = db.left_block(i)
        if block is None:
            raise ValueError("database stores no left modes")
    else:
        raise ValueError(f"unknown mode family {which!r}")
    mean = block.mean(axis=1)
    return mean, block - mean[:, None]


def compute_edms(
    mean_mode,
    data,
    mass_factor: MassFactor,
    rank: int | None = None,
    energy: float | None = None,
    *,
    mode_index: int,
    sample_mus,
) -> EdmBasis:
    """Extract the deformation basis of chain ``mode_index`` from its deviations at ``sample_mus``.

    The data is weighted by the mass factor F, factorized by SVD, and the
    retained left singular vectors are mapped back by ``F.solve`` (a scaling
    for a diagonal mass, a triangular solve for a dense one), which keeps the
    deformation modes E-orthonormal without ever forming an inverse.  The
    rank is either given explicitly or chosen as the smallest value whose
    energy fraction reaches ``energy`` (default 0.999).
    """
    mean_mode = np.asarray(mean_mode)
    data = np.asarray(data)
    weighted = mass_factor @ data
    kmax = min(weighted.shape)
    u_full, s, vh_full = truncated_svd(weighted, kmax)

    if rank is None:
        rank = select_rank(s, 0.999 if energy is None else energy)
    if not 0 <= rank <= kmax:
        raise ValueError(f"rank {rank} out of range [0, {kmax}]")

    coefficients = s[:rank, None] * vh_full[:rank, :]
    return EdmBasis(
        mode_index=mode_index,
        mean_mode=mean_mode,
        edms=mass_factor.solve(u_full[:, :rank]),
        singular_values=s,
        coefficients=coefficients,
        sample_mus=sample_mus,
    )


def check_basis(basis: EdmBasis, db: ModeDatabase, i: int, name="EDM basis", mode="mode", database="the database"):
    """Raise ValueError unless ``basis`` was built from chain i of ``db``: same mode, row count and sample grid."""
    if basis.mode_index != i:
        raise ValueError(f"{name} holds mode {basis.mode_index + 1}, not {mode} {i + 1}")
    if basis.mean_mode.shape[0] != db.n:
        raise ValueError(f"{name} has {basis.mean_mode.shape[0]} rows, {database} has n={db.n}")
    # bitwise, as the interpolation weights are cached per grid
    if basis.sample_mus.tobytes() != db.mus.tobytes():
        raise ValueError(f"{name} was built on other sample parameters than {database}")


def extract_edm_basis(
    db: ModeDatabase,
    i: int,
    rank: int | None = None,
    energy: float | None = None,
    which: str = "right",
) -> EdmBasis:
    """Build the deformation basis of mode chain i directly from a database."""
    mean, data = build_data_matrix(db, i, which=which)
    return compute_edms(
        mean,
        data,
        db.mass_factor,
        rank=rank,
        energy=energy,
        mode_index=i,
        sample_mus=db.mus,
    )


def energy_fraction(singular_values, r: int) -> float:
    """Fraction of energy captured by the r leading singular values.

    Defined as the ratio of plain singular-value sums (not squares): 0 at
    r = 0 and exactly 1 when every nonzero value is retained.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("expected a non-empty vector of singular values")
    if np.any(s < 0) or np.any(np.diff(s) > 1e-12 * max(s[0], 1.0)):
        raise ValueError("singular values must be non-negative and non-increasing")
    if not 0 <= r <= s.size:
        raise ValueError(f"r={r} out of range [0, {s.size}]")
    total = s.sum()
    if total == 0.0:
        raise ValueError("energy fraction undefined: all singular values are zero")
    return float(s[:r].sum() / total)


def select_rank(singular_values, threshold: float = 0.999) -> int:
    """Smallest rank whose energy fraction reaches the threshold."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1]")
    s = np.asarray(singular_values, dtype=float)
    energy_fraction(s, s.size)  # validates once
    fractions = np.cumsum(s) / s.sum()
    # the fraction reaches 1 at full rank, whatever the rounding of the cumsum
    return min(int(np.searchsorted(fractions, threshold)) + 1, s.size)


def interpolate_mode(basis: EdmBasis, mu: float, scheme: str = "linear") -> np.ndarray:
    """Mode shape at an unsampled parameter from interpolated deformation coordinates.

    Interpolates the r stored coefficient trajectories at μ and reconstructs
    mean + EDMs · coefficients, an affine map of an r-dimensional interpolation
    instead of an n-dimensional one.
    """
    coeff = interpolate_columns(basis.sample_mus, basis.coefficients, mu, scheme)
    return basis.mean_mode + basis.edms @ coeff


def direct_interpolate(db: ModeDatabase, i: int, mu: float, scheme: str = "linear") -> np.ndarray:
    """Componentwise interpolation of the aligned mode chain in physical space."""
    if not (db.paired and db.aligned):
        raise ValueError("database must be paired and aligned before interpolation")
    if not 0 <= i < db.m:
        raise ValueError(f"mode index {i} out of range [0, {db.m})")
    return interpolate_columns(db.mus, db.right_block(i), mu, scheme)


def interpolation_error(truth, predicted, mass_factor: MassFactor) -> float:
    """Relative mass-weighted misfit ‖F(truth − predicted)‖ / ‖F truth‖ of a predicted mode."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {predicted.shape}")
    denom = np.linalg.norm(mass_factor @ truth)
    if denom == 0.0:
        raise ValueError("reference mode has zero norm")
    return float(np.linalg.norm(mass_factor @ (truth - predicted)) / denom)
