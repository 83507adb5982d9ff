"""Desk-scale generators for parameterized full-order systems.

The generators build small systems E ẋ = A(μ) x + b(μ) whose operator depends
on a single scalar parameter: a finite-volume heat rod whose right-end film
coefficient is the parameter, and an anchored spring chain with a movable
stiffness defect.  A helper converts second-order mechanical systems to first
order, and `equilibrium` computes the steady state used as linearization
point.  Operators and mass matrices are ``scipy.sparse`` CSR arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .numerics import SingularMatrixError, solve_linear


# smallest capacitance |γ| / max(1, |θ vᵀA(μ_ref)⁻¹u|) the affine equilibrium accepts;
# below it the update would lose more than three digits to cancellation in γ
CAPACITANCE_TOL = 1e-3


class GeneratorError(ValueError):
    """Invalid generator arguments."""


class EquilibriumError(ValueError):
    """The steady state A(μ) x̄ = −b is not defined (singular operator)."""


def _diagonal(values: np.ndarray) -> sp.csr_array:
    n = values.size
    return sp.csr_array((values, np.arange(n), np.arange(n + 1)), shape=(n, n))


def _tridiagonal(sub: np.ndarray, diagonal: np.ndarray, sup: np.ndarray) -> sp.csr_array:
    """n × n CSR array with the given sub-, main and super-diagonals, all 3n − 2 entries stored."""
    n = diagonal.size
    # row i holds (sub[i-1], diagonal[i], sup[i]), so its diagonal entry sits at 3i
    data = np.empty(3 * n - 2)
    data[0::3], data[1::3], data[2::3] = diagonal, sup, sub
    indices = np.empty(3 * n - 2, dtype=np.int32)
    indices[0::3], indices[1::3], indices[2::3] = np.arange(n), np.arange(1, n), np.arange(n - 1)
    indptr = np.concatenate(([0], 3 * np.arange(1, n) - 1, [3 * n - 2])).astype(np.int32)
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def _identity_over(B, identity_col: int, b_col: int) -> sp.csr_array:
    """2n × 2n CSR array with I in the top n rows and B in the bottom n, at the given column offsets."""
    B = sp.csr_array(B)
    B.sum_duplicates()  # canonical rows: sorted columns, no repeats
    n = B.shape[0]
    data = np.concatenate((np.ones(n), B.data))
    indices = np.concatenate((identity_col + np.arange(n), b_col + B.indices))
    indptr = np.concatenate((np.arange(n), n + B.indptr))
    return sp.csr_array((data, indices, indptr), shape=(2 * n, 2 * n))


@dataclass(frozen=True, eq=False)
class AffineDecomposition:
    """Rank-one parameter dependence declared by a system.

    States that A(μ) = A(μ_ref) + (μ − μ_ref) u vᵀ and b(μ) = b(μ_ref) +
    (μ − μ_ref) ``source``.  A plain declaration: it holds no solve, so one
    declaration may serve several systems.
    """

    mu_ref: float
    u: np.ndarray
    v: np.ndarray
    source: np.ndarray


@dataclass(frozen=True)
class FullOrderSystem:
    """First-order system E ẋ = A(μ) x + b(μ) on a closed parameter interval.

    ``operator_at`` is a reentrant map μ -> n × n matrix and ``source_at`` a
    reentrant map μ -> (n,) array.  The bundled generators return the
    operator and the mass as ``scipy.sparse`` CSR arrays (densify with
    ``.toarray()``); hand-built systems may use dense arrays, which every
    consumer accepts too.  The mass matrix is parameter independent and
    symmetric positive definite.

    ``affine``, when set, declares that A and b depend on μ through one
    rank-one term (see ``AffineDecomposition``); ``equilibrium`` then solves
    once at the reference parameter, keeps that solve on the system, and
    updates it for every μ.  The declaration must agree with ``operator_at``
    and ``source_at``.  ``dataclasses.replace`` gives a system with no kept
    solve.
    """

    n: int
    mass: np.ndarray | sp.sparray
    operator_at: Callable[[float], np.ndarray | sp.sparray]
    source_at: Callable[[float], np.ndarray]
    parameter_domain: tuple[float, float]
    metadata: dict = field(default_factory=dict)
    affine: AffineDecomposition | None = None

    @cached_property
    def _affine_reference(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
        """A(μ_ref)⁻¹ [b(μ_ref), u, source] as (y_b, y_u, y_s, vᵀy_u), None when A(μ_ref) is singular."""
        # solved on first use and kept in the instance __dict__, which frozen=True leaves writable
        affine = self.affine
        rhs = np.column_stack((self.source_at(affine.mu_ref), affine.u, affine.source))
        try:
            y = solve_linear(self.operator_at(affine.mu_ref), rhs)
        except SingularMatrixError:
            return None
        y_b, y_u, y_s = (np.ascontiguousarray(col) for col in y.T)
        return y_b, y_u, y_s, affine.v @ y_u


@dataclass(frozen=True)
class SecondOrderSystem:
    """Mechanical system M ÿ = K(μ) y with M SPD and K negative semidefinite (dense or sparse)."""

    mass: np.ndarray | sp.sparray
    stiffness_at: Callable[[float], np.ndarray | sp.sparray]
    parameter_domain: tuple[float, float]
    metadata: dict = field(default_factory=dict)


def heat_rod(
    n: int,
    length: float = 1.0,
    conductivity: float = 1.0,
    heat_capacity: float = 1.0,
    h_left: float = 1.0,
    t_ambient: float = 0.0,
    heat_source: float = 0.0,
    mu_domain: tuple[float, float] = (0.0, 120.0),
) -> FullOrderSystem:
    """1-D conducting rod with convective ends; the parameter is the right film coefficient.

    Finite-volume half cells: node spacing dx = length/(n-1), boundary cells of
    width dx/2.  The left end exchanges heat with the ambient through the fixed
    coefficient ``h_left``; the right end through μ.  ``heat_source`` is a
    uniform volumetric generation rate, entering the source vector per cell
    volume.  The operator is symmetric and, as soon as one end convects
    (h_left + μ > 0), all eigenvalues of (A, E) are strictly negative.  It is
    a tridiagonal CSR array of fixed pattern: each call copies it and writes
    μ into A[-1, -1], the only entry that depends on the parameter.  The
    system declares that rank-one dependence as its ``affine``, with the
    upper end of ``mu_domain`` as reference: the operator there is regular
    even for an insulated rod (h_left = 0).
    """
    if n < 3:
        raise GeneratorError(f"need at least 3 nodes, got {n}")
    if length <= 0 or conductivity <= 0 or heat_capacity <= 0:
        raise GeneratorError("length, conductivity and heat capacity must be positive")
    if h_left < 0:
        raise GeneratorError("film coefficient h_left must be non-negative")
    try:
        mu_lo, mu_hi = (float(mu) for mu in mu_domain)
    except (TypeError, ValueError):
        raise GeneratorError(f"mu_domain must be two numbers, got {mu_domain!r}") from None
    if not (np.isfinite(mu_lo) and np.isfinite(mu_hi) and mu_lo < mu_hi):
        raise GeneratorError(f"mu_domain must be finite and increasing, got {mu_domain!r}")

    dx = length / (n - 1)
    g = conductivity / dx
    cells = np.full(n, dx)
    cells[0] = cells[-1] = dx / 2.0
    mass = _diagonal(heat_capacity * cells)

    diagonal = np.full(n, -2.0 * g)
    diagonal[0] = -(g + h_left)
    off = np.full(n - 1, g)
    base = _tridiagonal(off, diagonal, off)

    def operator_at(mu: float) -> sp.csr_array:
        A = base.copy()
        A.data[-1] = -(g + mu)  # A[-1, -1] is the last stored entry
        return A

    def source_at(mu: float) -> np.ndarray:
        b = heat_source * cells.copy()
        b[0] += h_left * t_ambient
        b[-1] += mu * t_ambient
        return b

    meta = {
        "generator": {
            "name": "heat-rod",
            "args": {
                "n": n,
                "length": length,
                "conductivity": conductivity,
                "heat_capacity": heat_capacity,
                "h_left": h_left,
                "t_ambient": t_ambient,
                "heat_source": heat_source,
                "mu_domain": list(mu_domain),
            },
        },
        "coordinates": np.linspace(0.0, length, n).tolist(),
    }
    end = np.zeros(n)
    end[-1] = 1.0
    affine = AffineDecomposition(mu_hi, -end, end, t_ambient * end)
    return FullOrderSystem(n, mass, operator_at, source_at, (mu_lo, mu_hi), meta, affine)


def spring_chain_with_defect(
    n_mass: int,
    mass: float = 1.0,
    k_nominal: float = 1.0,
    k_defect: float = 0.5,
) -> SecondOrderSystem:
    """Anchored chain of point masses; the parameter locates a soft spring.

    Masses sit at positions 1..n_mass with unit spacing, the wall at 0, so the
    chain spans [0, n_mass].  Spring j joins positions j-1 and j and has its
    midpoint at j - 1/2.  The spring whose midpoint lies nearest μ is assigned
    ``k_defect`` (ties resolved toward the lower index), which makes K(μ)
    piecewise constant in μ.  The convention M ÿ = K y makes K symmetric
    negative definite.  K and M are tridiagonal and diagonal CSR arrays.
    """
    if n_mass < 2:
        raise GeneratorError(f"need at least 2 masses, got {n_mass}")
    if mass <= 0:
        raise GeneratorError("mass must be positive")
    if not 0 < k_defect <= k_nominal:
        raise GeneratorError("defect stiffness must satisfy 0 < k_defect <= k_nominal")

    midpoints = np.arange(n_mass) + 0.5
    M = _diagonal(np.full(n_mass, float(mass)))

    def stiffness_at(mu: float) -> sp.csr_array:
        if not 0.0 <= mu <= n_mass:
            raise GeneratorError(f"defect position {mu} outside the chain span [0, {n_mass}]")
        springs = np.full(n_mass, k_nominal)
        springs[int(np.argmin(np.abs(midpoints - mu)))] = k_defect
        # spring j joins masses j - 1 and j; spring 0 joins mass 0 to the wall
        diagonal = springs.copy()
        diagonal[:-1] += springs[1:]
        return _tridiagonal(springs[1:], -diagonal, springs[1:])

    meta = {
        "generator": {
            "name": "spring-chain",
            "args": {
                "n_mass": n_mass,
                "mass": mass,
                "k_nominal": k_nominal,
                "k_defect": k_defect,
            },
        },
        "coordinates": (midpoints + 0.5).tolist(),
    }
    return SecondOrderSystem(M, stiffness_at, (0.0, float(n_mass)), meta)


def first_order_form(sys: SecondOrderSystem) -> FullOrderSystem:
    """Rewrite M ÿ = K(μ) y for the stacked state (y, ẏ).

    The result has mass [[I, 0], [0, M]], operator [[0, I], [K(μ), 0]] and a
    zero source, as CSR arrays.  For symmetric negative definite K and SPD M
    the spectrum is purely imaginary: undamped oscillations.
    """
    n = sys.mass.shape[0]
    mass = _identity_over(sys.mass, 0, n)

    def operator_at(mu: float) -> sp.csr_array:
        return _identity_over(sys.stiffness_at(mu), n, 0)

    def source_at(mu: float) -> np.ndarray:
        return np.zeros(2 * n)

    meta = dict(sys.metadata)
    gen = meta.get("generator")
    if gen is not None:
        meta["generator"] = {"name": gen["name"] + "+first-order", "args": gen["args"]}
    return FullOrderSystem(2 * n, mass, operator_at, source_at, sys.parameter_domain, meta)


def equilibrium(sys: FullOrderSystem, mu: float) -> np.ndarray:
    """Steady state x̄ with A(μ) x̄ = −b(μ).

    A zero source yields the trivial equilibrium.  A system that declares an
    ``affine`` decomposition is solved once at μ_ref, on the first call, and
    every μ then costs O(n) by the Sherman–Morrison formula: with θ = μ − μ_ref
    and y = A(μ_ref)⁻¹(·), z = y_b + θ y_s and x̄ = −(z − θ y_u vᵀz / γ), where
    γ = 1 + θ vᵀy_u.  The update stands aside, and the system is solved
    directly at μ, when A(μ_ref) is singular or when |γ| < CAPACITANCE_TOL ·
    max(1, |θ vᵀy_u|), i.e. near a singular A(μ).  The direct solve is a
    sparse LU for a sparse operator.  A singular operator (e.g. a fully
    insulated rod with internal generation) has no steady state and raises
    EquilibriumError.
    """
    b = np.asarray(sys.source_at(mu), dtype=float)
    if not np.isfinite(b).all():
        raise EquilibriumError(f"source vector at mu={mu} is not finite")
    if not b.any():
        return np.zeros(sys.n)
    if sys.affine is not None:
        xbar = _affine_equilibrium(sys, mu)
        if xbar is not None:
            return xbar
    A = sys.operator_at(mu)
    try:
        return solve_linear(A, -b)
    except SingularMatrixError as exc:
        raise EquilibriumError(
            f"equilibrium undefined at mu={mu}: operator is singular ({exc})"
        ) from exc


def _affine_equilibrium(sys: FullOrderSystem, mu: float) -> np.ndarray | None:
    """x̄(μ) updated from the reference solve of ``sys.affine``; None where the update stands aside."""
    reference = sys._affine_reference
    if reference is None:
        return None
    y_b, y_u, y_s, v_y_u = reference
    affine = sys.affine
    theta = mu - affine.mu_ref
    gamma = 1.0 + theta * v_y_u
    if abs(gamma) < CAPACITANCE_TOL * max(1.0, abs(theta * v_y_u)):
        return None
    z = y_b + theta * y_s
    return (theta * (affine.v @ z) / gamma) * y_u - z


def traveling_bump_family(n: int, width: float, mu: float) -> np.ndarray:
    """Unit-norm Gaussian bump centered at μ·(n−1) on an n-point grid.

    A synthetic mode family whose shape translates with the parameter; two
    bumps separated by much more than ``width`` are nearly orthogonal, which
    makes this family deliberately hard to compress with a fixed linear basis.
    """
    if width <= 0:
        raise GeneratorError("width must be positive")
    if not 0.0 <= mu <= 1.0:
        raise GeneratorError(f"bump position {mu} outside [0, 1]")
    x = np.arange(n, dtype=float)
    v = np.exp(-0.5 * ((x - mu * (n - 1)) / width) ** 2)
    return v / np.linalg.norm(v)
