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
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .numerics import SingularMatrixError, solve_linear


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


@dataclass(frozen=True)
class FullOrderSystem:
    """First-order system E ẋ = A(μ) x + b(μ) on a closed parameter interval.

    ``operator_at`` is a reentrant map μ -> n × n matrix and ``source_at`` a
    reentrant map μ -> (n,) array.  The bundled generators return the
    operator and the mass as ``scipy.sparse`` CSR arrays (densify with
    ``.toarray()``); hand-built systems may use dense arrays, which every
    consumer accepts too.  The mass matrix is parameter independent and
    symmetric positive definite.
    """

    n: int
    mass: np.ndarray | sp.sparray
    operator_at: Callable[[float], np.ndarray | sp.sparray]
    source_at: Callable[[float], np.ndarray]
    parameter_domain: tuple[float, float]
    metadata: dict = field(default_factory=dict)


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
    μ into A[-1, -1], the only entry that depends on the parameter.
    """
    if n < 3:
        raise GeneratorError(f"need at least 3 nodes, got {n}")
    if length <= 0 or conductivity <= 0 or heat_capacity <= 0:
        raise GeneratorError("length, conductivity and heat capacity must be positive")
    if h_left < 0:
        raise GeneratorError("film coefficient h_left must be non-negative")

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
    return FullOrderSystem(n, mass, operator_at, source_at, tuple(mu_domain), meta)


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

    A zero source yields the trivial equilibrium; otherwise the linear system
    is solved directly, by a sparse LU for a sparse operator.  A singular
    operator (e.g. a fully insulated rod with internal generation) has no
    steady state and raises EquilibriumError.
    """
    b = np.asarray(sys.source_at(mu), dtype=float)
    if not np.all(np.isfinite(b)):
        raise EquilibriumError(f"source vector at mu={mu} is not finite")
    if np.linalg.norm(b) == 0.0:
        return np.zeros(sys.n)
    A = sys.operator_at(mu)
    try:
        return solve_linear(A, -b)
    except SingularMatrixError as exc:
        raise EquilibriumError(
            f"equilibrium undefined at mu={mu}: operator is singular ({exc})"
        ) from exc


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
