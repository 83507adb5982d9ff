"""Modal-truncation reduced-order models and their error against the full order.

A Rom keeps the m retained eigenmodes, their adjoints, and eigenvalues at one
parameter value; the reduced dynamics are diagonal, so trajectories are exact
matrix-free exponentials.  ROMs at unsampled parameters are assembled from
interpolated modes, either componentwise in physical space or through the
low-order deformation coefficients, and compared against interpolating whole
solutions.
"""
from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import dgemm

from .edm import EdmBasis, check_basis, interpolate_columns
from .modal import ModeDatabase
from .numerics import MassFactor, SingularMatrixError, as_dense, generalized_eig, solve_linear
from .systems import FullOrderSystem, equilibrium

# largest state dimension simulate_full solves by a dense eigendecomposition
MAX_DENSE = 2000
# characteristic times 1 / |Re λ| of the slowest mode that default_horizon spans
HORIZON_TIMES = 5.0


@dataclass(frozen=True)
class Rom:
    """Reduced model at one parameter: bases, diagonal spectrum, linearization point.

    ``biorth_defect`` records ‖ΨᴴEΦ − I‖_F, which is essentially zero at
    sampled parameters and grows mildly for interpolated bases (no
    re-orthogonalization is applied, the defect is reported instead).
    """

    mu: float
    basis: np.ndarray  # (n, m)
    adjoint: np.ndarray  # (n, m)
    eigenvalues: np.ndarray  # (m,)
    equilibrium: np.ndarray  # (n,)
    mass_factor: MassFactor
    biorth_defect: float


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus one state column per instant."""

    times: np.ndarray  # (nt,)
    states: np.ndarray  # (n, nt), column-major when built by simulate_rom


def _rom(db: ModeDatabase, mu, basis, adjoint, eigenvalues, equilibrium) -> Rom:
    """A Rom in db's mass metric F, with its defect ‖(FΨ)ᴴ(FΦ) − I‖_F."""
    F = db.mass_factor
    gram = (F @ adjoint).conj().T @ (F @ basis)
    eq = np.zeros(db.n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    return Rom(float(mu), basis, adjoint, eigenvalues, eq, F, float(np.linalg.norm(gram - np.eye(gram.shape[0]))))


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need a 1-D time grid with at least 2 points")
    if times[0] < 0 or not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be non-negative and strictly increasing")
    return times


def build_rom_at_sample(db: ModeDatabase, mu: float, m: int, equilibrium) -> Rom:
    """Slice the stored bases at a sampled parameter into an m-mode ROM."""
    mus = db.mus
    k = int(np.argmin(np.abs(mus - mu)))
    if abs(mus[k] - mu) > 1e-12 * max(1.0, abs(mu)):
        raise ValueError(f"mu={mu} is not a sampled parameter of the database")
    if not 1 <= m <= db.m:
        raise ValueError(f"mode count {m} out of range [1, {db.m}]")
    basis = db.right[:, :m, k]
    adjoint = basis if db.left is None else db.left[:, :m, k]
    return _rom(db, mus[k], basis, adjoint, db.eigenvalues[:m, k], equilibrium)


def build_rom_interpolated(
    db: ModeDatabase,
    mu: float,
    m: int,
    strategy: str = "edm",
    edm_bases: list[EdmBasis] | None = None,
    left_edm_bases: list[EdmBasis] | None = None,
    equilibrium=None,
    mode_scheme: str = "linear",
) -> Rom:
    """Assemble a ROM at an unsampled parameter from interpolated modes.

    ``strategy`` selects componentwise interpolation of the stored mode chains
    ("direct") or reconstruction from interpolated deformation coefficients
    ("edm", which needs one EdmBasis of ``db`` per retained chain, in chain
    order: ``edm.check_basis`` refuses any other).  Interpolation is linear in
    the sampled values, so one weight vector w on the sample grid serves every
    chain: column i of the basis is ``block_i @ w`` (direct) or
    ``mean_i + edms_i @ (coefficients_i @ w)`` (edm), written into one
    preallocated (n, m) array.  Eigenvalues are cubic-spline interpolated
    separately.  Left chains, when the system is not self-adjoint, are
    interpolated with the same strategy.  The interpolated bases are not
    re-bi-orthogonalized; the defect is stored on the Rom.
    """
    if not (db.paired and db.aligned):
        raise ValueError("database must be paired and aligned before interpolation")
    if not 1 <= m <= db.m:
        raise ValueError(f"mode count {m} out of range [1, {db.m}]")
    if strategy not in ("direct", "edm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    mus = db.mus

    eigenvalues = np.atleast_1d(interpolate_columns(mus, db.eigenvalues[:m], mu, "cubic"))

    if strategy == "direct":
        right = [db.right_block(i) for i in range(m)]
        left = None if db.left is None else [db.left_block(i) for i in range(m)]

        def column(block, w):
            return block @ w

        def operands(block):
            return (block,)
    else:
        if edm_bases is None or len(edm_bases) < m:
            raise ValueError("edm strategy needs one deformation basis per retained mode")
        if db.left is not None and (left_edm_bases is None or len(left_edm_bases) < m):
            raise ValueError(
                "edm strategy on a non-self-adjoint database needs left "
                "deformation bases as well"
            )
        right, left = edm_bases[:m], None if db.left is None else left_edm_bases[:m]
        for family, bases in (("right", right), ("left", left or ())):
            for i, basis in enumerate(bases):
                check_basis(basis, db, i, f"{family} EDM basis {i + 1}")

        def column(edm_basis, w):
            return edm_basis.mean_mode + edm_basis.edms @ (edm_basis.coefficients @ w)

        def operands(edm_basis):
            return edm_basis.mean_mode, edm_basis.edms, edm_basis.coefficients

    weights = interpolate_columns(mus, np.eye(mus.size), mu, mode_scheme)

    def interpolate(items):
        dtype = np.result_type(weights, *[a for item in items for a in operands(item)])
        block = np.empty((db.n, len(items)), dtype)
        for i, item in enumerate(items):
            block[:, i] = column(item, weights)
        return block

    basis = interpolate(right)
    adjoint = basis if left is None else interpolate(left)
    return _rom(db, mu, basis, adjoint, eigenvalues, equilibrium)


def simulate_rom(rom: Rom, x0, times) -> Trajectory:
    """Propagate the diagonal reduced dynamics and lift back to full space.

    The reduced initial condition is the adjoint projection of the deviation
    from the linearization point.  Tracked members of complex-conjugate
    eigenpairs contribute twice their real part, which reconstructs the real
    trajectory of the underlying real system.

    The lift writes each state once: ``states`` is allocated column-major,
    filled with x̄, and one real GEMM accumulates Φ · C into it.  A complex
    basis is read as n × 2m floats ``[Re φ₁, Im φ₁, …]`` against coefficient
    rows ``[Re c₁; −Im c₁; …]``, which gives Re(Φ C) in real arithmetic.
    Coefficients below the smallest normal float (fast modes that decayed
    into subnormals) are set to zero; that moves no state entry by more than
    ‖Φ‖∞ · 2.2e-308.
    """
    times = _check_times(times)
    n, m = rom.basis.shape
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    for name, array, shape in (
        ("eigenvalues", rom.eigenvalues, (m,)),
        ("adjoint", rom.adjoint, (n, m)),
        ("equilibrium", rom.equilibrium, (n,)),
    ):
        if np.shape(array) != shape:
            raise ValueError(
                f"ROM {name} of shape {np.shape(array)} does not fit its ({n}, {m}) basis; expected {shape}"
            )

    dx0 = x0 - rom.equilibrium
    F = rom.mass_factor
    xhat0 = (F @ rom.adjoint).conj().T @ (F @ dx0)

    lam = rom.eigenvalues
    complex_basis = np.iscomplexobj(rom.basis)
    if not (complex_basis or np.any(lam.imag)):
        lam = lam.real  # real spectrum and basis: keep the lift a real product
    pair_weight = np.where(
        complex_basis & (np.abs(lam.imag) > 1e-12 * np.maximum(1.0, np.abs(lam))),
        2.0,
        1.0,
    )
    modal = (pair_weight * xhat0)[:, None] * np.exp(np.outer(lam, times))
    if complex_basis:
        basis = np.ascontiguousarray(rom.basis, dtype=complex).view(float)
        coefficients = np.stack([modal.real, -modal.imag], axis=1).reshape(2 * m, times.size)
    else:
        basis = rom.basis
        coefficients = np.ascontiguousarray(modal.real, dtype=float)
    coefficients[np.abs(coefficients) < np.finfo(float).tiny] = 0.0

    states = np.empty((n, times.size), order="F")
    states[:] = rom.equilibrium[:, None]
    # transposed views keep a C-ordered basis from being copied to Fortran order
    a, trans_a = (basis.T, 1) if basis.flags.c_contiguous else (basis, 0)
    states = dgemm(1.0, a, coefficients.T, beta=1.0, c=states, overwrite_c=True, trans_a=trans_a, trans_b=1)
    return Trajectory(times, states)


def crank_nicolson(sys: FullOrderSystem, mu: float, x0, times) -> Trajectory:
    """Trapezoidal time integration of E ẏ = A(μ) y + b(μ).

    Steps between requested output instants are subdivided so no internal step
    exceeds horizon/10⁴.
    """
    times = _check_times(times)
    x0 = np.asarray(x0, dtype=float)
    A = as_dense(sys.operator_at(mu))
    E = as_dense(sys.mass)
    b = np.asarray(sys.source_at(mu), dtype=float)
    max_step = (times[-1] - times[0]) / 1e4

    factors: dict[float, tuple] = {}
    states = np.empty((sys.n, times.size))
    y = x0.copy()
    states[:, 0] = y
    for j in range(times.size - 1):
        span = times[j + 1] - times[j]
        nsub = max(1, int(np.ceil(span / max_step)))
        h = span / nsub
        if h not in factors:
            factors[h] = lu_factor(E - 0.5 * h * A)
        lu = factors[h]
        for _ in range(nsub):
            rhs = E @ y + 0.5 * h * (A @ y) + h * b
            y = lu_solve(lu, rhs)
        states[:, j + 1] = y
    return Trajectory(times, states)


def simulate_full(sys: FullOrderSystem, mu: float, x0, times) -> Trajectory:
    """Exact spectral solution of the full-order system about its equilibrium.

    Refuses more than MAX_DENSE states.  Falls back to trapezoidal integration
    with a warning when the eigenbasis is defective or too ill-conditioned to
    invert reliably.
    """
    if sys.n > MAX_DENSE:
        raise ValueError(f"state dimension {sys.n} exceeds the dense limit {MAX_DENSE}")
    times = _check_times(times)
    x0 = np.asarray(x0, dtype=float)
    xbar = equilibrium(sys, mu)

    try:
        lam, phi, _ = generalized_eig(sys.operator_at(mu), sys.mass)
        if np.linalg.cond(phi) > 1e12:
            raise SingularMatrixError("eigenbasis is ill-conditioned", rcond=0.0)
        c = solve_linear(phi, (x0 - xbar).astype(phi.dtype))
    except (SingularMatrixError, ValueError) as exc:
        _warnings.warn(
            f"spectral solution unavailable ({exc}); falling back to time integration",
            RuntimeWarning,
            stacklevel=2,
        )
        return crank_nicolson(sys, mu, x0, times)

    if not np.iscomplexobj(phi) and not np.any(lam.imag):
        lam = lam.real  # a real spectrum and basis: lift without complex n x nt arrays
    modal = c[:, None] * np.exp(np.outer(lam, times))
    states = xbar[:, None] + np.real(phi @ modal)
    return Trajectory(times, states)


def solution_interpolation(roms, mu: float, x0, times, scheme: str = "linear") -> Trajectory:
    """Interpolate the trajectories of the sampled ROMs at μ.

    The baseline strategy: each ROM with a nonzero interpolation weight at μ
    is simulated (two for linear interpolation, all p for cubic) and the
    full-state snapshots are summed with those weights.
    """
    times = _check_times(times)
    roms = sorted(roms, key=lambda r: r.mu)
    mus = np.array([r.mu for r in roms])
    if mus.size < 2 or not np.all(np.diff(mus) > 0):
        raise ValueError("need at least 2 ROMs at distinct increasing parameters")
    n = roms[0].basis.shape[0]
    if any(r.basis.shape[0] != n for r in roms):
        raise ValueError("all ROMs must share the state dimension")

    weights = interpolate_columns(mus, np.eye(mus.size), mu, scheme)
    states = sum(weights[k] * simulate_rom(roms[k], x0, times).states for k in np.flatnonzero(weights))
    return Trajectory(times, states)


def trajectory_error(reference: Trajectory, test: Trajectory, mass_factor: MassFactor):
    """Instantaneous and time-integrated relative error between two trajectories.

    The instantaneous series is the mass-weighted state misfit normalized by
    the peak weighted reference magnitude; the scalar is its trapezoidal time
    average over the horizon.
    """
    if not np.array_equal(reference.times, test.times):
        raise ValueError("trajectories are sampled on different time grids")
    wr = mass_factor @ reference.states
    wd = mass_factor @ (reference.states - test.states)
    denom = float(np.max(np.linalg.norm(wr, axis=0)))
    if denom == 0.0:
        raise ValueError("reference trajectory is identically zero")
    instantaneous = np.linalg.norm(wd, axis=0) / denom
    horizon = reference.times[-1] - reference.times[0]
    integrated = float(np.trapezoid(instantaneous, reference.times) / horizon)
    return instantaneous, integrated


def default_horizon(db: ModeDatabase) -> float:
    """Horizon of HORIZON_TIMES characteristic times of the slowest mode at the first sample."""
    rate = abs(db.eigenvalues[0, 0].real)
    if rate == 0.0:
        raise ValueError("slowest eigenvalue has zero real part; specify a horizon")
    return HORIZON_TIMES / rate


def benchmark_strategies(
    sys: FullOrderSystem,
    db: ModeDatabase,
    edm_bases: list[EdmBasis],
    validation_mus,
    x0,
    m: int | None = None,
    left_edm_bases: list[EdmBasis] | None = None,
):
    """Trajectory error of the three interpolation strategies.

    For every validation parameter, the full-order spectral solution over
    ``default_horizon(db)`` in 1000 steps is the reference; each strategy's
    trajectory is scored by the time-integrated error.  Modes are interpolated
    linearly.  ``x0`` may be a state vector or a parameter value whose
    equilibrium is used as the initial condition.  The equilibrium at the
    queried parameter is computed exactly and shared by all strategies.
    Returns one row dict per (parameter, strategy).
    """
    m = db.m if m is None else m
    times = np.linspace(0.0, default_horizon(db), 1001)
    if np.isscalar(x0):
        x0 = equilibrium(sys, float(x0))
    x0 = np.asarray(x0, dtype=float)

    rows = []
    for mu in np.asarray(validation_mus, dtype=float):
        xbar = equilibrium(sys, mu)
        reference = simulate_full(sys, mu, x0, times)
        sampled_roms = [build_rom_at_sample(db, mk, m, xbar) for mk in db.mus]
        for strategy in ("solution-interpolation", "direct", "edm"):
            if strategy == "solution-interpolation":
                trajectory = solution_interpolation(sampled_roms, mu, x0, times)
            else:
                model = build_rom_interpolated(db, mu, m, strategy, edm_bases, left_edm_bases, xbar)
                trajectory = simulate_rom(model, x0, times)
            _, integrated = trajectory_error(reference, trajectory, db.mass_factor)
            rows.append({"mu": float(mu), "strategy": strategy, "integrated_error": integrated})
    return rows
