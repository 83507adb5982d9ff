"""Modal-truncation reduced-order models and strategy benchmarks.

A Rom keeps the m retained eigenmodes, their adjoints, and eigenvalues at one
parameter value; the reduced dynamics are diagonal, so trajectories are exact
matrix-free exponentials.  ROMs at unsampled parameters are assembled from
interpolated modes, either componentwise in physical space or through the
low-order deformation coefficients, and compared against interpolating whole
solutions.
"""
from __future__ import annotations

import time
import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .edm import EdmBasis, interpolate_columns, interpolate_mode
from .modal import ModeDatabase
from .numerics import SingularMatrixError, generalized_eig, solve_linear
from .systems import FullOrderSystem, equilibrium


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
    mass_factor: np.ndarray | None
    biorth_defect: float


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus one state column per instant."""

    times: np.ndarray  # (nt,)
    states: np.ndarray  # (n, nt)
    reduced: bool = False


def _weight(F, x):
    return x if F is None else F @ x


def _biorth_defect(adjoint, basis, F) -> float:
    gram = _weight(F, adjoint).conj().T @ _weight(F, basis)
    return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


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
    eq = np.zeros(db.n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    return Rom(
        mu=float(mus[k]),
        basis=basis,
        adjoint=adjoint,
        eigenvalues=db.eigenvalues[:m, k],
        equilibrium=eq,
        mass_factor=db.mass_factor,
        biorth_defect=_biorth_defect(adjoint, basis, db.mass_factor),
    )


def build_rom_interpolated(
    db: ModeDatabase,
    mu: float,
    m: int,
    strategy: str = "edm",
    edm_bases: list[EdmBasis] | None = None,
    left_edm_bases: list[EdmBasis] | None = None,
    equilibrium=None,
    mode_scheme: str = "linear",
    eigenvalue_scheme: str = "cubic",
) -> Rom:
    """Assemble a ROM at an unsampled parameter from interpolated modes.

    ``strategy`` selects componentwise interpolation of the stored mode chains
    ("direct") or reconstruction from interpolated deformation coefficients
    ("edm", which needs one EdmBasis per retained chain).  Eigenvalues are
    spline interpolated separately.  Left chains, when the system is not
    self-adjoint, are interpolated with the same strategy.  The interpolated
    bases are not re-bi-orthogonalized; the defect is stored on the Rom.
    """
    if not (db.paired and db.aligned):
        raise ValueError("database must be paired and aligned before interpolation")
    if not 1 <= m <= db.m:
        raise ValueError(f"mode count {m} out of range [1, {db.m}]")
    if strategy not in ("direct", "edm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    mus = db.mus

    eigenvalues = np.atleast_1d(interpolate_columns(mus, db.eigenvalues[:m], mu, eigenvalue_scheme))

    has_left = db.left is not None
    if strategy == "direct":
        basis = np.column_stack(
            [interpolate_columns(mus, db.right_block(i), mu, mode_scheme) for i in range(m)]
        )
        if has_left:
            adjoint = np.column_stack(
                [interpolate_columns(mus, db.left_block(i), mu, mode_scheme) for i in range(m)]
            )
        else:
            adjoint = basis
    else:
        if edm_bases is None or len(edm_bases) < m:
            raise ValueError("edm strategy needs one deformation basis per retained mode")
        basis = np.column_stack(
            [interpolate_mode(edm_bases[i], mu, mode_scheme) for i in range(m)]
        )
        if has_left:
            if left_edm_bases is None or len(left_edm_bases) < m:
                raise ValueError(
                    "edm strategy on a non-self-adjoint database needs left "
                    "deformation bases as well"
                )
            adjoint = np.column_stack(
                [interpolate_mode(left_edm_bases[i], mu, mode_scheme) for i in range(m)]
            )
        else:
            adjoint = basis

    eq = np.zeros(db.n) if equilibrium is None else np.asarray(equilibrium, dtype=float)
    return Rom(
        mu=float(mu),
        basis=basis,
        adjoint=adjoint,
        eigenvalues=eigenvalues,
        equilibrium=eq,
        mass_factor=db.mass_factor,
        biorth_defect=_biorth_defect(adjoint, basis, db.mass_factor),
    )


def simulate_rom(rom: Rom, x0, times) -> Trajectory:
    """Propagate the diagonal reduced dynamics and lift back to full space.

    The reduced initial condition is the adjoint projection of the deviation
    from the linearization point.  Tracked members of complex-conjugate
    eigenpairs contribute twice their real part, which reconstructs the real
    trajectory of the underlying real system.
    """
    times = _check_times(times)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (rom.basis.shape[0],):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({rom.basis.shape[0]},)")

    dx0 = x0 - rom.equilibrium
    xhat0 = _weight(rom.mass_factor, rom.adjoint).conj().T @ _weight(rom.mass_factor, dx0)

    lam = rom.eigenvalues
    if not (np.iscomplexobj(rom.basis) or np.any(lam.imag)):
        lam = lam.real  # real spectrum and basis: keep the lift a real product
    pair_weight = np.where(
        np.iscomplexobj(rom.basis) & (np.abs(lam.imag) > 1e-12 * np.maximum(1.0, np.abs(lam))),
        2.0,
        1.0,
    )
    modal = (pair_weight * xhat0)[:, None] * np.exp(np.outer(lam, times))
    states = rom.equilibrium[:, None] + np.real(rom.basis @ modal)
    return Trajectory(times, states)


def crank_nicolson(sys: FullOrderSystem, mu: float, x0, times, max_step=None) -> Trajectory:
    """Trapezoidal time integration of E ẏ = A(μ) y + b(μ).

    Steps between requested output instants are subdivided so no internal step
    exceeds ``max_step`` (default: horizon/10⁴).
    """
    times = _check_times(times)
    x0 = np.asarray(x0, dtype=float)
    A = np.asarray(sys.operator_at(mu))
    E = np.asarray(sys.mass)
    b = np.asarray(sys.source_at(mu), dtype=float)
    if max_step is None:
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


def simulate_full(sys: FullOrderSystem, mu: float, x0, times, max_dense: int = 2000) -> Trajectory:
    """Exact spectral solution of the full-order system about its equilibrium.

    Falls back to trapezoidal integration with a warning when the eigenbasis
    is defective or too ill-conditioned to invert reliably.
    """
    if sys.n > max_dense:
        raise ValueError(f"state dimension {sys.n} exceeds the dense limit {max_dense}")
    times = _check_times(times)
    x0 = np.asarray(x0, dtype=float)
    xbar = equilibrium(sys, mu)

    A = np.asarray(sys.operator_at(mu))
    E = np.asarray(sys.mass)
    try:
        pairs = generalized_eig(A, E)
        phi = np.column_stack([p.right_vector for p in pairs])
        lam = np.array([p.eigenvalue for p in pairs])
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


def trajectory_error(reference: Trajectory, test: Trajectory, mass_factor=None):
    """Instantaneous and time-integrated relative error between two trajectories.

    The instantaneous series is the mass-weighted state misfit normalized by
    the peak weighted reference magnitude; the scalar is its trapezoidal time
    average over the horizon.
    """
    if not np.array_equal(reference.times, test.times):
        raise ValueError("trajectories are sampled on different time grids")
    wr = _weight(mass_factor, reference.states)
    wd = _weight(mass_factor, reference.states - test.states)
    denom = float(np.max(np.linalg.norm(wr, axis=0)))
    if denom == 0.0:
        raise ValueError("reference trajectory is identically zero")
    instantaneous = np.linalg.norm(wd, axis=0) / denom
    horizon = reference.times[-1] - reference.times[0]
    integrated = float(np.trapezoid(instantaneous, reference.times) / horizon)
    return instantaneous, integrated


def default_horizon(db: ModeDatabase, factor: float = 5.0) -> float:
    """Horizon of ``factor`` characteristic times of the slowest mode at the first sample."""
    rate = abs(db.eigenvalues[0, 0].real)
    if rate == 0.0:
        raise ValueError("slowest eigenvalue has zero real part; specify a horizon")
    return factor / rate


def benchmark_strategies(
    sys: FullOrderSystem,
    db: ModeDatabase,
    edm_bases: list[EdmBasis],
    validation_mus,
    x0,
    horizon: float | None = None,
    n_steps: int = 1000,
    m: int | None = None,
    mode_scheme: str = "linear",
    repetitions: int = 100,
    left_edm_bases: list[EdmBasis] | None = None,
):
    """Error and per-query latency of the three interpolation strategies.

    For every validation parameter, the full-order spectral solution is the
    reference; each strategy's trajectory is scored by the time-integrated
    error, and its per-query build-plus-simulate wall time is averaged over
    ``repetitions`` runs.  ``x0`` may be a state vector or a parameter value
    whose equilibrium is used as the initial condition.  The equilibrium at
    the queried parameter is computed exactly and shared by all strategies.
    Returns one row dict per (parameter, strategy).
    """
    m = db.m if m is None else m
    if horizon is None:
        horizon = default_horizon(db)
    times = np.linspace(0.0, horizon, n_steps + 1)
    if np.isscalar(x0):
        x0 = equilibrium(sys, float(x0))
    x0 = np.asarray(x0, dtype=float)

    rows = []
    for mu in np.asarray(validation_mus, dtype=float):
        xbar = equilibrium(sys, mu)
        reference = simulate_full(sys, mu, x0, times)
        sampled_roms = [build_rom_at_sample(db, mk, m, xbar) for mk in db.mus]

        def run_solution():
            return solution_interpolation(sampled_roms, mu, x0, times, scheme=mode_scheme)

        def run_direct():
            rom = build_rom_interpolated(
                db, mu, m, strategy="direct", equilibrium=xbar, mode_scheme=mode_scheme
            )
            return simulate_rom(rom, x0, times)

        def run_edm():
            rom = build_rom_interpolated(
                db, mu, m, strategy="edm", edm_bases=edm_bases,
                left_edm_bases=left_edm_bases, equilibrium=xbar,
                mode_scheme=mode_scheme,
            )
            return simulate_rom(rom, x0, times)

        for strategy, runner in (
            ("solution-interpolation", run_solution),
            ("direct", run_direct),
            ("edm", run_edm),
        ):
            trajectory = runner()
            _, integrated = trajectory_error(reference, trajectory, db.mass_factor)
            start = time.perf_counter()
            for _ in range(repetitions):
                runner()
            seconds = (time.perf_counter() - start) / max(repetitions, 1)
            rows.append(
                {
                    "mu": float(mu),
                    "strategy": strategy,
                    "integrated_error": integrated,
                    "seconds": seconds,
                }
            )
    return rows


def time_mode_construction(
    db: ModeDatabase,
    edm_bases: list[EdmBasis],
    mu: float,
    m: int | None = None,
    scheme: str = "linear",
    repetitions: int = 100,
) -> dict[str, float]:
    """Median per-query wall time to construct the m interpolated modes.

    The direct strategy interpolates m chains of n-dimensional vectors (the
    per-chain blocks are views of the database, so nothing is copied per
    query); the deformation-based strategy interpolates r coefficients per
    chain and reconstructs through a skinny matrix product.
    """
    m = db.m if m is None else m
    mus = db.mus
    blocks = [db.right_block(i) for i in range(m)]

    def run_direct():
        return [interpolate_columns(mus, blocks[i], mu, scheme) for i in range(m)]

    def run_edm():
        return [interpolate_mode(edm_bases[i], mu, scheme) for i in range(m)]

    result = {}
    for name, runner in (("direct", run_direct), ("edm", run_edm)):
        runner()  # warm up
        samples = []
        for _ in range(repetitions):
            start = time.perf_counter()
            runner()
            samples.append(time.perf_counter() - start)
        result[name] = float(np.median(samples))
    return result
