"""Mode databases: parameter sweeps, mode pairing, and sign/phase alignment.

A ModeDatabase holds the m tracked eigenmodes of a parameterized system at p
sampled parameter values as one (n, m, p) array, so a mode chain is an (n, p)
matrix.  Before any cross-parameter averaging the modes must be *paired*
(mode k+1 continues mode k even through eigenvalue crossings) and *aligned*
(the arbitrary sign of real modes, or phase of complex modes, made consistent
across samples).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .numerics import (
    EigensolverError,
    MassFactor,
    as_dense,
    check_backward_errors,
    generalized_eig,
    is_symmetric,
    slowest_eigenpairs,
)
from .systems import FullOrderSystem, traveling_bump_family


@dataclass(frozen=True)
class ModeSample:
    """Eigenvalues and E-normalized eigenmodes at one parameter value, as views into a ModeDatabase."""

    mu: float
    eigenvalues: np.ndarray  # (m,) complex
    right_modes: np.ndarray  # (n, m)
    left_modes: np.ndarray | None = None  # (n, m), None for self-adjoint systems


@dataclass(frozen=True)
class ModeDatabase:
    """The m tracked modes at p sampled parameters, plus the factor of the mass matrix.

    ``right[:, i, k]`` is mode i at ``mus[k]`` with eigenvalue ``eigenvalues[i, k]``;
    ``left`` holds the adjoint modes of a non-self-adjoint system, else None.
    Mode arrays are kept in Fortran order, so sample k (``right[:, :, k]``) is
    one column-major block and chain i (``right_block(i)``) a view of p
    contiguous columns.  ``mass_factor`` is the ``MassFactor`` F with FᵀF = E
    (identity, diagonal or dense) of size n; every inner product between modes
    is (F a)ᴴ(F b).  ``paired`` and ``aligned`` record which preparation passes
    have run; the passes return new arrays.  In an aligned database each
    chain's first mode has its largest-magnitude component real and positive,
    and each chain's consecutive mass-weighted overlaps are real and positive.
    """

    mus: np.ndarray  # (p,)
    eigenvalues: np.ndarray  # (m, p) complex
    right: np.ndarray  # (n, m, p)
    left: np.ndarray | None  # (n, m, p)
    mass_factor: MassFactor
    paired: bool = False
    aligned: bool = False
    crossing_gaps: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        mus = np.asarray(self.mus, dtype=float)
        eigenvalues = np.asarray(self.eigenvalues, dtype=complex)
        right = np.asfortranarray(self.right)
        left = None if self.left is None else np.asfortranarray(self.left)
        if mus.ndim != 1 or mus.size < 2:
            raise ValueError(f"a mode database needs at least 2 samples, got {mus.size}")
        if not np.all(np.diff(mus) > 0):
            raise ValueError("sample parameters must be strictly increasing")
        if right.ndim != 3 or right.shape[2] != mus.size:
            raise ValueError(f"right modes have shape {right.shape}, expected (n, m, {mus.size})")
        if eigenvalues.shape != right.shape[1:]:
            raise ValueError(f"eigenvalues have shape {eigenvalues.shape}, expected {right.shape[1:]}")
        if left is not None and left.shape != right.shape:
            raise ValueError(f"left modes have shape {left.shape}, expected {right.shape}")
        if not (isinstance(self.mass_factor, MassFactor) and self.mass_factor.n == right.shape[0]):
            raise ValueError(f"mass_factor must be a MassFactor of the modes' size n={right.shape[0]}")
        for name, value in (("mus", mus), ("eigenvalues", eigenvalues), ("right", right), ("left", left)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.right.shape[0]

    @property
    def m(self) -> int:
        return self.right.shape[1]

    @property
    def p(self) -> int:
        return self.right.shape[2]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.right)

    @property
    def samples(self) -> tuple[ModeSample, ...]:
        """One ModeSample per parameter, holding views into the database arrays."""
        return tuple(
            ModeSample(
                mu,
                self.eigenvalues[:, k],
                self.right[:, :, k],
                None if self.left is None else self.left[:, :, k],
            )
            for k, mu in enumerate(self.mus.tolist())
        )

    def right_block(self, i: int) -> np.ndarray:
        """Modes of chain i across samples, as columns of an (n, p) view."""
        return self.right[:, i, :]

    def left_block(self, i: int) -> np.ndarray | None:
        return None if self.left is None else self.left[:, i, :]


def _slowest_at(sys: FullOrderSystem, mu: float, m: int, want_left: bool = False):
    """The m slowest pairs of the pencil at mu; a failed solve is re-raised naming mu.

    A system that declares its ``second_order`` form is solved from (K(μ), M)
    by ``_undamped_pairs``; any other by ``slowest_eigenpairs``.
    """
    A = sys.operator_at(mu)
    K = None if sys.second_order is None else sys.second_order.stiffness_at(mu)
    try:
        if K is None:
            return slowest_eigenpairs(A, sys.mass, m, want_left=want_left)
        return _undamped_pairs(K, sys.second_order.mass, A, sys.mass, m, want_left)
    except (EigensolverError, ValueError) as exc:
        raise EigensolverError(f"eigensolve failed at mu={mu}: {exc}") from exc


def _undamped_pairs(K, M, A, E, m: int, want_left: bool):
    """The pairs of (A, E) = ([[0, I], [K, 0]], diag(I, M)) that ``slowest_eigenpairs`` keeps, from (K, M).

    Each (κ, y) of the symmetric pencil (K, M), with yᵀMy = 1, gives λ = iω,
    ω = √(−κ), with right vector φ = s [y; iωy], s = 1/√(yᵀy + ω²), of unit
    E-norm, and left vector ψ = [−iωMy; y] / conj(2iωs), so that ψᴴEφ = 1
    (Tisseur & Meerbergen 2001, §3).  All real parts tie at 0, so the dense
    order keeps the min(m, n) largest ω, largest first; so does this.  Refused
    unless K is symmetric, every κ < 0, and every returned pair passes
    ``check_backward_errors`` against (A, E) itself.
    """
    # dense, as the first-order solve this replaces densifies A: scipy.sparse's
    # per-call overhead would cost more than the whole n × n solve
    K, M, A, E = (as_dense(a) for a in (K, M, A, E))
    if not is_symmetric(K):
        raise EigensolverError("stiffness K is not symmetric")
    kappa, y, _ = generalized_eig(K, M)
    kappa = kappa.real
    if kappa[0] >= 0.0:  # sorted descending: the first is the largest
        raise EigensolverError(
            f"stiffness eigenvalue {kappa[0]:.6g} >= 0: the first-order pencil is not purely oscillatory"
        )
    k = min(m, kappa.size)
    omega = np.sqrt(-kappa[::-1][:k])  # ascending κ is descending ω
    y = y[:, ::-1][:, :k]
    s = 1.0 / np.sqrt(np.einsum("ij,ij->j", y, y) + omega**2)
    w = 1j * omega
    right = np.vstack((s * y, (w * s) * y))
    check_backward_errors(A, E, w, right, "right pair")
    if not want_left:
        return w, right, None
    left = np.vstack((-w * (M @ y), y)) / np.conj(2.0 * w * s)
    check_backward_errors(A.conj().T, E, w.conj(), left, "left pair")
    return w, right, left


def sample_spectrum(sys: FullOrderSystem, mus, m: int) -> ModeDatabase:
    """Solve the eigenproblem at each sampled parameter and keep the m slowest modes.

    Modes at each sample are sorted by descending real part of the eigenvalue
    and E-normalized.  For real system matrices only the member of each
    complex-conjugate eigenpair with non-negative imaginary part is tracked;
    the conjugate is implied.  Left eigenvectors are stored whenever the
    operator is not symmetric.  The result is unpaired and unaligned.

    A system that declares its ``second_order`` form (``first_order_form``
    does) is solved at each sample from the symmetric pencil (K(μ), M), and
    its first-order pairs built in closed form and checked against the
    system's own operator and mass (``_undamped_pairs``); it keeps the same
    modes as the dense first-order solve, with real parts exactly 0.  Any
    other system goes through ``numerics.slowest_eigenpairs``: a real
    symmetric pencil with 4 m <= n is solved for its m slowest modes only,
    by sparse shift-invert with checked residuals and an inertia count;
    any other pencil is solved in full, densely.
    """
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1 or mus.size < 2:
        raise ValueError("need at least 2 sampled parameters")
    if not np.all(np.diff(mus) > 0):
        raise ValueError("sampled parameters must be strictly increasing")
    if not 1 <= m <= sys.n:
        raise ValueError(f"mode count {m} out of range [1, {sys.n}]")

    factor = MassFactor.of(sys.mass)  # refuses a bad mass before any solve
    solves = [_slowest_at(sys, mu, m, want_left=True) for mu in mus]
    for mu, (w, _, _) in zip(mus, solves):
        if w.size < m:
            raise ValueError(f"only {w.size} tracked modes available at mu={mu}, requested {m}")
    eigenvalues, rights, lefts = zip(*solves)

    # stacking promotes every sample to complex when any one is
    return ModeDatabase(
        mus=mus,
        eigenvalues=np.stack(eigenvalues, axis=1),
        right=np.stack(rights, axis=2),
        left=None if all(left is None for left in lefts) else np.stack(lefts, axis=2),
        mass_factor=factor,
        metadata=dict(sys.metadata),
    )


_MAC_GAP = 0.01


def _match_gap(mac: np.ndarray, lam_prev: np.ndarray, lam_next: np.ndarray):
    """Match the chains (rows of ``mac``) to the next sample's modes (columns).

    Returns the column of each chain and the chains in contest: those on which
    the best assignment and some other assignment scoring within ``_MAC_GAP``
    of its total MAC disagree.  Any other assignment drops one pair of the
    best, so forbidding each pair in turn finds them all.  Contested chains
    are re-matched among their columns by eigenvalue proximity.
    """
    rows, cols = linear_sum_assignment(mac, maximize=True)
    best = mac[rows, cols].sum()
    contested = np.zeros(cols.size, dtype=bool)
    for i in range(cols.size if cols.size > 1 else 0):  # one chain has no alternative
        forbidden = mac.copy()
        forbidden[i, cols[i]] = -np.inf
        _, alt = linear_sum_assignment(forbidden, maximize=True)
        if best - mac[rows, alt].sum() <= _MAC_GAP:
            contested |= alt != cols
    idx = np.flatnonzero(contested)
    if idx.size:
        _, order = linear_sum_assignment(np.abs(lam_prev[idx, None] - lam_next[None, cols[idx]]))
        cols[idx] = cols[idx][order]
    return cols, idx


def pair_modes(db: ModeDatabase) -> ModeDatabase:
    """Match modes across consecutive samples by the assignment of maximum total MAC.

    Each sample gap is an assignment problem on the mass-weighted MAC values
    between the chains so far and the next sample's modes, solved optimally by
    the Hungarian method.  A gap is degenerate when another assignment scores
    within ``_MAC_GAP`` (0.01) of the best: the chains the two disagree on are
    re-matched by eigenvalue proximity and a warning is recorded.  Every sample
    gap where the match disagrees with plain eigenvalue ordering is listed in
    ``crossing_gaps``.  Only samples whose order changes are copied.
    """
    if db.paired:
        raise ValueError("database is already paired")
    m, p = db.m, db.p
    weighted = (db.mass_factor @ db.right).transpose(2, 1, 0)  # (p, m, n)
    # macs[k, a, b]: MAC of mode a at sample k against mode b at sample k + 1
    macs = np.abs(weighted[:-1].conj() @ weighted[1:].transpose(0, 2, 1)) ** 2

    # perms[k, i]: eigenvalue-order column of chain i at sample k
    perms = np.empty((p, m), dtype=int)
    perms[0] = np.arange(m)
    crossings: list[int] = []
    warnings: list[str] = list(db.warnings)
    for k in range(p - 1):
        cols, contested = _match_gap(
            macs[k][perms[k]], db.eigenvalues[perms[k], k], db.eigenvalues[:, k + 1]
        )
        if contested.size:
            warnings.append(
                f"degenerate pairing between samples {k} and {k + 1}: chains "
                f"{contested.tolist()} have an assignment within {_MAC_GAP} of the best "
                "total MAC; eigenvalue proximity applied"
            )
        # a crossing is a gap where a chain changes its eigenvalue-order rank
        if not np.array_equal(cols, perms[k]):
            crossings.append(k)
        perms[k + 1] = cols

    moved = np.flatnonzero(np.any(perms != np.arange(m), axis=1))

    def permuted(modes):
        if modes is None or not moved.size:
            return modes
        out = modes.copy(order="F")
        out[:, :, moved] = modes[:, perms[moved].T, moved]
        return out

    return replace(
        db,
        eigenvalues=db.eigenvalues[perms.T, np.arange(p)],
        right=permuted(db.right),
        left=permuted(db.left),
        paired=True,
        crossing_gaps=tuple(crossings),
        warnings=tuple(warnings),
    )


def _unit(c):
    """Unit factor u that makes u·c real and positive (±1 for real c); 1 where c = 0."""
    u = np.conj(np.sign(c))  # numpy >= 2: sign(c) = c/|c| for complex c
    return np.where(u == 0, 1, u)


def align_database(db: ModeDatabase) -> ModeDatabase:
    """Give each mode chain one consistent sign (real modes) or phase (complex modes).

    A real sign is a unit phase in {−1, +1}, so one pass serves both dtypes.
    Each chain's first mode is scaled by the unit factor that makes its
    largest-magnitude component real and positive; each later mode by the
    unit factor that makes its mass-weighted inner product with the
    already-aligned predecessor real and positive.  This factor also solves
    min_θ ‖F(e^{iθ}φ^(k+1) − φ^(k))‖ in closed form.  A mode exactly
    orthogonal to its predecessor keeps factor 1 and is reported.  Left modes
    get the same factors, so bi-orthogonal scaling is preserved.  Idempotent.
    """
    if not db.paired:
        raise ValueError("pair the database before aligning")
    weighted = db.mass_factor @ db.right
    # inner[i, k]: product of chain i's raw modes at samples k and k + 1
    inner = np.einsum("nik,nik->ik", weighted[:, :, :-1].conj(), weighted[:, :, 1:])

    first = db.right[:, :, 0]
    factors = np.empty((db.m, db.p), dtype=db.right.dtype)
    factors[:, 0] = _unit(first[np.argmax(np.abs(first), axis=0), np.arange(db.m)])
    for k in range(db.p - 1):
        factors[:, k + 1] = _unit(factors[:, k].conj() * inner[:, k])
    warnings = list(db.warnings) + [
        f"orthogonal neighbors for mode chain {i} between samples {k} and {k + 1}; raw mode kept"
        for i, k in np.argwhere(inner == 0.0).tolist()
    ]

    return replace(
        db,
        right=np.multiply(db.right, factors, order="F"),
        left=None if db.left is None else np.multiply(db.left, factors, order="F"),
        aligned=True,
        warnings=tuple(warnings),
    )


def mode_at(sys: FullOrderSystem, db: ModeDatabase, i: int, mu: float) -> np.ndarray:
    """Exact eigenmode of chain i at an arbitrary parameter, aligned to the database.

    Solves for the 2m slowest tracked modes at μ as ``sample_spectrum`` does
    (from (K(μ), M) for a declared ``second_order`` system, else by
    ``slowest_eigenpairs``, where a real symmetric pencil takes the partial
    path), picks the one with the
    largest MAC against chain i at the nearest sampled parameter, and scales
    it by the unit factor that makes its mass-weighted overlap with that
    sample real and positive, as ``align_database`` does between neighbours.
    The m extra candidates keep the match when a chain leaves the m slowest
    between samples.  Intended as ground truth for interpolation error
    studies.
    """
    if not db.aligned:
        raise ValueError("align the database before requesting reference modes")
    if not 0 <= i < db.m:
        raise ValueError(f"mode index {i} out of range [0, {db.m})")

    _, candidates, _ = _slowest_at(sys, mu, min(2 * db.m, sys.n))
    F = db.mass_factor
    nearest = int(np.argmin(np.abs(db.mus - mu)))
    weighted = F @ candidates
    ref = F @ db.right[:, i, nearest]
    overlaps = ref.conj() @ weighted
    j = int(np.argmax(np.abs(overlaps)))
    phi = candidates[:, j] * _unit(overlaps[j])
    return phi if db.is_complex else np.real_if_close(phi, tol=1000)


def database_from_modes(
    mus,
    modes,
    eigenvalues=None,
    mass: np.ndarray | None = None,
    paired: bool = False,
    aligned: bool = False,
    normalize: bool = False,
    metadata: dict | None = None,
) -> ModeDatabase:
    """Assemble a ModeDatabase from raw arrays.

    ``modes`` is either an (n, m, p) array or a sequence of p blocks of shape
    (n, m).  ``eigenvalues`` is (m, p); when omitted, placeholder eigenvalues
    −1, −2, ... are used (synthetic databases only care about mode shapes).
    ``mass`` is a dense or sparse mass matrix; None means the identity.
    """
    mus = np.asarray(mus, dtype=float)
    if isinstance(modes, np.ndarray) and modes.ndim == 3:
        right = modes
    else:
        right = np.stack([np.asarray(b) for b in modes], axis=2)
    if right.shape[2] != mus.size:
        raise ValueError(f"{right.shape[2]} mode blocks for {mus.size} parameters")
    m = right.shape[1]

    factor = MassFactor(right.shape[0]) if mass is None else MassFactor.of(mass)
    if eigenvalues is None:
        eigenvalues = np.tile(-np.arange(1, m + 1, dtype=complex)[:, None], (1, mus.size))
    if normalize:
        weighted = factor @ right
        right = right / np.sqrt(np.real(np.sum(weighted.conj() * weighted, axis=0)))
    return ModeDatabase(
        mus=mus,
        eigenvalues=eigenvalues,
        right=right,
        left=None,
        mass_factor=factor,
        paired=paired,
        aligned=aligned,
        metadata=metadata or {},
    )


def bump_database(n: int, width: float, mus) -> ModeDatabase:
    """Synthetic single-chain database of traveling Gaussian bumps.

    The bump shape translates across the grid as the parameter moves through
    [0, 1], the canonical stress case for linear low-rank compression.
    """
    mus = np.asarray(mus, dtype=float)
    modes = [traveling_bump_family(n, width, mu)[:, None] for mu in mus]
    db = database_from_modes(
        mus,
        modes,
        paired=True,
        metadata={"generator": {"name": "traveling-bump", "args": {"n": n, "width": width}}},
    )
    return align_database(db)


def synthetic_wide_database(n: int, mus, m: int, seed: int = 0) -> ModeDatabase:
    """Large-n database of smooth synthetic modes, for timing studies.

    Each mode is a fixed low-frequency profile plus a small parameter-dependent
    deviation, so pairing is trivial and consecutive inner products stay
    positive.  Identity mass matrix.
    """
    rng = np.random.default_rng(seed)
    mus = np.asarray(mus, dtype=float)
    span = mus[-1] - mus[0]
    x = np.linspace(0.0, 1.0, n)

    base = np.column_stack([np.sin((i + 1) * np.pi * x) for i in range(m)])
    base /= np.linalg.norm(base, axis=0)
    n_dev = 6
    dev = np.column_stack([np.cos((j + 1) * np.pi * x) for j in range(n_dev)])
    dev /= np.linalg.norm(dev, axis=0)
    amp_sin = 0.3 * rng.standard_normal((m, n_dev))
    amp_lin = 0.3 * rng.standard_normal((m, n_dev))

    modes = np.empty((n, m, mus.size), order="F")
    for k, mu in enumerate(mus):
        t = (mu - mus[0]) / span
        coeff = amp_sin * np.sin(2.0 * np.pi * t) + amp_lin * t
        block = base + dev @ coeff.T
        block /= np.linalg.norm(block, axis=0)
        modes[:, :, k] = block
    db = database_from_modes(
        mus,
        modes,
        paired=True,
        metadata={
            "generator": {
                "name": "synthetic-wide",
                "args": {"n": n, "m": m, "seed": seed},
            }
        },
    )
    return align_database(db)
