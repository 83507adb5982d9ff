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
    cholesky_factor,
    generalized_eig,
    is_symmetric,
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
    """The m tracked modes at p sampled parameters, plus the Cholesky factor of the mass matrix.

    ``right[:, i, k]`` is mode i at ``mus[k]`` with eigenvalue ``eigenvalues[i, k]``;
    ``left`` holds the adjoint modes of a non-self-adjoint system, else None.
    Mode arrays are kept in Fortran order, so sample k (``right[:, :, k]``) is
    one column-major block and chain i (``right_block(i)``) a view of p
    contiguous columns.  ``mass_factor`` is the upper-triangular F with FᵀF = E,
    or None when the mass matrix is the identity.  ``paired`` and ``aligned``
    record which preparation passes have run; the passes return new arrays.
    """

    mus: np.ndarray  # (p,)
    eigenvalues: np.ndarray  # (m, p) complex
    right: np.ndarray  # (n, m, p)
    left: np.ndarray | None  # (n, m, p)
    mass_factor: np.ndarray | None
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
    def mass(self) -> np.ndarray:
        """Dense mass matrix E = FᵀF (identity when the factor is None)."""
        if self.mass_factor is None:
            return np.eye(self.n)
        return self.mass_factor.T @ self.mass_factor

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


def _weight_modes(F: np.ndarray | None, modes: np.ndarray) -> np.ndarray:
    """F applied to every mode of an (n, m, p) array, in one product."""
    if F is None:
        return modes
    n, m, p = modes.shape
    return (F @ modes.reshape(n, m * p, order="F")).reshape(n, m, p, order="F")


def mac(a: np.ndarray, b: np.ndarray, E: np.ndarray | None = None) -> float:
    """Squared magnitude of the mass-weighted inner product of two unit modes.

    For E-normalized inputs this lies in [0, 1] and equals 1 exactly when the
    modes coincide up to a unit-modulus factor.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    inner = np.vdot(a, b) if E is None else np.vdot(a, E @ b)
    return float(abs(inner) ** 2)


def _identity_mass_factor(mass: np.ndarray) -> np.ndarray | None:
    if np.array_equal(mass, np.eye(mass.shape[0])):
        return None
    return cholesky_factor(mass)


def sample_spectrum(sys: FullOrderSystem, mus, m: int) -> ModeDatabase:
    """Solve the eigenproblem at each sampled parameter and keep the m slowest modes.

    Modes at each sample are sorted by descending real part of the eigenvalue
    and E-normalized.  For real system matrices only the member of each
    complex-conjugate eigenpair with non-negative imaginary part is tracked;
    the conjugate is implied.  Left eigenvectors are stored whenever the
    operator is not symmetric.  The result is unpaired and unaligned.
    """
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1 or mus.size < 2:
        raise ValueError("need at least 2 sampled parameters")
    if not np.all(np.diff(mus) > 0):
        raise ValueError("sampled parameters must be strictly increasing")
    if not 1 <= m <= sys.n:
        raise ValueError(f"mode count {m} out of range [1, {sys.n}]")

    mass = np.asarray(sys.mass)
    factor = _identity_mass_factor(mass)
    real_pencil = not np.iscomplexobj(mass)

    eigenvalues = np.empty((m, mus.size), dtype=complex)
    rights, lefts = [], []
    for k, mu in enumerate(mus):
        A = np.asarray(sys.operator_at(mu))
        try:
            pairs = generalized_eig(A, mass, want_left=not is_symmetric(A))
        except (EigensolverError, ValueError) as exc:
            raise EigensolverError(f"eigensolve failed at mu={mu}: {exc}") from exc
        if real_pencil and not np.iscomplexobj(A):
            pairs = [pr for pr in pairs if pr.eigenvalue.imag >= 0.0]
        if len(pairs) < m:
            raise ValueError(
                f"only {len(pairs)} tracked modes available at mu={mu}, requested {m}"
            )
        pairs = pairs[:m]
        eigenvalues[:, k] = [pr.eigenvalue for pr in pairs]
        rights.append(np.column_stack([pr.right_vector for pr in pairs]))
        if pairs[0].left_vector is not None:
            lefts.append(np.column_stack([pr.left_vector for pr in pairs]))

    # stacking promotes every sample to complex when any one is
    return ModeDatabase(
        mus=mus,
        eigenvalues=eigenvalues,
        right=np.stack(rights, axis=2),
        left=np.stack(lefts, axis=2) if lefts else None,
        mass_factor=factor,
        metadata=dict(sys.metadata),
    )


def _match_gap(mac: np.ndarray, lam_prev: np.ndarray, lam_next: np.ndarray, mac_gap: float):
    """Match the chains (rows of ``mac``) to the next sample's modes (columns).

    Returns the column of each chain and the chains in contest: those on which
    the best assignment and some other assignment scoring within ``mac_gap``
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
        if best - mac[rows, alt].sum() <= mac_gap:
            contested |= alt != cols
    idx = np.flatnonzero(contested)
    if idx.size:
        _, order = linear_sum_assignment(np.abs(lam_prev[idx, None] - lam_next[None, cols[idx]]))
        cols[idx] = cols[idx][order]
    return cols, idx


def pair_modes(db: ModeDatabase, mac_gap: float = 0.01) -> ModeDatabase:
    """Match modes across consecutive samples by the assignment of maximum total MAC.

    Each sample gap is an assignment problem on the mass-weighted MAC values
    between the chains so far and the next sample's modes, solved optimally by
    the Hungarian method.  A gap is degenerate when another assignment scores
    within ``mac_gap`` of the best: the chains the two disagree on are
    re-matched by eigenvalue proximity and a warning is recorded.  Every sample
    gap where the match disagrees with plain eigenvalue ordering is listed in
    ``crossing_gaps``.  Only samples whose order changes are copied.
    """
    if db.paired:
        raise ValueError("database is already paired")
    m, p = db.m, db.p
    weighted = _weight_modes(db.mass_factor, db.right).transpose(2, 1, 0)  # (p, m, n)
    # macs[k, a, b]: MAC of mode a at sample k against mode b at sample k + 1
    macs = np.abs(weighted[:-1].conj() @ weighted[1:].transpose(0, 2, 1)) ** 2

    # perms[k, i]: eigenvalue-order column of chain i at sample k
    perms = np.empty((p, m), dtype=int)
    perms[0] = np.arange(m)
    crossings: list[int] = []
    warnings: list[str] = list(db.warnings)
    for k in range(p - 1):
        cols, contested = _match_gap(
            macs[k][perms[k]], db.eigenvalues[perms[k], k], db.eigenvalues[:, k + 1], mac_gap
        )
        if contested.size:
            warnings.append(
                f"degenerate pairing between samples {k} and {k + 1}: chains "
                f"{contested.tolist()} have an assignment within {mac_gap} of the best "
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


def align_signs(db: ModeDatabase) -> ModeDatabase:
    """Make consecutive mass-weighted inner products of each real mode chain positive.

    The first sample is put in a deterministic convention (largest-magnitude
    component positive); each later sample is flipped whenever its inner
    product with the already-aligned predecessor is negative.  Exactly
    orthogonal neighbors are left untouched and reported.  Left modes receive
    the same flips so bi-orthogonal scaling is preserved.  Idempotent.
    """
    if not db.paired:
        raise ValueError("pair the database before aligning")
    if db.is_complex:
        raise ValueError("database holds complex modes: use align_phases")
    weighted = _weight_modes(db.mass_factor, db.right)
    # inner[i, k]: product of chain i's raw modes at samples k and k + 1
    inner = np.einsum("nik,nik->ik", weighted[:, :, :-1], weighted[:, :, 1:])

    first = db.right[:, :, 0]
    signs = np.empty((db.m, db.p))
    signs[:, 0] = np.where(first[np.argmax(np.abs(first), axis=0), np.arange(db.m)] < 0, -1.0, 1.0)
    for k in range(db.p - 1):
        signs[:, k + 1] = np.where(signs[:, k] * inner[:, k] < 0.0, -1.0, 1.0)
    warnings = list(db.warnings) + [
        f"orthogonal neighbors for mode chain {i} between samples {k} and {k + 1}; sign kept"
        for i, k in np.argwhere(inner == 0.0).tolist()
    ]

    return replace(
        db,
        right=np.multiply(db.right, signs, order="F"),
        left=None if db.left is None else np.multiply(db.left, signs, order="F"),
        aligned=True,
        warnings=tuple(warnings),
    )


def align_phases(db: ModeDatabase) -> ModeDatabase:
    """Rotate each complex mode into phase with its first-sample counterpart.

    The rotation angle minimizing the mass-weighted misfit between e^{iθ}φ^(k)
    and φ^(1) has the closed form θ = −arg((φ^(1))ᴴ E φ^(k)); after rotation
    that inner product is real and non-negative.  A zero inner product leaves
    the phase untouched and is reported.  Left modes are rotated by the same
    factor.  Idempotent.
    """
    if not db.paired:
        raise ValueError("pair the database before aligning")
    weighted = _weight_modes(db.mass_factor, db.right)
    # overlap[i, k]: product of chain i's modes at the first sample and at sample k
    overlap = np.einsum("ni,nik->ik", weighted[:, :, 0].conj(), weighted)
    rotation = np.exp(-1j * np.angle(overlap))  # angle(0) = 0 keeps the phase
    rotation[:, 0] = 1.0
    warnings = list(db.warnings) + [
        f"mode chain {i} at sample {k + 1} is orthogonal to the first sample; phase kept"
        for i, k in np.argwhere(overlap[:, 1:] == 0.0).tolist()
    ]

    return replace(
        db,
        right=np.multiply(db.right, rotation, order="F"),
        left=None if db.left is None else np.multiply(db.left, rotation, order="F"),
        aligned=True,
        warnings=tuple(warnings),
    )


def align_database(db: ModeDatabase) -> ModeDatabase:
    """Dispatch to phase alignment for complex databases, sign alignment otherwise."""
    return align_phases(db) if db.is_complex else align_signs(db)


def mode_at(sys: FullOrderSystem, db: ModeDatabase, i: int, mu: float) -> np.ndarray:
    """Exact eigenmode of chain i at an arbitrary parameter, aligned to the database.

    Solves the full eigenproblem at μ, picks the tracked mode with the largest
    MAC against chain i at the nearest sampled parameter, and applies the same
    sign (real) or phase (complex) convention the database uses.  Intended as
    ground truth for interpolation error studies.
    """
    if not db.aligned:
        raise ValueError("align the database before requesting reference modes")
    if not 0 <= i < db.m:
        raise ValueError(f"mode index {i} out of range [0, {db.m})")

    mass = np.asarray(sys.mass)
    A = np.asarray(sys.operator_at(mu))
    pairs = generalized_eig(A, mass, want_left=False)
    if not (np.iscomplexobj(A) or np.iscomplexobj(mass)):
        pairs = [pr for pr in pairs if pr.eigenvalue.imag >= 0.0]

    F = db.mass_factor

    def mass_times(x):  # E x as Fᵀ(F x): two matrix-vector products
        return x if F is None else F.T @ (F @ x)

    nearest = int(np.argmin(np.abs(db.mus - mu)))
    candidates = np.column_stack([pr.right_vector for pr in pairs])
    ref = mass_times(db.right[:, i, nearest])
    phi = candidates[:, np.argmax(np.abs(ref.conj() @ candidates))]

    if db.is_complex:
        c = np.vdot(mass_times(db.right[:, i, 0]), phi)
        if c != 0.0:
            phi = phi.astype(complex) * np.exp(-1j * np.angle(c))
    else:
        if np.real(np.vdot(ref, phi)) < 0.0:
            phi = -phi
        phi = np.real_if_close(phi, tol=1000)
    return phi


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
    A None mass matrix means identity.
    """
    mus = np.asarray(mus, dtype=float)
    if isinstance(modes, np.ndarray) and modes.ndim == 3:
        right = modes
    else:
        right = np.stack([np.asarray(b) for b in modes], axis=2)
    if right.shape[2] != mus.size:
        raise ValueError(f"{right.shape[2]} mode blocks for {mus.size} parameters")
    m = right.shape[1]

    factor = None if mass is None else _identity_mass_factor(np.asarray(mass))
    if eigenvalues is None:
        eigenvalues = np.tile(-np.arange(1, m + 1, dtype=complex)[:, None], (1, mus.size))
    if normalize:
        weighted = _weight_modes(factor, right)
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
    return align_signs(db)


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
    return align_signs(db)
