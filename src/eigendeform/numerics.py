"""Linear-algebra kernels with explicit accuracy contracts.

The kernels take numpy arrays; ``solve_linear``, ``is_symmetric``, the
eigensolvers (``generalized_eig`` densifies A) and ``MassFactor.of`` also take
``scipy.sparse`` matrices.  None mutates its inputs or holds state, so all
are safe to call concurrently.  ``MassFactor`` is the one representation of
the mass metric; the eigensolvers return ``(eigenvalues, right, left)``
arrays, ``left`` None for a self-adjoint pencil as in a ``ModeDatabase``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

# slowest_eigenpairs takes the partial shift-invert path when 4 m <= n
PARTIAL_FRACTION = 4
# bound on the backward error ‖Aφ − λEφ‖ / ((‖A‖₁ + |λ| ‖E‖₁) ‖φ‖) of a partial eigenpair
RESIDUAL_TOL = 1e-10
# bound on max |ΦᵀEΦ − I| of the partial eigenvectors
ORTHONORMALITY_TOL = 1e-10
# bound on ‖A − Aᵀ‖_F / ‖A‖_F for a matrix taken as symmetric
SYMMETRY_RTOL = 1e-12
# smallest reciprocal 1-norm condition estimate solve_linear accepts
RCOND_FLOOR = 1e-14


class LinearAlgebraError(ValueError):
    """Base class for kernel-level failures."""


class SymmetryError(LinearAlgebraError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class IndefiniteMatrixError(LinearAlgebraError):
    """Factorization hit a non-positive pivot; carries the pivot index."""

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class SingularMatrixError(LinearAlgebraError):
    """Solve rejected a numerically singular matrix; carries an rcond estimate."""

    def __init__(self, message: str, rcond: float):
        super().__init__(message)
        self.rcond = rcond


class EigensolverError(LinearAlgebraError):
    """Eigenvalue iteration failed to converge or produce a usable basis."""


def _as_square(a, name: str, sparse: bool = False):
    """``a`` as a square numpy array, densified unless ``sparse`` keeps a scipy.sparse ``a`` as it is."""
    if not (sparse and sp.issparse(a)):
        a = as_dense(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinearAlgebraError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def as_dense(a) -> np.ndarray:
    """``a`` as a numpy array, densifying a scipy.sparse matrix."""
    return a.toarray() if sp.issparse(a) else np.asarray(a)


def _sparse_norms(a) -> tuple[float, float]:
    """Frobenius norms of a sparse ``a`` and of a − aᵀ, from its entries merged with its transpose's."""
    a = a.tocsr()
    n = a.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    cols = a.indices.astype(np.int64)
    keys = np.concatenate([rows * n + cols, cols * n + rows])
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], np.concatenate([a.data, -a.data])[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return float(np.linalg.norm(a.data)), float(np.linalg.norm(np.add.reduceat(values, starts)))


def is_symmetric(a) -> bool:
    """True when ``a`` (dense or sparse) is real, finite and equals its transpose within SYMMETRY_RTOL relative."""
    if np.iscomplexobj(a):
        return False
    if sp.issparse(a):
        a = a.tocsr()
        if not np.isfinite(a.data).all():
            return False
        scale, asymmetry = _sparse_norms(a) if a.nnz else (0.0, 0.0)
    elif not np.isfinite(a).all():
        return False
    else:
        scale = np.linalg.norm(a)
        asymmetry = np.linalg.norm(a - a.T) if scale else 0.0
    return scale == 0.0 or asymmetry <= SYMMETRY_RTOL * scale


def cholesky_factor(E) -> np.ndarray:
    """Upper-triangular factor F of a symmetric positive definite E, FᵀF = E.

    Raises
    ------
    SymmetryError
        If E deviates from symmetry by more than SYMMETRY_RTOL relative.
    IndefiniteMatrixError
        If a pivot of the factorization is not positive; the zero-based index
        of the failing pivot is reported.
    """
    E = _as_square(E, "E")
    if not is_symmetric(E):
        raise SymmetryError("matrix is not symmetric within tolerance")
    potrf, = get_lapack_funcs(("potrf",), (E,))
    factor, info = potrf(E, lower=0, overwrite_a=0)
    if info > 0:
        raise IndefiniteMatrixError(
            f"matrix is not positive definite: pivot index {info - 1} is not positive",
            pivot=info - 1,
        )
    if info < 0:
        raise LinearAlgebraError(f"illegal value in argument {-info} of potrf")
    return np.triu(factor)


@dataclass(frozen=True)
class MassFactor:
    """The factor F with FᵀF = E of a symmetric positive definite mass matrix E.

    ``MassFactor.of(E)`` picks the simplest kind that holds E: the identity
    (nothing stored; ``MassFactor(n)``), a diagonal E (``scale`` = √diag E),
    or any other E (``cholesky``, the dense ``cholesky_factor(E)``).
    ``F @ x`` and ``F.solve(x)`` = F⁻¹x act on any array whose first axis has
    length n, such as an (n, m, p) block of modes; ``F.mass()`` gives E back.

    The constructor refuses what ``of`` never gives: complex values, a
    non-finite entry (SymmetryError), a non-positive ``scale`` or Cholesky
    diagonal entry (IndefiniteMatrixError with its index) or a nonzero below
    the Cholesky diagonal.  It keeps a dense factor row-major, as ``of`` makes
    it, so a factor read from a file rounds as a fresh one.
    """

    n: int
    scale: np.ndarray | None = None  # (n,)
    cholesky: np.ndarray | None = None  # (n, n) upper-triangular

    def __post_init__(self):
        factor = self.scale if self.cholesky is None else self.cholesky
        if factor is None:
            return
        if np.iscomplexobj(factor):
            raise LinearAlgebraError("mass factor holds complex values")
        if not np.all(np.isfinite(factor)):
            raise SymmetryError("mass matrix has a non-finite entry")
        pivots = factor if self.cholesky is None else np.diagonal(factor)
        if not np.all(pivots > 0.0):
            k = int(np.argmin(pivots > 0.0))  # the first pivot potrf would refuse
            raise IndefiniteMatrixError(f"matrix is not positive definite: pivot index {k} is not positive", k)
        if self.cholesky is not None:
            if np.tril(factor, -1).any():
                raise LinearAlgebraError("Cholesky factor has a nonzero below its diagonal")
            object.__setattr__(self, "cholesky", np.ascontiguousarray(factor))

    @classmethod
    def of(cls, E) -> MassFactor:
        """Factor of a dense or scipy.sparse E (COO entries included), refused as cholesky_factor refuses E."""
        E = _as_square(E, "E", sparse=True)
        factor = cls._of_diagonal(E)
        return cls(E.shape[0], cholesky=cholesky_factor(E)) if factor is None else factor

    @classmethod
    def _of_diagonal(cls, E) -> MassFactor | None:
        """Factor of a real diagonal E, refused as cholesky_factor refuses E; None for any other E.

        O(nnz) for a sparse E; a dense E is read in place, with no n × n copy.
        """
        if np.iscomplexobj(E):
            return None
        if sp.issparse(E):
            E = sp.coo_array(E)
            on = E.row == E.col
            if np.any(E.data[~on] != 0):
                return None
            d = np.bincount(E.row[on], weights=E.data[on], minlength=E.shape[0])  # sums repeats, as toarray
        else:
            d = np.diagonal(E)
            if np.count_nonzero(E) != np.count_nonzero(d):  # a nonzero (or NaN) off the diagonal
                return None
            d = d.astype(float)
        if np.all(d == 1.0):
            return cls(d.size)
        # a signed square root keeps a non-finite or non-positive entry so, for the constructor to refuse
        return cls(d.size, scale=np.copysign(np.sqrt(np.abs(d)), d))

    @property
    def kind(self) -> str:
        return "dense" if self.cholesky is not None else "identity" if self.scale is None else "diagonal"

    def _columns(self, x, op):
        """x unchanged for the identity, else op of x's (n, k) column-major flattening, reshaped back."""
        x = np.asarray(x)
        if x.shape[:1] != (self.n,):
            raise LinearAlgebraError(f"mass factor of size {self.n} cannot act on shape {x.shape}")
        if self.kind == "identity":
            return x
        return op(x.reshape(self.n, -1, order="F")).reshape(x.shape, order="F")

    def __matmul__(self, x):
        if self.cholesky is not None:
            return self._columns(x, lambda c: self.cholesky @ c)
        # C order, as a dense product returns it, keeps later reductions' summation order
        return self._columns(x, lambda c: np.multiply(self.scale[:, None], c, order="C"))

    def solve(self, x):
        """F⁻¹x, by a triangular solve for the dense kind."""
        if self.cholesky is not None:
            return self._columns(x, lambda c: scipy.linalg.solve_triangular(self.cholesky, c, lower=False))
        # the dense kind's bits: OpenBLAS divides a single column, multiplies several by 1 / scale
        return self._columns(
            x, lambda c: c / self.scale[:, None] if c.shape[1] == 1 else c * (1.0 / self.scale)[:, None]
        )

    def mass(self) -> sp.coo_array:
        """E = FᵀF as its nonzero entries in row-major order."""
        if self.cholesky is not None:
            return sp.coo_array(self.cholesky.T @ self.cholesky)
        diagonal = np.ones(self.n) if self.scale is None else np.square(self.scale)
        return sp.coo_array((diagonal, (np.arange(self.n),) * 2), shape=(self.n, self.n))


def _spectral_order(w: np.ndarray) -> np.ndarray:
    """Sort order: descending real part, near-ties resolved by descending imag.

    Real parts within 1e-10 (relative to the spectral radius) count as ties,
    so purely oscillatory spectra are not ordered by round-off noise: there
    (λ = ±iω) the fastest oscillations come first.
    """
    order = list(np.argsort(-w.real, kind="stable"))
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w))))
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if w[groups[-1][0]].real - w[idx].real <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return np.array(
        [j for g in groups for j in sorted(g, key=lambda j: -w[j].imag)]
    )


def generalized_eig(A, E, want_left: bool = False):
    """Eigenpairs of (A, E) as ``(eigenvalues (n,) complex, right (n, n), left (n, n) or None)``.

    Sorted by descending real part, ties by descending imaginary part; the
    columns of ``right`` have unit E-norm.  For real symmetric A the problem
    is solved in its self-adjoint form: eigenvalues are real, ``right`` is
    E-orthonormal and ``left`` is None even with ``want_left``.  Otherwise
    ``want_left`` gives left vectors ψᴴA = λψᴴE with leftᴴ E right = I, so
    c = leftᴴ E x is the modal projection ``rom.simulate_full`` takes: each
    column is scaled to ψᴴEφ = 1, and the columns of a repeated λ are
    combined so that their block is I too.  A pencil where that scaling or
    block is singular below 1e-12, defective or nearly so, raises
    EigensolverError naming its first such λ.

    Every pencil is solved in the standard form B = F⁻ᵀAF⁻¹ (FᵀF = E;
    Golub & Van Loan, §8.7), whose vectors map back by F⁻¹, so each pair's
    backward error grows like cond(E) ε.  For a symmetric A, F is
    ``MassFactor.of(E)``: an identity or diagonal E scales A on both sides
    (a sparse E is never densified), any other E is reduced by LAPACK
    xSYGST with that factor; B is solved by ``eigh``'s divide-and-conquer
    driver (xSYEVD), which at cond(E) = 1e8 stays well inside RESIDUAL_TOL
    where the default MRRR driver does not.  A non-symmetric A is solved by
    one QR-iteration ``eig`` (xGEEV) of B, not by QZ on (A, E).
    """
    A = _as_square(A, "A")
    E = _as_square(E, "E", sparse=True)
    if A.shape != E.shape:
        raise LinearAlgebraError(f"dimension mismatch: A is {A.shape}, E is {E.shape}")

    if is_symmetric(A):
        F = MassFactor.of(E)  # refuses an E that is not SPD; O(nnz) for a diagonal E
        # B = F⁻ᵀAF⁻¹ in one Fortran-ordered array, solved in place
        if F.kind == "dense":
            sygst, = get_lapack_funcs(("sygst",), (A,))
            # upper triangles: from lower ones the backward error at cond(E) = 1e8 nears RESIDUAL_TOL
            B, info = sygst(A, F.cholesky, lower=0)
            if info < 0:  # pragma: no cover - defensive
                raise LinearAlgebraError(f"illegal value in argument {-info} of sygst")
        else:
            inverse = np.ones(F.n) if F.scale is None else 1.0 / F.scale
            B = np.multiply(A, inverse[:, None], order="F")
            B *= inverse
        del A  # a densified sparse A is freed before the solve
        try:
            # divide and conquer: the default MRRR driver (evr) exceeds RESIDUAL_TOL at cond(E) = 1e8
            w, v = scipy.linalg.eigh(B, lower=False, driver="evd", overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc
        # F.solve of the reversed view writes a fresh Fortran-ordered array; the identity's needs the copy
        return w[::-1].astype(complex), np.asfortranarray(F.solve(v[:, ::-1])), None

    E = as_dense(E)
    F = cholesky_factor(E)  # refuses an E that is not SPD (and so real)
    # B = X F⁻¹ with X = F⁻ᵀA, the second solve made on Bᵀ = F⁻ᵀXᵀ
    B = scipy.linalg.solve_triangular(F, scipy.linalg.solve_triangular(F, A, trans="T").T, trans="T").T
    try:
        w, *vectors = scipy.linalg.eig(B, left=want_left, right=True)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise EigensolverError("eigensolver returned non-finite eigenvalues")

    order = _spectral_order(w)
    w, vr = w[order], scipy.linalg.solve_triangular(F, vectors[-1][:, order])
    right = vr / np.sqrt(np.real(np.sum(vr.conj() * (E @ vr), axis=0)))
    if not want_left:
        return w, right, None
    vl = scipy.linalg.solve_triangular(F, vectors[0][:, order])
    Er = E @ right
    c = np.sum(vl.conj() * Er, axis=0)
    # ψᴴEφ = 0 between distinct λ, but xGEEV returns any basis of a repeated λ's
    # eigenspaces: a run of equal λ (ties as in _spectral_order) inverts its whole block
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w))))
    for run in np.split(np.arange(w.size), np.flatnonzero(np.abs(np.diff(w)) > tol) + 1):
        if run.size > 1:
            gram = vl[:, run].conj().T @ Er[:, run]
            singular = np.linalg.svd(gram, compute_uv=False)[-1] < 1e-12  # a defective λ
            if not singular:
                vl[:, run] = vl[:, run] @ np.linalg.inv(gram).conj().T
            c[run] = 0.0 if singular else 1.0
    defective = np.flatnonzero(np.abs(c) < 1e-12)
    if defective.size:
        raise EigensolverError(
            "left/right eigenvectors are E-orthogonal "
            f"(eigenvalue {w[defective[0]]:.6g}); pencil may be defective"
        )
    return w, right, vl / c.conj()


def _symmetric_lu(M) -> spla.SuperLU:
    """Sparse LU of a symmetric matrix with symmetric pivoting, P M Pᵀ = L U.

    U = D Lᵀ with D = diag(U), so by Sylvester's law of inertia the signs of
    diag(U) are the signs of M's eigenvalues.
    """
    try:
        lu = spla.splu(
            sp.csc_array(M), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU met an exactly zero pivot
        raise SingularMatrixError(f"symmetric factorization failed: {exc}", rcond=0.0) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError("symmetric factorization needed an off-diagonal pivot: inertia unknown")
    return lu


def _norm1(a) -> float:
    return float(abs(a).sum(axis=0).max())


def check_backward_errors(A, E, w: np.ndarray, v: np.ndarray, kind: str = "eigenpair") -> None:
    """Raise EigensolverError unless every pair (w[j], v[:, j]) has backward error at most RESIDUAL_TOL.

    The backward error is ‖Av − λEv‖ / ((‖A‖₁ + |λ|‖E‖₁)‖v‖); ``kind`` names
    the pairs in the message.
    """
    backward = np.linalg.norm(A @ v - (E @ v) * w, axis=0) / (
        (_norm1(A) + np.abs(w) * _norm1(E)) * np.linalg.norm(v, axis=0)
    )
    worst = int(np.argmax(backward))
    if not backward[worst] <= RESIDUAL_TOL:
        raise EigensolverError(
            f"{kind} {worst} (eigenvalue {w[worst]:.6g}) has backward error "
            f"{backward[worst]:.2e} > {RESIDUAL_TOL:.0e}"
        )


def _check_partial(A, E, w: np.ndarray, v: np.ndarray, m: int) -> None:
    """Raise EigensolverError unless the m + 1 pairs (w, v) prove to hold the m slowest."""
    check_backward_errors(A, E, w, v)
    defect = float(np.max(np.abs(v.T @ (E @ v) - np.eye(w.size))))
    if not defect <= ORTHONORMALITY_TOL:
        raise EigensolverError(
            f"eigenvectors are not E-orthonormal: defect {defect:.2e} > {ORTHONORMALITY_TOL:.0e}"
        )
    tau = 0.5 * (w[m - 1] + w[m])
    try:
        above = int(np.count_nonzero(_symmetric_lu(A - tau * E).U.diagonal() > 0.0))
    except SingularMatrixError:
        above = None
    if above != m:
        raise EigensolverError(
            f"inertia of A - tau E at tau={tau:.6g} counts {above} eigenvalues above tau, "
            f"expected {m}: the {m} returned modes are not the slowest"
        )


def _partial_symmetric(A, E, F: MassFactor | None, m: int):
    """The m slowest pairs of a symmetric pencil by ARPACK; F is E's factor when E is diagonal, else None."""
    n = A.shape[0]
    A, E = sp.csc_array(A), sp.csc_array(E)
    if F is None:
        pivots = _symmetric_lu(E).U.diagonal()
        if np.any(pivots <= 0.0):
            raise IndefiniteMatrixError(
                "matrix is not positive definite: a pivot of its LDLᵀ factorization is not positive",
                pivot=int(np.flatnonzero(pivots <= 0.0)[0]),
            )
    # the shift starts a millionth of the diagonal scale above zero and grows
    # until the inertia of A − σE puts it above every eigenvalue
    scale = float(np.max(np.abs(A.diagonal() / E.diagonal())))
    sigma = 1e-6 * (scale if scale > 0.0 else 1.0)
    for _ in range(64):
        try:
            lu = _symmetric_lu(A - sigma * E)
            if not np.any(lu.U.diagonal() > 0.0):
                break
        except SingularMatrixError:
            pass
        sigma *= 4.0
    else:
        raise EigensolverError("no shift above the spectrum found")

    v0 = np.random.default_rng(0).standard_normal(n)  # fixed: repeated calls agree bitwise
    try:
        if F is None:  # generalized mode: no n × n factor of a non-diagonal E
            op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
            w, v = spla.eigsh(A, m + 1, M=E, sigma=sigma, which="LM", v0=v0, OPinv=op)
        else:
            # standard form B = F⁻ᵀAF⁻¹, (B − σI)⁻¹ = F (A − σE)⁻¹ F: one callback per Lanczos
            # step; A only gives eigsh the shape and dtype
            op = spla.LinearOperator((n, n), matvec=lambda x: F @ lu.solve(F @ x), dtype=float)
            w, y = spla.eigsh(A, m + 1, sigma=sigma, which="LM", v0=v0, OPinv=op)
            v = F.solve(y)
    except spla.ArpackError as exc:
        raise EigensolverError(f"ARPACK shift-invert solve failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    _check_partial(A, E, w, v, m)
    return w[:m].astype(complex), v[:, :m], None


def slowest_eigenpairs(A, E, m: int, want_left: bool = False):
    """The k <= m eigenpairs of (A, E) with the largest real parts, as generalized_eig returns them.

    ``A`` and ``E`` may be dense or scipy.sparse.  A real symmetric pencil
    with ``PARTIAL_FRACTION * m <= n`` takes the partial path: ARPACK in
    shift-invert mode (scipy.sparse.linalg.eigsh) solves for the m + 1
    slowest pairs from a fixed start vector, so repeated calls agree bitwise.
    With an identity or diagonal E it solves the standard form F⁻ᵀAF⁻¹ of
    E's MassFactor F, by the operator F (A − σE)⁻¹ F, and maps the vectors
    back by F⁻¹; with any other symmetric E, which an LDLᵀ factorization
    must show positive definite, it runs in generalized mode with M = E, so
    no n × n factor of E is ever made.
    The shift sits above the whole spectrum, which an LDLᵀ inertia count of
    A − σE confirms, so a singular A (an insulated rod) is never factored.
    Before returning, the result must pass three checks, else
    EigensolverError is raised: every pair has a backward error
    ‖Aφ − λEφ‖ / ((‖A‖₁ + |λ|‖E‖₁)‖φ‖) at most RESIDUAL_TOL, the vectors
    are E-orthonormal within ORTHONORMALITY_TOL, and the inertia of A − τE,
    with τ midway between the m-th and (m+1)-th eigenvalue, counts exactly
    m eigenvalues above τ, so no slower mode was missed.  A cut through a
    multiple eigenvalue fails the last check.

    Every other pencil is densified and solved in full by generalized_eig.
    For a real A only the member of each complex-conjugate pair with
    non-negative imaginary part is kept, so fewer than m pairs can come back.
    On a purely oscillatory spectrum all real parts tie and the largest
    frequencies come first: there the "slowest" modes oscillate fastest.
    """
    A, E = _as_square(A, "A", sparse=True), _as_square(E, "E", sparse=True)
    if A.shape != E.shape:
        raise LinearAlgebraError(f"dimension mismatch: A is {A.shape}, E is {E.shape}")
    n = A.shape[0]
    if not 1 <= m <= n:
        raise LinearAlgebraError(f"mode count {m} out of range [1, {n}]")
    if PARTIAL_FRACTION * m <= n and is_symmetric(A):
        F = MassFactor._of_diagonal(E)
        if F is not None or is_symmetric(E):
            return _partial_symmetric(A, E, F, m)
    w, right, left = generalized_eig(A, E, want_left=want_left)
    # the conjugate partner of a real pencil's eigenpair is implied
    keep = np.flatnonzero(np.iscomplexobj(A) | (w.imag >= 0.0))[:m]
    return w[keep], right[:, keep], None if left is None else left[:, keep]


def truncated_svd(M, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-r singular value decomposition M ≈ U[:, :r] diag(s[:r]) Vh[:r].

    Returns the r leading left vectors (columns of U), the FULL vector of
    singular values (so tail sums remain available after truncation), and the
    r leading right vectors (rows of Vh).
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise LinearAlgebraError(f"expected a matrix, got shape {M.shape}")
    kmax = min(M.shape)
    if not 1 <= r <= kmax:
        raise LinearAlgebraError(f"rank {r} out of range [1, {kmax}]")
    U, s, Vh = scipy.linalg.svd(M, full_matrices=False)
    return U[:, :r], s, Vh[:r, :]


def _solve_sparse(A, b: np.ndarray, dtype) -> np.ndarray:
    A = sp.csc_array(A, dtype=dtype)
    try:
        lu = spla.splu(A)
    except RuntimeError:  # SuperLU met an exactly zero pivot
        rcond = 0.0
    else:
        n = A.shape[0]
        inverse = spla.LinearOperator(A.shape, matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="H"), dtype=dtype)
        # t = 1 starts from the constant vector alone, so the estimate is deterministic;
        # xLACON's alternating test vector catches matrices the iteration underrates
        alt = ((-1.0) ** np.arange(n) * (1.0 + np.arange(n) / max(n - 1, 1))).astype(dtype)
        norm = max(spla.onenormest(inverse, t=1), 2.0 * float(np.abs(lu.solve(alt)).sum()) / (3.0 * n))
        rcond = 1.0 / (_norm1(A) * norm)
    if rcond < RCOND_FLOOR:
        raise SingularMatrixError(
            f"matrix is singular to working precision (rcond ≈ {rcond:.2e})",
            rcond=rcond,
        )
    return lu.solve(b.astype(dtype, copy=False))


def solve_linear(A, b) -> np.ndarray:
    """Solve Ax = b by LU with partial pivoting; a scipy.sparse A gets a sparse LU.

    Raises SingularMatrixError when the reciprocal condition estimate falls
    below RCOND_FLOOR: LAPACK's for a dense A, else 1 / (‖A‖₁ ‖A⁻¹‖₁) with
    scipy's onenormest estimating ‖A⁻¹‖₁ from solves with the sparse factors.
    """
    A = _as_square(A, "A", sparse=True)
    b = np.asarray(b)
    if b.shape[0] != A.shape[0]:
        raise LinearAlgebraError(
            f"dimension mismatch: A is {A.shape}, b has leading dimension {b.shape[0]}"
        )
    dtype = np.result_type(A.dtype, b.dtype, np.float64)
    if sp.issparse(A):
        return _solve_sparse(A, b, dtype)
    A = A.astype(dtype, copy=False)
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (A,))
    lu, piv, info = getrf(A, overwrite_a=0)
    if info < 0:  # pragma: no cover - defensive
        raise LinearAlgebraError(f"illegal value in argument {-info} of getrf")
    anorm = np.linalg.norm(A, 1)
    rcond = 0.0 if info > 0 else float(gecon(lu, anorm, norm="1")[0])
    if rcond < RCOND_FLOOR:
        raise SingularMatrixError(
            f"matrix is singular to working precision (rcond ≈ {rcond:.2e})",
            rcond=rcond,
        )
    x, info = getrs(lu, piv, b.astype(dtype, copy=False))
    if info != 0:  # pragma: no cover - defensive
        raise LinearAlgebraError(f"getrs failed with info={info}")
    return x
