import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from eigendeform import numerics
from eigendeform.numerics import (
    EigensolverError,
    IndefiniteMatrixError,
    LinearAlgebraError,
    SingularMatrixError,
    SymmetryError,
    cholesky_factor,
    generalized_eig,
    slowest_eigenpairs,
    solve_linear,
    truncated_svd,
)
from eigendeform.systems import first_order_form, heat_rod, spring_chain_with_defect


def random_spd(rng, n, scale=1.0):
    B = rng.standard_normal((n, n))
    return B @ B.T + scale * n * np.eye(n)


class TestCholesky:
    def test_diagonal(self):
        F = cholesky_factor(np.diag([4.0, 9.0]))
        assert np.allclose(F, np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.array_equal(cholesky_factor(np.eye(5)), np.eye(5))

    def test_recomposition_2x2(self):
        E = np.array([[2.0, 1.0], [1.0, 2.0]])
        F = cholesky_factor(E)
        assert np.all(np.tril(F, -1) == 0)
        assert np.linalg.norm(F.T @ F - E) <= 1e-12 * np.linalg.norm(E)

    @pytest.mark.parametrize("n", [3, 20, 137, 500])
    def test_recomposition_random(self, n):
        rng = np.random.default_rng(n)
        E = random_spd(rng, n)
        F = cholesky_factor(E)
        assert np.linalg.norm(F.T @ F - E) <= 1e-10 * np.linalg.norm(E)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(SymmetryError):
            cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_names_pivot(self):
        with pytest.raises(IndefiniteMatrixError) as err:
            cholesky_factor(np.diag([1.0, -1.0, 2.0]))
        assert err.value.pivot == 1
        assert "1" in str(err.value)


class TestIsSymmetric:
    # the suite turns warnings into errors, so an inf - inf inside the test fails here
    @pytest.mark.parametrize("form", [np.asarray, sp.csr_array, sp.coo_array])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)])
    def test_non_finite_is_not_symmetric(self, form, value, where):
        a = np.diag([1.0, 2.0, 3.0])
        a[where] = a[where[::-1]] = value
        assert not numerics.is_symmetric(form(a))


class TestGeneralizedEig:
    def test_diagonal(self):
        pairs = generalized_eig(np.diag([-1.0, -2.0]), np.eye(2))
        assert [p.eigenvalue for p in pairs] == [-1.0, -2.0]
        phi = np.column_stack([p.right_vector for p in pairs])
        assert np.allclose(np.abs(phi), np.eye(2))

    def test_hand_characteristic_polynomial(self):
        # lambda^2 + 3 lambda + 2 = 0 -> -1, -2; eigenvector of -1 is (1, -1)
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        pairs = generalized_eig(A, np.eye(2))
        lam = np.array([p.eigenvalue for p in pairs])
        assert np.allclose(lam, [-1.0, -2.0])
        v = pairs[0].right_vector
        assert np.allclose(v / v[0], [1.0, -1.0])

    def test_residual_and_normalization(self):
        rng = np.random.default_rng(3)
        n = 12
        A = rng.standard_normal((n, n))
        E = random_spd(rng, n)
        pairs = generalized_eig(A, E, want_left=True)
        assert len(pairs) == n
        for p in pairs:
            lam, phi, psi = p.eigenvalue, p.right_vector, p.left_vector
            bound = 1e-8 * (np.linalg.norm(A) + abs(lam) * np.linalg.norm(E)) * np.linalg.norm(phi)
            assert np.linalg.norm(A @ phi - lam * (E @ phi)) <= bound
            assert abs(np.conj(phi) @ (E @ phi) - 1.0) <= 1e-10
            assert np.linalg.norm(np.conj(psi) @ A - lam * (np.conj(psi) @ E)) <= bound
            assert abs(np.conj(psi) @ (E @ phi) - 1.0) <= 1e-8

    def test_symmetric_gives_real_orthonormal(self):
        rng = np.random.default_rng(4)
        n = 10
        A = random_spd(rng, n) * -1.0
        E = random_spd(rng, n)
        pairs = generalized_eig(A, E, want_left=True)
        lam = np.array([p.eigenvalue for p in pairs])
        assert np.all(lam.imag == 0)
        phi = np.column_stack([p.right_vector for p in pairs])
        assert np.linalg.norm(phi.T @ E @ phi - np.eye(n)) <= 1e-8
        assert pairs[0].left_vector is pairs[0].right_vector

    def test_sort_descending_real_then_imag(self):
        # rotation block gives conjugate pair; +imag member must come first
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pairs = generalized_eig(A, np.eye(2))
        lam = [p.eigenvalue for p in pairs]
        assert lam[0].imag > 0 > lam[1].imag

    def test_rank_one_sum_reconstructs_operator_action(self):
        rng = np.random.default_rng(5)
        n = 7
        A = rng.standard_normal((n, n))
        E = random_spd(rng, n)
        pairs = generalized_eig(A, E, want_left=True)
        x = rng.standard_normal(n)
        recon = sum(
            p.eigenvalue * p.right_vector * (np.conj(p.left_vector) @ (E @ x))
            for p in pairs
        )
        exact = np.linalg.solve(E, A @ x)
        assert np.linalg.norm(recon - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_dimension_mismatch(self):
        with pytest.raises(LinearAlgebraError):
            generalized_eig(np.eye(3), np.eye(2))


class TestTruncatedSvd:
    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        U, s, Vh = truncated_svd(np.outer(u, v), 1)
        assert np.isclose(s[0], np.linalg.norm(u) * np.linalg.norm(v))
        assert np.allclose(s[1:], 0.0, atol=1e-12)
        resid = np.outer(u, v) - U @ np.diag(s[:1]) @ Vh
        assert np.linalg.norm(resid) <= 1e-10

    def test_diagonal(self):
        _, s, _ = truncated_svd(np.diag([3.0, 1.0]), 2)
        assert np.allclose(s, [3.0, 1.0])

    def test_gram_matrix_oracle(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((8, 5))
        _, s, _ = truncated_svd(M, 5)
        gram_eigs = np.linalg.eigvalsh(M.T @ M)[::-1]
        assert np.allclose(s, np.sqrt(np.maximum(gram_eigs, 0.0)), atol=1e-8)

    def test_orthonormal_blocks_and_tail_formula(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((10, 6))
        r = 3
        U, s, Vh = truncated_svd(M, r)
        assert np.all(s >= 0) and np.all(np.diff(s) <= 1e-12)
        assert np.linalg.norm(U.T @ U - np.eye(r)) <= 1e-10
        assert np.linalg.norm(Vh @ Vh.T - np.eye(r)) <= 1e-10
        resid = np.linalg.norm(M - U @ np.diag(s[:r]) @ Vh)
        tail = np.sqrt(np.sum(s[r:] ** 2))
        assert abs(resid - tail) <= 1e-8 * max(tail, 1.0)

    def test_optimality_against_random_bases(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((9, 7))
        r = 2
        U, s, Vh = truncated_svd(M, r)
        best = np.linalg.norm(M - U @ (U.T @ M))
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.standard_normal((9, r)))
            assert np.linalg.norm(M - Q @ (Q.T @ M)) >= best - 1e-10

    @pytest.mark.parametrize("r", [0, 6])
    def test_rank_out_of_range(self, r):
        with pytest.raises(LinearAlgebraError):
            truncated_svd(np.eye(5), r)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_residual_bound_random_spd(self):
        rng = np.random.default_rng(11)
        A = random_spd(rng, 3)
        b = rng.standard_normal(3)
        x = solve_linear(A, b)
        resid = np.linalg.norm(A @ x - b)
        assert resid <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))

    def test_singular_reports_rcond(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(A, np.ones(2))
        assert err.value.rcond < 1e-14
        assert "rcond" in str(err.value)

    def test_sparse_matches_dense(self):
        sys_ = heat_rod(30, h_left=1.0)
        A = sys_.operator_at(7.0)
        b = np.random.default_rng(12).standard_normal(30)
        x = solve_linear(A, b)
        assert np.allclose(x, solve_linear(A.toarray(), b), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, length", [(5, 1.0), (7, 0.7), (800, 1.0)])
    def test_sparse_singular_rod_reports_rcond(self, n, length):
        # insulated ends: constants span the null space, exactly or up to round-off
        A = heat_rod(n, length=length, h_left=0.0).operator_at(0.0)
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(A, np.ones(n))
        assert err.value.rcond < 1e-14

    def test_sparse_near_singular_reports_rcond(self):
        # the last pivot is round-off, not an exact zero, so the 1-norm estimate must catch it
        A = sp.csr_array(np.array([[1.0, 2.0, 0.0], [2.0, 4.0 + 1e-15, 0.0], [0.0, 0.0, 3.0]]))
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(A, np.ones(3))
        assert 0.0 < err.value.rcond < 1e-14


def use_no_dense_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the dense eigensolver was called")

    monkeypatch.setattr(numerics, "generalized_eig", forbidden)


def use_no_arpack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ARPACK was called")

    monkeypatch.setattr(numerics.spla, "eigsh", forbidden)


def e_norm(E, x):
    return float(np.sqrt(x @ (E @ x)))


class TestSlowestEigenpairs:
    @pytest.mark.parametrize("n", [50, 200, 800])
    @pytest.mark.parametrize("mu", [0.0, 14.0, 28.0, 120.0])
    @pytest.mark.parametrize("h_left", [0.0, 1.0])
    def test_partial_path_matches_dense_oracle_on_heat_rod(self, n, mu, h_left):
        sys_ = heat_rod(n, h_left=h_left)
        A, E = sys_.operator_at(mu), sys_.mass
        Ed = E.toarray()
        dense = generalized_eig(A.toarray(), Ed)[:6]
        ref = np.array([pr.eigenvalue.real for pr in dense])
        pairs = slowest_eigenpairs(A, E, 6)
        assert sp.issparse(A) and len(pairs) == 6
        lam = np.array([pr.eigenvalue for pr in pairs])
        assert np.all(lam.imag == 0.0)
        # relative above |λ| = 1, absolute below: the insulated rod's slowest eigenvalue is 0, and
        # the dense oracle itself is only accurate to eps ‖E⁻¹A‖ ≈ 6e-10 absolute at n = 800
        assert np.all(np.abs(lam.real - ref) <= 1e-9 * np.maximum(np.abs(ref), 1.0))
        for pr, d in zip(pairs, dense):
            phi, want = pr.right_vector, d.right_vector
            sign = 1.0 if phi @ (Ed @ want) >= 0 else -1.0
            assert e_norm(Ed, phi - sign * want) <= 1e-8
            assert pr.left_vector is None

    def test_partial_path_skips_the_dense_solver(self, monkeypatch):
        sys_ = heat_rod(60, h_left=0.0)
        use_no_dense_solver(monkeypatch)
        pairs = slowest_eigenpairs(sys_.operator_at(0.0), sys_.mass, 4, want_left=True)
        assert all(np.array_equal(pr.left_vector, pr.right_vector) for pr in pairs)

    def test_repeated_calls_agree_bitwise(self):
        sys_ = heat_rod(300, h_left=1.0)
        first = slowest_eigenpairs(sys_.operator_at(14.0), sys_.mass, 6)
        second = slowest_eigenpairs(sys_.operator_at(14.0), sys_.mass, 6)
        for a, b in zip(first, second):
            assert a.eigenvalue == b.eigenvalue
            assert np.array_equal(a.right_vector, b.right_vector)

    def test_dense_input_takes_the_partial_path(self, monkeypatch):
        sys_ = heat_rod(40, h_left=1.0)
        A, E = sys_.operator_at(3.0), sys_.mass
        sparse = slowest_eigenpairs(A, E, 5)
        use_no_dense_solver(monkeypatch)
        dense = slowest_eigenpairs(A.toarray(), E.toarray(), 5)
        assert np.allclose([p.eigenvalue for p in dense], [p.eigenvalue for p in sparse], rtol=1e-12)

    def test_shift_grows_above_positive_eigenvalues(self):
        # spectrum 0, 1, ..., 99: the slowest modes are the largest, far above the first shift
        n = 100
        A = sp.diags_array(np.arange(n, dtype=float), format="csr")
        pairs = slowest_eigenpairs(A, sp.diags_array(np.ones(n), format="csr"), 3)
        assert np.allclose([p.eigenvalue.real for p in pairs], [99.0, 98.0, 97.0], rtol=1e-12)
        for p, k in zip(pairs, (99, 98, 97)):
            assert abs(abs(p.right_vector[k]) - 1.0) <= 1e-10

    def test_m_equal_n_takes_the_dense_path(self, monkeypatch):
        sys_ = heat_rod(12, h_left=1.0)
        A, E = sys_.operator_at(5.0), sys_.mass
        use_no_arpack(monkeypatch)
        pairs = slowest_eigenpairs(A, E, 12)
        dense = generalized_eig(A.toarray(), E.toarray())
        assert [p.eigenvalue for p in pairs] == [p.eigenvalue for p in dense]
        assert all(np.array_equal(p.right_vector, d.right_vector) for p, d in zip(pairs, dense))

    def test_non_symmetric_pencil_takes_the_dense_path(self, monkeypatch):
        fos = first_order_form(spring_chain_with_defect(20))
        A, E = fos.operator_at(3.3), fos.mass
        use_no_arpack(monkeypatch)
        pairs = slowest_eigenpairs(A, E, 5, want_left=True)
        tracked = [p for p in generalized_eig(A.toarray(), E.toarray(), want_left=True) if p.eigenvalue.imag >= 0]
        assert len(pairs) == 5
        for p, d in zip(pairs, tracked):
            assert p.eigenvalue == d.eigenvalue
            assert np.array_equal(p.right_vector, d.right_vector)
            assert np.array_equal(p.left_vector, d.left_vector)

    def test_mode_count_validated(self):
        sys_ = heat_rod(10)
        with pytest.raises(LinearAlgebraError):
            slowest_eigenpairs(sys_.operator_at(1.0), sys_.mass, 0)
        with pytest.raises(LinearAlgebraError):
            slowest_eigenpairs(sys_.operator_at(1.0), sp.diags_array(np.ones(9)), 1)

    def test_indefinite_mass_rejected(self):
        n = 40
        E = sp.diags_array(np.r_[np.ones(n - 1), -1.0], format="csr")
        with pytest.raises(IndefiniteMatrixError):
            slowest_eigenpairs(heat_rod(n).operator_at(1.0), E, 2)


def dense_arpack(skip: int = 0, perturb: float = 0.0, duplicate: bool = False):
    """An eigsh stand-in returning dense eigenpairs, optionally the wrong ones."""

    def eigsh(A, k, M, **kwargs):
        w, v = scipy.linalg.eigh(A.toarray(), M.toarray())
        w, v = w[::-1][skip:skip + k].copy(), v[:, ::-1][:, skip:skip + k].copy()
        v[0, 0] += perturb
        if duplicate:
            v[:, 1] = v[:, 0]
            w[1] = w[0]
        return w, v

    return eigsh


class TestPartialSelfChecks:
    """The partial path checks its own result and raises instead of returning wrong modes."""

    @pytest.fixture
    def pencil(self):
        sys_ = heat_rod(40, h_left=1.0)
        return sys_.operator_at(10.0), sys_.mass

    def test_stand_in_passes_when_it_returns_the_right_modes(self, pencil, monkeypatch):
        expected = slowest_eigenpairs(*pencil, 4)
        monkeypatch.setattr(numerics.spla, "eigsh", dense_arpack())
        got = slowest_eigenpairs(*pencil, 4)
        assert np.allclose([p.eigenvalue for p in got], [p.eigenvalue for p in expected], rtol=1e-10)

    def test_missed_slowest_mode_fails_the_inertia_count(self, pencil, monkeypatch):
        monkeypatch.setattr(numerics.spla, "eigsh", dense_arpack(skip=1))
        with pytest.raises(EigensolverError, match="inertia"):
            slowest_eigenpairs(*pencil, 4)

    def test_inaccurate_pair_fails_the_residual_check(self, pencil, monkeypatch):
        monkeypatch.setattr(numerics.spla, "eigsh", dense_arpack(perturb=1e-6))
        with pytest.raises(EigensolverError, match="backward error"):
            slowest_eigenpairs(*pencil, 4)

    def test_repeated_pair_fails_the_orthonormality_check(self, pencil, monkeypatch):
        monkeypatch.setattr(numerics.spla, "eigsh", dense_arpack(duplicate=True))
        with pytest.raises(EigensolverError, match="orthonormal"):
            slowest_eigenpairs(*pencil, 4)

    def test_arpack_failure_becomes_eigensolver_error(self, pencil, monkeypatch):
        def failing(*args, **kwargs):
            raise numerics.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((40, 0)))

        monkeypatch.setattr(numerics.spla, "eigsh", failing)
        with pytest.raises(EigensolverError, match="ARPACK"):
            slowest_eigenpairs(*pencil, 4)
