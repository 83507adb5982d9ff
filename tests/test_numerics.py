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
        lam, phi, _ = generalized_eig(np.diag([-1.0, -2.0]), np.eye(2))
        assert lam.tolist() == [-1.0, -2.0]
        assert np.allclose(np.abs(phi), np.eye(2))

    def test_hand_characteristic_polynomial(self):
        # lambda^2 + 3 lambda + 2 = 0 -> -1, -2; eigenvector of -1 is (1, -1)
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        lam, phi, _ = generalized_eig(A, np.eye(2))
        assert np.allclose(lam, [-1.0, -2.0])
        v = phi[:, 0]
        assert np.allclose(v / v[0], [1.0, -1.0])

    def test_residual_and_normalization(self):
        rng = np.random.default_rng(3)
        n = 12
        A = rng.standard_normal((n, n))
        E = random_spd(rng, n)
        w, right, left = generalized_eig(A, E, want_left=True)
        assert w.shape == (n,)
        for lam, phi, psi in zip(w, right.T, left.T):
            bound = 1e-8 * (np.linalg.norm(A) + abs(lam) * np.linalg.norm(E)) * np.linalg.norm(phi)
            assert np.linalg.norm(A @ phi - lam * (E @ phi)) <= bound
            assert abs(np.conj(phi) @ (E @ phi) - 1.0) <= 1e-10
            assert np.linalg.norm(np.conj(psi) @ A - lam * (np.conj(psi) @ E)) <= bound
            assert abs(np.conj(psi) @ (E @ phi) - 1.0) <= 1e-8

    def test_biorthonormal_columns_on_non_symmetric_pencil(self):
        rng = np.random.default_rng(6)
        n = 9
        A = rng.standard_normal((n, n))
        E = random_spd(rng, n)
        _, right, left = generalized_eig(A, E, want_left=True)
        assert np.all(np.abs(np.diag(left.conj().T @ E @ right) - 1.0) <= 1e-10)
        assert np.all(np.abs(np.einsum("ij,ik,kj->j", right.conj(), E, right) - 1.0) <= 1e-12)

    def test_symmetric_gives_real_orthonormal(self):
        rng = np.random.default_rng(4)
        n = 10
        A = random_spd(rng, n) * -1.0
        E = random_spd(rng, n)
        lam, phi, left = generalized_eig(A, E, want_left=True)
        assert np.all(lam.imag == 0)
        assert np.linalg.norm(phi.T @ E @ phi - np.eye(n)) <= 1e-8
        assert left is None

    def test_defective_pencil_names_its_eigenvalue(self):
        # 5 comes first and is simple; the Jordan block's left and right eigenvectors of 2 are E-orthogonal
        A = np.array([[5.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        with pytest.raises(EigensolverError, match=r"eigenvalue 2\b.*defective"):
            generalized_eig(A, np.eye(3), want_left=True)

    def test_sort_descending_real_then_imag(self):
        # rotation block gives conjugate pair; +imag member must come first
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lam, _, _ = generalized_eig(A, np.eye(2))
        assert lam[0].imag > 0 > lam[1].imag

    def test_rank_one_sum_reconstructs_operator_action(self):
        rng = np.random.default_rng(5)
        n = 7
        A = rng.standard_normal((n, n))
        E = random_spd(rng, n)
        lam, right, left = generalized_eig(A, E, want_left=True)
        x = rng.standard_normal(n)
        recon = right @ (lam * (left.conj().T @ (E @ x)))
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

    def test_complex_sparse_near_singular_reports_rcond(self):
        A = sp.csr_array(np.array([[1.0, 2j, 0.0], [-2j, 4.0 + 1e-15, 0.0], [0.0, 0.0, 3.0]]))
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(A, np.ones(3))
        assert 0.0 < err.value.rcond < 1e-14

    def test_complex_sparse_matches_dense(self):
        rng = np.random.default_rng(13)
        dense = (rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))) * (rng.random((60, 60)) < 0.1)
        dense += 4.0 * np.eye(60)
        b = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        x = solve_linear(sp.csr_array(dense), b)
        assert np.allclose(x, solve_linear(dense, b), rtol=1e-12, atol=0.0)


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
        ref_lam, ref_right, _ = generalized_eig(A.toarray(), Ed)
        ref = ref_lam[:6].real
        lam, right, left = slowest_eigenpairs(A, E, 6)
        assert sp.issparse(A) and lam.shape == (6,)
        assert np.all(lam.imag == 0.0)
        # relative above |λ| = 1, absolute below: the insulated rod's slowest eigenvalue is 0, and
        # the dense oracle itself is only accurate to eps ‖E⁻¹A‖ ≈ 6e-10 absolute at n = 800
        assert np.all(np.abs(lam.real - ref) <= 1e-9 * np.maximum(np.abs(ref), 1.0))
        for phi, want in zip(right.T, ref_right.T):
            sign = 1.0 if phi @ (Ed @ want) >= 0 else -1.0
            assert e_norm(Ed, phi - sign * want) <= 1e-8
        assert left is None

    def test_partial_path_skips_the_dense_solver(self, monkeypatch):
        sys_ = heat_rod(60, h_left=0.0)
        use_no_dense_solver(monkeypatch)
        _, _, left = slowest_eigenpairs(sys_.operator_at(0.0), sys_.mass, 4, want_left=True)
        assert left is None

    @pytest.mark.parametrize(
        "make, m, symmetric",
        [
            (lambda: heat_rod(40, h_left=1.0), 4, True),  # partial path
            (lambda: heat_rod(12, h_left=1.0), 12, True),  # m = n: dense path
            (lambda: first_order_form(spring_chain_with_defect(8)), 5, False),
        ],
        ids=["rod-partial", "rod-dense", "chain"],
    )
    @pytest.mark.parametrize("densify", [False, True], ids=["sparse", "dense"])
    def test_shapes_and_dtypes(self, make, m, symmetric, densify):
        sys_ = make()
        A, E = sys_.operator_at(3.0), sys_.mass
        if densify:
            A, E = A.toarray(), E.toarray()
        n = sys_.n
        for lam, right, left, k in (
            (*slowest_eigenpairs(A, E, m, want_left=True), m),
            (*generalized_eig(A, E, want_left=True), n),
        ):
            assert lam.shape == (k,) and lam.dtype == np.complex128
            assert right.shape == (n, k) and right.dtype == (np.float64 if symmetric else np.complex128)
            if symmetric:
                assert left is None
            else:
                assert left.shape == (n, k) and left.dtype == np.complex128

    def test_real_pencil_returns_fewer_than_m(self):
        # an undamped 3-mass chain has 3 conjugate pairs: only their upper members are tracked
        fos = first_order_form(spring_chain_with_defect(3))
        lam, right, left = slowest_eigenpairs(fos.operator_at(1.0), fos.mass, 5, want_left=True)
        assert lam.shape == (3,) and right.shape == (6, 3) and left.shape == (6, 3)
        assert np.all(lam.imag > 0)

    def test_left_vectors_only_on_request(self):
        fos = first_order_form(spring_chain_with_defect(6))
        _, _, left = slowest_eigenpairs(fos.operator_at(1.0), fos.mass, 3)
        assert left is None

    def test_repeated_calls_agree_bitwise(self):
        sys_ = heat_rod(300, h_left=1.0)
        first = slowest_eigenpairs(sys_.operator_at(14.0), sys_.mass, 6)
        second = slowest_eigenpairs(sys_.operator_at(14.0), sys_.mass, 6)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_dense_input_takes_the_partial_path(self, monkeypatch):
        sys_ = heat_rod(40, h_left=1.0)
        A, E = sys_.operator_at(3.0), sys_.mass
        sparse, _, _ = slowest_eigenpairs(A, E, 5)
        use_no_dense_solver(monkeypatch)
        dense, _, _ = slowest_eigenpairs(A.toarray(), E.toarray(), 5)
        assert np.allclose(dense, sparse, rtol=1e-12)

    def test_shift_grows_above_positive_eigenvalues(self):
        # spectrum 0, 1, ..., 99: the slowest modes are the largest, far above the first shift
        n = 100
        A = sp.diags_array(np.arange(n, dtype=float), format="csr")
        lam, right, _ = slowest_eigenpairs(A, sp.diags_array(np.ones(n), format="csr"), 3)
        assert np.allclose(lam.real, [99.0, 98.0, 97.0], rtol=1e-12)
        for phi, k in zip(right.T, (99, 98, 97)):
            assert abs(abs(phi[k]) - 1.0) <= 1e-10

    def test_m_equal_n_takes_the_dense_path(self, monkeypatch):
        sys_ = heat_rod(12, h_left=1.0)
        A, E = sys_.operator_at(5.0), sys_.mass
        use_no_arpack(monkeypatch)
        lam, right, _ = slowest_eigenpairs(A, E, 12)
        dense_lam, dense_right, _ = generalized_eig(A.toarray(), E.toarray())
        assert lam.tolist() == dense_lam.tolist()
        assert np.array_equal(right, dense_right)

    def test_non_symmetric_pencil_takes_the_dense_path(self, monkeypatch):
        fos = first_order_form(spring_chain_with_defect(20))
        A, E = fos.operator_at(3.3), fos.mass
        use_no_arpack(monkeypatch)
        lam, right, left = slowest_eigenpairs(A, E, 5, want_left=True)
        full_lam, full_right, full_left = generalized_eig(A.toarray(), E.toarray(), want_left=True)
        tracked = full_lam.imag >= 0
        assert lam.shape == (5,)
        assert np.array_equal(lam, full_lam[tracked][:5])
        assert np.array_equal(right, full_right[:, tracked][:, :5])
        assert np.array_equal(left, full_left[:, tracked][:, :5])

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
        expected, _, _ = slowest_eigenpairs(*pencil, 4)
        monkeypatch.setattr(numerics.spla, "eigsh", dense_arpack())
        got, _, _ = slowest_eigenpairs(*pencil, 4)
        assert np.allclose(got, expected, rtol=1e-10)

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
