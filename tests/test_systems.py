from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eigendeform import systems
from eigendeform.numerics import SingularMatrixError, generalized_eig, solve_linear
from eigendeform.systems import (
    AffineDecomposition,
    EquilibriumError,
    FullOrderSystem,
    GeneratorError,
    equilibrium,
    first_order_form,
    heat_rod,
    spring_chain_with_defect,
    traveling_bump_family,
)


class TestHeatRod:
    def test_three_node_energy_balance(self):
        # half-cell balance written out by hand for n=3, L=1, k=1, rho*c=1, h_left=1
        sys_ = heat_rod(3, length=1.0, conductivity=1.0, heat_capacity=1.0, h_left=1.0)
        assert np.allclose(sys_.mass.toarray(), np.diag([0.25, 0.5, 0.25]))
        mu = 3.7
        A = sys_.operator_at(mu).toarray()
        expected = np.array([[-3.0, 2.0, 0.0], [2.0, -4.0, 2.0], [0.0, 2.0, -(2.0 + mu)]])
        assert np.allclose(A, expected)

    def test_source_vector(self):
        sys_ = heat_rod(4, length=1.5, h_left=2.0, t_ambient=300.0, heat_source=6.0)
        dx = 0.5
        b = sys_.source_at(5.0)
        assert np.isclose(b[0], 2.0 * 300.0 + 6.0 * dx / 2)
        assert np.allclose(b[1:-1], 6.0 * dx)
        assert np.isclose(b[-1], 5.0 * 300.0 + 6.0 * dx / 2)

    def test_insulated_rod_conserves_constant_mode(self):
        sys_ = heat_rod(8, h_left=0.0)
        A = sys_.operator_at(0.0)
        assert np.allclose(A @ np.ones(8), 0.0, atol=1e-13)

    def test_operator_symmetric_and_eigenvalues_negative(self):
        sys_ = heat_rod(50, h_left=1.0)
        for mu in (0.0, 4.0, 28.0):
            A = sys_.operator_at(mu).toarray()
            assert np.allclose(A, A.T)
            lam, _, _ = generalized_eig(A, sys_.mass.toarray())
            assert np.all(lam.real < 0)

    def test_slowest_eigenvalue_magnitude_grows_with_mu(self):
        sys_ = heat_rod(50, h_left=1.0)
        slowest = []
        for mu in np.linspace(0.0, 28.0, 8):
            lam, _, _ = generalized_eig(sys_.operator_at(mu).toarray(), sys_.mass.toarray())
            slowest.append(abs(lam[0].real))
        assert np.all(np.diff(slowest) > 0)

    @pytest.mark.parametrize("n, length, h_left", [(3, 1.0, 1.0), (9, 0.7, 0.0), (200, 2.5, 3.0)])
    def test_sparse_operator_equals_hand_written_dense(self, n, length, h_left):
        conductivity, heat_capacity = 1.3, 0.9
        sys_ = heat_rod(n, length=length, conductivity=conductivity, heat_capacity=heat_capacity, h_left=h_left)
        dx = length / (n - 1)
        g = conductivity / dx
        cells = np.full(n, dx)
        cells[0] = cells[-1] = dx / 2.0
        base = np.zeros((n, n))
        for i in range(1, n - 1):
            base[i, i - 1] = g
            base[i, i] = -2.0 * g
            base[i, i + 1] = g
        base[0, 0] = -(g + h_left)
        base[0, 1] = g
        base[-1, -2] = g
        assert sp.issparse(sys_.mass) and np.array_equal(sys_.mass.toarray(), heat_capacity * np.diag(cells))
        nnz = None
        for mu in (0.0, 14.0, 120.0):
            A = sys_.operator_at(mu)
            expected = base.copy()
            expected[-1, -1] = -(g + mu)
            assert sp.issparse(A) and np.array_equal(A.toarray(), expected)
            nnz = A.nnz if nnz is None else nnz
            assert A.nnz == nnz  # one fixed pattern for every mu

    def test_operator_calls_do_not_share_storage(self):
        sys_ = heat_rod(6)
        A = sys_.operator_at(1.0)
        sys_.operator_at(50.0)
        assert A.toarray()[-1, -1] == -(5.0 + 1.0)

    def test_input_validation(self):
        with pytest.raises(GeneratorError):
            heat_rod(2)
        with pytest.raises(GeneratorError):
            heat_rod(5, conductivity=-1.0)
        with pytest.raises(GeneratorError):
            heat_rod(5, h_left=-0.1)
        with pytest.raises(GeneratorError):
            heat_rod(5, mu_domain=(120.0, 0.0))
        with pytest.raises(GeneratorError):
            heat_rod(5, mu_domain=(float("nan"), 1.0))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.integers(3, 30),
        h_left=st.sampled_from([0.0, 1.0, 2.5]),
        mu=st.floats(-50.0, 300.0, allow_nan=False),
    )
    def test_affine_declaration_reproduces_operator_and_source(self, n, h_left, mu):
        sys_ = heat_rod(n, length=0.7, h_left=h_left, t_ambient=293.0, heat_source=5.0)
        aff = sys_.affine
        assert aff.mu_ref == sys_.parameter_domain[1]
        theta = mu - aff.mu_ref
        A_ref = sys_.operator_at(aff.mu_ref).toarray()
        A = A_ref + theta * np.outer(aff.u, aff.v)
        b_ref = sys_.source_at(aff.mu_ref)
        b = b_ref + theta * aff.source
        # equal up to the rounding of the one sum per entry
        assert np.allclose(A, sys_.operator_at(mu).toarray(), rtol=0.0,
                           atol=4 * np.finfo(float).eps * (np.abs(A_ref).max() + abs(theta)))
        assert np.allclose(b, sys_.source_at(mu), rtol=0.0,
                           atol=4 * np.finfo(float).eps * (np.abs(b_ref).max() + abs(theta * 293.0)))


def spring_constants(K):
    """Recover the per-spring stiffnesses from an anchored-chain operator."""
    n = K.shape[0]
    springs = np.empty(n)
    for j in range(1, n):
        springs[j] = K[j - 1, j]
    springs[0] = -K[0, 0] - springs[1] if n > 1 else -K[0, 0]
    return springs


class TestSpringChain:
    def test_two_mass_free_body(self):
        sys_ = spring_chain_with_defect(2, mass=1.0, k_nominal=1.0, k_defect=1.0)
        K = sys_.stiffness_at(1.7).toarray()
        assert np.allclose(K, -np.array([[2.0, -1.0], [-1.0, 1.0]]))

    def test_equal_defect_is_invisible(self):
        sys_ = spring_chain_with_defect(5, k_nominal=2.0, k_defect=2.0)
        K0 = sys_.stiffness_at(0.3).toarray()
        for mu in (1.2, 2.9, 4.6):
            assert np.array_equal(sys_.stiffness_at(mu).toarray(), K0)

    def test_symmetric_negative_definite(self):
        sys_ = spring_chain_with_defect(6, k_nominal=1.0, k_defect=0.4)
        K = sys_.stiffness_at(2.2).toarray()
        assert np.allclose(K, K.T)
        assert np.all(np.linalg.eigvalsh(K) < 0)

    def test_crossing_one_midpoint_boundary_moves_the_defect_one_spring(self):
        sys_ = spring_chain_with_defect(6, k_nominal=1.0, k_defect=0.25)
        # midpoints at j + 0.5; decision boundary between springs 2 and 3 sits at 2.0
        below = spring_constants(sys_.stiffness_at(1.9).toarray())
        above = spring_constants(sys_.stiffness_at(2.1).toarray())
        assert np.argmin(below) == 1 and np.argmin(above) == 2
        changed = np.nonzero(~np.isclose(below, above))[0]
        assert set(changed) == {1, 2}
        # within one cell the assembly is constant
        assert np.array_equal(sys_.stiffness_at(1.6).toarray(), sys_.stiffness_at(1.9).toarray())

    @pytest.mark.parametrize("mu", [0.0, 2.2, 5.0])
    def test_sparse_stiffness_equals_hand_written_dense(self, mu):
        n_mass, k_nominal, k_defect = 5, 1.5, 0.3
        sys_ = spring_chain_with_defect(n_mass, mass=2.0, k_nominal=k_nominal, k_defect=k_defect)
        springs = np.full(n_mass, k_nominal)
        springs[int(np.argmin(np.abs(np.arange(n_mass) + 0.5 - mu)))] = k_defect
        K = np.zeros((n_mass, n_mass))
        K[0, 0] = springs[0]
        for j in range(1, n_mass):
            K[j - 1, j - 1] += springs[j]
            K[j, j] += springs[j]
            K[j - 1, j] -= springs[j]
            K[j, j - 1] -= springs[j]
        assert sp.issparse(sys_.stiffness_at(mu))
        assert np.array_equal(sys_.stiffness_at(mu).toarray(), -K)
        assert np.array_equal(sys_.mass.toarray(), 2.0 * np.eye(n_mass))
        fos = first_order_form(sys_)
        zero, eye = np.zeros((n_mass, n_mass)), np.eye(n_mass)
        assert np.array_equal(fos.mass.toarray(), np.block([[eye, zero], [zero, 2.0 * eye]]))
        assert np.array_equal(fos.operator_at(mu).toarray(), np.block([[zero, eye], [-K, zero]]))

    def test_defect_position_validation(self):
        sys_ = spring_chain_with_defect(4)
        with pytest.raises(GeneratorError):
            sys_.stiffness_at(-0.1)
        with pytest.raises(GeneratorError):
            sys_.stiffness_at(4.5)
        with pytest.raises(GeneratorError):
            spring_chain_with_defect(4, k_defect=2.0, k_nominal=1.0)


class TestFirstOrderForm:
    def test_single_oscillator(self):
        from eigendeform.systems import SecondOrderSystem

        one = SecondOrderSystem(np.array([[1.0]]), lambda mu: np.array([[-1.0]]), (0.0, 1.0))
        fos = first_order_form(one)
        assert np.array_equal(fos.mass.toarray(), np.eye(2))
        assert np.array_equal(fos.operator_at(0.5).toarray(), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        lam, _, _ = generalized_eig(fos.operator_at(0.5).toarray(), fos.mass.toarray())
        assert np.allclose(sorted(lam.imag), [-1.0, 1.0]) and np.allclose(lam.real, 0.0)

    def test_decoupled_oscillators_map_to_plus_minus_i_omega(self):
        from eigendeform.systems import SecondOrderSystem

        omega = np.array([1.5, 2.5])
        two = SecondOrderSystem(np.eye(2), lambda mu: -np.diag(omega**2), (0.0, 1.0))
        fos = first_order_form(two)
        lam, _, _ = generalized_eig(fos.operator_at(0.0).toarray(), fos.mass.toarray())
        assert np.allclose(np.sort(lam.imag), [-2.5, -1.5, 1.5, 2.5], atol=1e-10)
        assert np.allclose(lam.real, 0.0, atol=1e-10)

    def test_chain_spectrum_purely_imaginary_pairs(self):
        sys2 = spring_chain_with_defect(2, k_nominal=1.0, k_defect=0.5)
        fos = first_order_form(sys2)
        mu = 0.5
        lam, _, _ = generalized_eig(fos.operator_at(mu).toarray(), fos.mass.toarray())
        assert np.allclose(lam.real, 0.0, atol=1e-10)
        # matches +/- sqrt of the pencil (K, M) spectrum
        nu = np.linalg.eigvalsh(sys2.stiffness_at(mu).toarray())
        omegas = np.sqrt(-nu)
        assert np.allclose(np.sort(lam.imag), np.sort(np.concatenate([-omegas, omegas])), atol=1e-9)

    def test_zero_source(self):
        fos = first_order_form(spring_chain_with_defect(3))
        assert np.array_equal(fos.source_at(1.0), np.zeros(6))


@pytest.fixture
def solve_calls(monkeypatch):
    """Right-hand-side shapes of the solve_linear calls that systems makes."""
    calls = []

    def counted(A, b, *args, **kwargs):
        calls.append(np.shape(b))
        return solve_linear(A, b, *args, **kwargs)

    monkeypatch.setattr(systems, "solve_linear", counted)
    return calls


class TestEquilibrium:
    def test_zero_source_gives_origin(self):
        sys_ = heat_rod(5, h_left=1.0, t_ambient=0.0, heat_source=0.0)
        assert np.array_equal(equilibrium(sys_, 2.0), np.zeros(5))

    def test_single_cell_isothermal_balance(self):
        h, t_inf = 2.0, 293.0
        cell = FullOrderSystem(
            1,
            np.array([[1.0]]),
            lambda mu: np.array([[-h]]),
            lambda mu: np.array([h * t_inf]),
            (0.0, 1.0),
        )
        assert np.allclose(equilibrium(cell, 0.0), [t_inf])

    def test_residual_bound_on_heat_rod(self):
        sys_ = heat_rod(3, h_left=1.0, t_ambient=293.0, heat_source=4.0)
        mu = 2.0
        xbar = equilibrium(sys_, mu)
        A, b = sys_.operator_at(mu).toarray(), sys_.source_at(mu)
        resid = np.linalg.norm(A @ xbar + b)
        assert resid <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(xbar) + np.linalg.norm(b))

    def test_insulated_rod_with_generation_has_no_steady_state(self):
        sys_ = heat_rod(5, h_left=0.0, t_ambient=293.0, heat_source=1.0)
        with pytest.raises(EquilibriumError):
            equilibrium(sys_, 0.0)

    @pytest.mark.parametrize("n, length", [(7, 0.7), (800, 1.0)])
    def test_insulated_rod_singular_up_to_round_off(self, n, length):
        # a non-integer conductance leaves round-off in the zero pivot
        sys_ = heat_rod(n, length=length, h_left=0.0, heat_source=1.0)
        with pytest.raises(EquilibriumError):
            equilibrium(sys_, 0.0)

    def test_sparse_lu_matches_dense_solve(self):
        sys_ = heat_rod(300, h_left=1.0, t_ambient=293.0, heat_source=5.0)
        xbar = equilibrium(sys_, 15.0)
        dense = np.linalg.solve(sys_.operator_at(15.0).toarray(), -sys_.source_at(15.0))
        assert np.allclose(xbar, dense, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("h_left", [1.0, 0.0])
    @pytest.mark.parametrize("n", [7, 40, 800])
    def test_affine_update_matches_sparse_lu_over_the_domain(self, n, h_left):
        sys_ = heat_rod(n, h_left=h_left, t_ambient=293.0, heat_source=5.0)
        mus = np.concatenate((np.linspace(0.0, 120.0, 241), [1e-3, 0.1, 0.12, 0.13, 0.5]))
        solved = 0
        for mu in mus:
            try:
                direct = solve_linear(sys_.operator_at(mu), -sys_.source_at(mu))
            except SingularMatrixError:
                with pytest.raises(EquilibriumError):
                    equilibrium(sys_, mu)
                continue
            xbar = equilibrium(sys_, mu)
            assert np.linalg.norm(xbar - direct) <= 1e-12 * np.linalg.norm(direct), mu
            solved += 1
        assert solved >= (len(mus) if h_left > 0 else len(mus) - 1)

    def test_one_reference_solve_serves_every_parameter(self, solve_calls):
        sys_ = heat_rod(200, h_left=1.0, t_ambient=293.0, heat_source=5.0)
        assert solve_calls == []  # building the system solves nothing
        for mu in np.linspace(0.0, 120.0, 50):
            equilibrium(sys_, mu)
        assert solve_calls == [(200, 3)]

    def test_near_singular_capacitance_falls_back_to_a_direct_solve(self, solve_calls):
        sys_ = heat_rod(40, h_left=0.0, t_ambient=293.0, heat_source=5.0)
        equilibrium(sys_, 1e-3)  # capacitance 8.3e-6: below CAPACITANCE_TOL
        equilibrium(sys_, 60.0)
        assert solve_calls == [(40, 3), (40,)]

    def test_systems_sharing_a_declaration_keep_their_own_solve(self, solve_calls):
        # (mu_ref, u, v, source) holds for any h_left, but the operators differ
        rod = heat_rod(40, h_left=1.0, t_ambient=293.0, heat_source=5.0)
        other = replace(heat_rod(40, h_left=2.0, t_ambient=293.0, heat_source=5.0), affine=rod.affine)

        def check(sys_):
            for mu in (0.0, 7.5, 120.0):
                direct = solve_linear(sys_.operator_at(mu), -sys_.source_at(mu))
                xbar = equilibrium(sys_, mu)
                assert np.linalg.norm(xbar - direct) <= 1e-12 * np.linalg.norm(direct), mu

        check(rod)
        check(other)
        # a replacement made after the rod's solve is kept does its own
        check(replace(rod, operator_at=other.operator_at, source_at=other.source_at))
        assert solve_calls == [(40, 3)] * 3

    def test_singular_reference_falls_back_to_a_direct_solve(self):
        # A(mu) = diag(-1, -mu) with its reference at the singular mu = 0
        sys_ = FullOrderSystem(
            2,
            np.eye(2),
            lambda mu: np.diag([-1.0, -mu]),
            lambda mu: np.array([1.0, 2.0 * mu]),
            (0.0, 1.0),
            affine=AffineDecomposition(0.0, np.array([0.0, -1.0]), np.array([0.0, 1.0]), np.array([0.0, 2.0])),
        )
        assert np.allclose(equilibrium(sys_, 0.5), [1.0, 2.0])
        assert sys_._affine_reference == [None]
        with pytest.raises(EquilibriumError):
            equilibrium(sys_, 0.0)

    def test_undeclared_dense_system_is_solved_directly(self):
        rng = np.random.default_rng(3)
        A0 = -6.0 * np.eye(6) + rng.standard_normal((6, 6))
        b0 = rng.standard_normal(6)
        sys_ = FullOrderSystem(6, np.eye(6), lambda mu: A0 - mu * np.eye(6), lambda mu: b0 * (1.0 + mu), (0.0, 2.0))
        for mu in (0.0, 0.7, 2.0):
            direct = solve_linear(A0 - mu * np.eye(6), -(b0 * (1.0 + mu)))
            assert np.array_equal(equilibrium(sys_, mu), direct)


class TestTravelingBump:
    def test_symmetry_at_center(self):
        v = traveling_bump_family(41, 3.0, 0.5)
        assert np.allclose(v, v[::-1])
        assert np.isclose(np.linalg.norm(v), 1.0)

    def test_distant_bumps_nearly_orthogonal(self):
        a = traveling_bump_family(200, 2.0, 0.1)
        b = traveling_bump_family(200, 2.0, 0.9)
        assert abs(a @ b) < 1e-6

    def test_deterministic(self):
        assert np.array_equal(
            traveling_bump_family(64, 2.0, 0.37), traveling_bump_family(64, 2.0, 0.37)
        )

    def test_validation(self):
        with pytest.raises(GeneratorError):
            traveling_bump_family(10, 0.0, 0.5)
        with pytest.raises(GeneratorError):
            traveling_bump_family(10, 1.0, 1.5)
