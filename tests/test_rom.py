import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import eigendeform.numerics as numerics_module
import eigendeform.rom as rom_module
from eigendeform.edm import (
    OutOfDomainError,
    direct_interpolate,
    extract_edm_basis,
    interpolate_columns,
    interpolate_mode,
)
from eigendeform.modal import ModeDatabase, align_database, database_from_modes, pair_modes, sample_spectrum
from eigendeform.numerics import EigensolverError, MassFactor, as_dense, generalized_eig, solve_linear
from eigendeform.rom import (
    Rom,
    benchmark_strategies,
    build_rom_at_sample,
    build_rom_interpolated,
    default_horizon,
    simulate_full,
    simulate_rom,
    solution_interpolation,
    trajectory_error,
)
from eigendeform.systems import (
    FullOrderSystem,
    SecondOrderSystem,
    equilibrium,
    first_order_form,
    heat_rod,
    spring_chain_with_defect,
)


@pytest.fixture(scope="module")
def rod():
    return heat_rod(30, h_left=1.0, t_ambient=293.0, heat_source=5.0)


@pytest.fixture(scope="module")
def rod_db(rod):
    return align_database(pair_modes(sample_spectrum(rod, np.linspace(0.0, 28.0, 8), 6)))


@pytest.fixture(scope="module")
def chain():
    return first_order_form(spring_chain_with_defect(5, k_defect=0.5))


@pytest.fixture(scope="module")
def chain_db(chain):
    return align_database(pair_modes(sample_spectrum(chain, np.linspace(0.5, 4.5, 5), 3)))


@pytest.fixture(scope="module")
def repeated():
    """A non-symmetric operator with a double, semisimple conjugate pair: xGEEV's
    vectors of a repeated λ are any basis of its eigenspace."""
    rotation = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    S = np.random.default_rng(5).standard_normal((4, 4))
    A = S @ np.kron(np.eye(2), rotation) @ np.linalg.inv(S)
    return FullOrderSystem(4, np.eye(4), lambda mu: A, lambda mu: np.zeros(4), (0.0, 1.0))


# (system fixture, mu, initial state) of the full-order reference checks: the rod's
# x0 is its equilibrium at another parameter, the others' a random state
REFERENCE_CASES = [
    pytest.param("rod", 11.0, None, id="rod"),
    pytest.param("chain", 1.5, 3, id="chain"),
    pytest.param("repeated", 0.0, 4, id="repeated"),
]


def reference_case(request, name, mu, seed):
    sys_ = request.getfixturevalue(name)
    x0 = equilibrium(sys_, 60.0) if seed is None else np.random.default_rng(seed).standard_normal(sys_.n)
    return sys_, mu, x0


def edm_bases(db, rank=2):
    """Right and left (None when self-adjoint) deformation bases of every chain."""
    right = [extract_edm_basis(db, i, rank=rank) for i in range(db.m)]
    left = None if db.left is None else [extract_edm_basis(db, i, rank=rank, which="left") for i in range(db.m)]
    return right, left


def explicit_lift(rom, x0, times):
    """x̄ + Re(Φ · diag(weight ⊙ x̂₀) · e^{λt}), all in complex arithmetic."""
    F = rom.mass_factor
    xhat0 = (F @ rom.adjoint).conj().T @ (F @ (x0 - rom.equilibrium))
    lam = rom.eigenvalues.astype(complex)
    conjugate_pair = np.iscomplexobj(rom.basis) & (np.abs(lam.imag) > 1e-12 * np.maximum(1.0, np.abs(lam)))
    modal = (np.where(conjugate_pair, 2.0, 1.0) * xhat0)[:, None] * np.exp(np.outer(lam, times))
    return rom.equilibrium[:, None] + np.real(rom.basis.astype(complex) @ modal)


def assert_lift_matches_formula(rom, x0, times):
    """simulate_rom is real float64, finite, and within 1e-13 of explicit_lift relative to the deviation."""
    states = simulate_rom(rom, x0, times).states
    expected = explicit_lift(rom, x0, times)
    assert states.dtype == np.float64 and states.shape == expected.shape
    assert np.all(np.isfinite(states))
    deviation = expected - rom.equilibrium[:, None]
    assert np.linalg.norm(states - expected) <= 1e-13 * np.linalg.norm(deviation)


def complex_spectral_lift(sys_, mu, x0, times, project=False):
    """x̄ + Re(Φ · diag(c) · e^{λt}), all in complex arithmetic.

    c solves Φc = x0 − x̄ by LU, or with ``project`` is the projection
    ΨᴴE(x0 − x̄) on the left vectors (Ψ = Φ for a self-adjoint pencil).
    """
    xbar = equilibrium(sys_, mu)
    lam, phi, left = generalized_eig(sys_.operator_at(mu), sys_.mass, want_left=project)
    phi = phi.astype(complex)
    if project:
        psi = phi if left is None else left.astype(complex)
        c = psi.conj().T @ (sys_.mass @ (x0 - xbar)).astype(complex)
    else:
        c = solve_linear(phi, (x0 - xbar).astype(complex))
    return xbar[:, None] + np.real(phi @ (c[:, None] * np.exp(np.outer(lam, times))))


def diag_system(lams):
    lams = np.asarray(lams, dtype=float)
    return FullOrderSystem(
        lams.size,
        np.eye(lams.size),
        lambda mu: np.diag(lams),
        lambda mu: np.zeros(lams.size),
        (0.0, 1.0),
    )


class TestBuildRomAtSample:
    def test_self_adjoint_aliases_adjoint(self, rod_db):
        rom = build_rom_at_sample(rod_db, rod_db.mus[2], 4, np.zeros(rod_db.n))
        assert rom.adjoint is rom.basis
        assert rom.biorth_defect <= 1e-10

    def test_not_sampled_rejected(self, rod_db):
        with pytest.raises(ValueError):
            build_rom_at_sample(rod_db, 3.123, 4, None)

    def test_full_rom_matches_spectral_solution(self, rod):
        db = align_database(pair_modes(sample_spectrum(rod, np.array([0.0, 14.0, 28.0]), rod.n)))
        mu = 14.0
        xbar = equilibrium(rod, mu)
        x0 = equilibrium(rod, 100.0)
        times = np.linspace(0.0, default_horizon(db), 200)
        rom = build_rom_at_sample(db, mu, rod.n, xbar)
        t_rom = simulate_rom(rom, x0, times)
        t_full = simulate_full(rod, mu, x0, times)
        _, integrated = trajectory_error(t_full, t_rom, db.mass_factor)
        assert integrated <= 1e-6

    def test_invariant_subspace_exact(self):
        sys_ = diag_system([-1.0, -10.0])
        db = sample_spectrum(sys_, np.array([0.0, 1.0]), 2)
        rom = build_rom_at_sample(db, 0.0, 1, np.zeros(2))
        x0 = rom.basis[:, 0].real.copy()
        times = np.linspace(0.0, 5.0, 100)
        traj = simulate_rom(rom, x0, times)
        exact = np.outer(x0, np.exp(-times))
        assert np.max(np.abs(traj.states - exact)) <= 1e-8


class TestSimulateRom:
    def test_scalar_exponential(self):
        rom = Rom(
            mu=0.0,
            basis=np.array([[1.0]]),
            adjoint=np.array([[1.0]]),
            eigenvalues=np.array([-1.0]),
            equilibrium=np.zeros(1),
            mass_factor=MassFactor(1),
            biorth_defect=0.0,
        )
        times = np.linspace(0.0, 3.0, 50)
        traj = simulate_rom(rom, np.array([1.0]), times)
        assert np.allclose(traj.states[0], np.exp(-times))

    def test_equilibrium_is_fixed_point(self, rod_db, rod):
        mu = rod_db.mus[1]
        xbar = equilibrium(rod, mu)
        rom = build_rom_at_sample(rod_db, mu, 6, xbar)
        times = np.linspace(0.0, 1.0, 20)
        traj = simulate_rom(rom, xbar, times)
        assert np.max(np.abs(traj.states - xbar[:, None])) <= 1e-10

    def test_conjugate_pair_gives_real_period_2pi(self):
        # one tracked member of the +/-i pair; oracle reconstructs both halves
        osc = first_order_form(
            SecondOrderSystem(np.eye(1), lambda mu: -np.eye(1), (0.0, 1.0))
        )
        db = sample_spectrum(osc, np.array([0.0, 1.0]), 1)
        rom = build_rom_at_sample(db, 0.0, 1, np.zeros(2))
        assert abs(rom.eigenvalues[0] - 1j) < 1e-12
        x0 = np.array([1.0, 0.0])
        times = np.linspace(0.0, 2.0 * np.pi, 200)
        traj = simulate_rom(rom, x0, times)
        phi = rom.basis[:, 0]
        coeff = np.conj(rom.adjoint[:, 0]) @ x0
        explicit = np.outer(phi * coeff, np.exp(1j * times)) + np.outer(
            np.conj(phi * coeff), np.exp(-1j * times)
        )
        assert np.max(np.abs(explicit.imag)) <= 1e-10
        assert np.allclose(traj.states, explicit.real, atol=1e-10)
        assert np.allclose(traj.states[:, 0], traj.states[:, -1], atol=1e-9)

    def test_real_spectrum_matches_complex_arithmetic(self, rod_db, rod):
        bases = [extract_edm_basis(rod_db, i, rank=2) for i in range(6)]
        xbar = equilibrium(rod, 13.0)
        rom = build_rom_interpolated(rod_db, 13.0, 6, edm_bases=bases, equilibrium=xbar)
        assert np.iscomplexobj(rom.eigenvalues) and not np.any(rom.eigenvalues.imag)
        x0 = equilibrium(rod, 90.0)
        assert_lift_matches_formula(rom, x0, np.linspace(0.0, default_horizon(rod_db), 201))

    def test_time_grid_validation(self, rod_db):
        rom = build_rom_at_sample(rod_db, rod_db.mus[0], 2, None)
        with pytest.raises(ValueError):
            simulate_rom(rom, np.zeros(rod_db.n), np.array([1.0, 0.5]))


class TestLift:
    """simulate_rom against the explicit complex formula, and what its one GEMM may allocate."""

    def test_complex_chain_with_left_modes(self, chain_db):
        right, left = edm_bases(chain_db, rank=3)
        rom = build_rom_interpolated(chain_db, 2.2, 3, edm_bases=right, left_edm_bases=left)
        assert rom.adjoint is not rom.basis and np.iscomplexobj(rom.basis)
        assert np.all(np.abs(rom.eigenvalues.imag) > 0.1)  # every mode is half a conjugate pair: weight 2
        x0 = np.random.default_rng(5).standard_normal(chain_db.n)
        assert_lift_matches_formula(rom, x0, np.linspace(0.0, 30.0, 301))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_decay_through_subnormals(self, dtype):
        rng = np.random.default_rng(11)
        basis = rng.standard_normal((5, 2)).astype(dtype)
        rom = Rom(0.0, basis, basis, np.array([-1.0, -800.0]), rng.standard_normal(5), MassFactor(5), 0.0)
        times = np.linspace(0.0, 1.5, 1501)
        decay = np.exp(-800.0 * times)
        assert np.any((decay > 0.0) & (decay < np.finfo(float).tiny))  # the horizon crosses the subnormals
        assert_lift_matches_formula(rom, rng.standard_normal(5), times)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("eigenvalues", np.array([-1.0, -2.0, -3.0]), r"eigenvalues of shape \(3,\)"),
            ("adjoint", np.ones((4, 3)), r"adjoint of shape \(4, 3\)"),
            ("equilibrium", np.zeros(1), r"equilibrium of shape \(1,\)"),
        ],
        ids=["eigenvalues", "adjoint", "equilibrium"],
    )
    def test_shape_mismatch_is_a_clear_error(self, field, value, match):
        fields = dict(
            mu=0.0, basis=np.ones((4, 2)), adjoint=np.ones((4, 2)), eigenvalues=np.array([-1.0, -2.0]),
            equilibrium=np.zeros(4), mass_factor=MassFactor(4), biorth_defect=0.0,
        )
        fields[field] = value
        with pytest.raises(ValueError, match=match):
            simulate_rom(Rom(**fields), np.zeros(4), np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("mass", ["identity", "dense"])
    def test_projection_matches_the_conjugate_transpose_formula(self, mass):
        # at t = 0 a basis [I; iI] reads the reduced initial state back exactly: every mode is half a
        # conjugate pair, so the lift's rows are 2 Re x̂₀ and −2 Im x̂₀
        m, rng = 4, np.random.default_rng(8)
        n = 2 * m
        B = rng.standard_normal((n, n))
        F = MassFactor(n) if mass == "identity" else MassFactor.of(B @ B.T + n * np.eye(n))
        adjoint = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        rom = Rom(0.0, np.vstack([np.eye(m), 1j * np.eye(m)]), adjoint, -np.arange(1.0, m + 1) + 1j,
                  np.zeros(n), F, 0.0)
        x0 = rng.standard_normal(n)
        states = simulate_rom(rom, x0, np.array([0.0, 1.0])).states[:, 0]
        xhat0 = (states[:m] - 1j * states[m:]) / 2
        conjugate_transpose = (F @ adjoint).conj().T @ (F @ x0)
        assert np.max(np.abs(xhat0 - conjugate_transpose)) <= 1e-15 * np.max(np.abs(conjugate_transpose))

    def test_projection_makes_no_conjugate_copy_of_the_adjoint(self):
        n, m = 20000, 6
        rng = np.random.default_rng(4)
        # C-ordered, so the lift reads the complex basis without a copy
        basis, adjoint = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)) for _ in range(2))
        rom = Rom(0.0, basis, adjoint, -np.arange(1.0, m + 1) + 1j, np.zeros(n), MassFactor(n), 0.0)
        x0 = rng.standard_normal(n)
        tracemalloc.start()
        try:
            simulate_rom(rom, x0, np.array([0.0, 1.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * m * 16, f"peak traced memory {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_peak_memory_is_one_state_array(self, dtype):
        n, nt, m = 800, 1001, 6
        rng = np.random.default_rng(2)
        basis = rng.standard_normal((n, m)).astype(dtype)
        lam = -np.arange(1.0, m + 1) + (1j * np.arange(1.0, m + 1) if dtype is complex else 0.0)
        rom = Rom(0.0, basis, basis, lam, rng.standard_normal(n), MassFactor(n), 0.0)
        x0, times = rng.standard_normal(n), np.linspace(0.0, 5.0, nt)
        tracemalloc.start()
        try:
            simulate_rom(rom, x0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * nt * 8


class TestSimulateFull:
    def test_diagonal_componentwise(self):
        sys_ = diag_system([-1.0, -3.0])
        times = np.linspace(0.0, 2.0, 40)
        x0 = np.array([2.0, -1.0])
        traj = simulate_full(sys_, 0.0, x0, times)
        exact = np.vstack([2.0 * np.exp(-times), -1.0 * np.exp(-3.0 * times)])
        assert np.max(np.abs(traj.states - exact)) <= 1e-10

    def test_starts_at_equilibrium_stays(self, rod):
        mu = 7.0
        xbar = equilibrium(rod, mu)
        horizon = 5.0 / abs(
            max(np.linalg.eigvals(np.linalg.solve(rod.mass.toarray(), rod.operator_at(mu).toarray())).real)
        )
        times = np.linspace(0.0, horizon, 100)
        traj = simulate_full(rod, mu, xbar, times)
        assert np.max(np.abs(traj.states - xbar[:, None])) <= 1e-8 * max(np.max(np.abs(xbar)), 1.0)

    @pytest.mark.parametrize("name, mu, seed", REFERENCE_CASES)
    def test_matrix_exponential_cross_check(self, request, name, mu, seed):
        sys_, mu, x0 = reference_case(request, name, mu, seed)
        times = np.linspace(0.0, 2.0, 101)
        spectral = simulate_full(sys_, mu, x0, times)
        xbar = equilibrium(sys_, mu)
        generator = np.linalg.solve(as_dense(sys_.mass), as_dense(sys_.operator_at(mu)))
        exact = np.column_stack([xbar + scipy.linalg.expm(t * generator) @ (x0 - xbar) for t in times])
        scale = np.max(np.linalg.norm(spectral.states, axis=0))
        assert np.max(np.linalg.norm(spectral.states - exact, axis=0)) <= 1e-12 * scale

    def test_real_spectrum_lifts_in_real_arithmetic(self, rod):
        mu, x0 = 11.0, equilibrium(rod, 60.0)
        times = np.linspace(0.0, 2.0, 20001)
        simulate_full(rod, mu, x0, times[:2])  # warm caches outside the traced call
        tracemalloc.start()
        try:
            states = simulate_full(rod, mu, x0, times).states
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = complex_spectral_lift(rod, mu, x0, times)
        assert states.dtype == np.float64
        deviation = expected - equilibrium(rod, mu)[:, None]
        assert np.linalg.norm(states - expected) <= 1e-13 * np.linalg.norm(deviation)
        # three real n x nt arrays (modal, product, states); a complex lift needs five
        assert peak <= 3.5 * rod.n * times.size * 8

    @pytest.mark.parametrize("name, mu, seed", REFERENCE_CASES)
    def test_pencil_is_projected_not_inverted(self, request, monkeypatch, name, mu, seed):
        sys_, mu, x0 = reference_case(request, name, mu, seed)
        times = np.linspace(0.0, 2.0, 41)
        expected = complex_spectral_lift(sys_, mu, x0, times)

        def forbidden(*args, **kwargs):
            raise AssertionError("the eigenbasis was inverted")

        monkeypatch.setattr(numerics_module, "solve_linear", forbidden)
        monkeypatch.setattr(np.linalg, "cond", forbidden)
        states = simulate_full(sys_, mu, x0, times).states
        deviation = expected - equilibrium(sys_, mu)[:, None]
        assert np.linalg.norm(states - expected) <= 1e-13 * np.linalg.norm(deviation)

    def test_reference_peak_memory(self):
        # the dense eigensolve and the lift together: B and its eigh workspace, then the
        # modal coefficients and the states, each n x nt, made once
        rod = heat_rod(800, h_left=1.0, t_ambient=293.0, heat_source=5.0)
        mu, x0 = 11.0, equilibrium(rod, 60.0)
        times = np.linspace(0.0, 2.0, 1001)
        simulate_full(rod, mu, x0, times[:2])  # warm caches outside the traced call
        tracemalloc.start()
        try:
            simulate_full(rod, mu, x0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * rod.n**2 * 8

    def test_complex_spectrum_lift_unchanged(self, chain):
        mu, times = 1.5, np.linspace(0.0, 3.0, 61)
        x0 = np.random.default_rng(3).standard_normal(chain.n)
        states = simulate_full(chain, mu, x0, times).states
        assert states.dtype == np.float64
        assert np.array_equal(states, complex_spectral_lift(chain, mu, x0, times, project=True))

    def test_defective_operator_refused(self):
        jordan = FullOrderSystem(
            2,
            np.eye(2),
            lambda mu: np.array([[0.0, 1.0], [0.0, 0.0]]),
            lambda mu: np.zeros(2),
            (0.0, 1.0),
        )
        times = np.linspace(0.0, 1.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match=r"mu=0(?s:.)*defective"):
                simulate_full(jordan, 0.0, np.array([0.0, 1.0]), times)

    def test_dense_limit(self):
        sys_ = heat_rod(2001)
        with pytest.raises(ValueError):
            simulate_full(sys_, 0.0, np.zeros(2001), np.linspace(0, 1, 5))


class TestBuildRomInterpolated:
    def test_knot_matches_sampled_rom(self, rod_db, rod):
        mu = rod_db.mus[4]
        xbar = equilibrium(rod, mu)
        at_sample = build_rom_at_sample(rod_db, mu, 6, xbar)
        direct = build_rom_interpolated(rod_db, mu, 6, strategy="direct", equilibrium=xbar)
        assert np.allclose(direct.basis, at_sample.basis, atol=1e-10)
        assert np.allclose(direct.eigenvalues, at_sample.eigenvalues, atol=1e-10)

    def test_full_rank_edm_equals_direct(self, rod_db):
        bases = [extract_edm_basis(rod_db, i, rank=7) for i in range(6)]
        for mu in (3.7, 14.0, 24.9):
            rd = build_rom_interpolated(rod_db, mu, 6, strategy="direct")
            re_ = build_rom_interpolated(rod_db, mu, 6, strategy="edm", edm_bases=bases)
            assert np.max(np.abs(rd.basis - re_.basis)) <= 1e-8
            assert np.max(np.abs(rd.eigenvalues - re_.eigenvalues)) == 0.0

    def test_midway_edm_and_direct_track_each_other(self, rod, rod_db):
        mus = rod_db.mus
        mu = 0.5 * (mus[3] + mus[4])
        xbar = equilibrium(rod, mu)
        x0 = equilibrium(rod, 100.0)
        times = np.linspace(0.0, default_horizon(rod_db), 301)
        reference = simulate_full(rod, mu, x0, times)
        bases = [extract_edm_basis(rod_db, i, rank=2) for i in range(6)]
        errs = {}
        for strategy, kw in (("direct", {}), ("edm", {"edm_bases": bases})):
            rom = build_rom_interpolated(rod_db, mu, 6, strategy=strategy, equilibrium=xbar, **kw)
            assert rom.biorth_defect > 0.0
            _, errs[strategy] = trajectory_error(
                reference, simulate_rom(rom, x0, times), rod_db.mass_factor
            )
        assert max(errs.values()) <= 1.1 * min(errs.values())

    def test_edm_requires_bases(self, rod_db):
        with pytest.raises(ValueError):
            build_rom_interpolated(rod_db, 3.0, 6, strategy="edm")

    def test_edm_refuses_bases_of_other_chains(self, rod_db):
        bases = [extract_edm_basis(rod_db, i, rank=2) for i in range(6)]
        with pytest.raises(ValueError, match="right EDM basis 1 holds mode 6, not mode 1"):
            build_rom_interpolated(rod_db, 3.0, 6, strategy="edm", edm_bases=bases[::-1])

    def test_edm_refuses_bases_of_another_size(self, rod_db):
        other = align_database(pair_modes(sample_spectrum(heat_rod(24, h_left=1.0), rod_db.mus, 6)))
        bases = [extract_edm_basis(other, i, rank=2) for i in range(6)]
        with pytest.raises(ValueError, match="right EDM basis 1 has 24 rows, the database has n=30"):
            build_rom_interpolated(rod_db, 3.0, 6, strategy="edm", edm_bases=bases)

    def test_edm_refuses_bases_of_another_sample_grid(self, rod, rod_db):
        other = align_database(pair_modes(sample_spectrum(rod, np.linspace(0.0, 28.0, 7), 6)))
        bases = [extract_edm_basis(other, i, rank=2) for i in range(6)]
        with pytest.raises(ValueError, match="right EDM basis 1 was built on other sample parameters"):
            build_rom_interpolated(rod_db, 3.0, 6, strategy="edm", edm_bases=bases)

    def test_edm_refuses_left_bases_of_other_chains(self):
        fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
        db = align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 5), 3)))
        right = [extract_edm_basis(db, i, rank=3) for i in range(3)]
        left = [extract_edm_basis(db, i, rank=3, which="left") for i in range(3)]
        with pytest.raises(ValueError, match="left EDM basis 1 holds mode 3, not mode 1"):
            build_rom_interpolated(db, 2.2, 3, strategy="edm", edm_bases=right, left_edm_bases=left[::-1])

    def test_extrapolation_rejected(self, rod_db):
        with pytest.raises(OutOfDomainError):
            build_rom_interpolated(rod_db, 99.0, 6, strategy="direct")

    def test_non_self_adjoint_uses_left_chains(self):
        fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
        db = align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 5), 3)))
        rom = build_rom_interpolated(db, 2.2, 3, strategy="direct")
        assert rom.adjoint is not rom.basis
        # defect is measured and reported, not silently repaired
        assert 0.0 < rom.biorth_defect < 1.0
        right = [extract_edm_basis(db, i, rank=3) for i in range(3)]
        with pytest.raises(ValueError, match="left"):
            build_rom_interpolated(db, 2.2, 3, strategy="edm", edm_bases=right)
        left = [extract_edm_basis(db, i, rank=3, which="left") for i in range(3)]
        rom2 = build_rom_interpolated(db, 2.2, 3, strategy="edm", edm_bases=right, left_edm_bases=left)
        assert rom2.basis.shape == (10, 3)


class TestOneWeightBuild:
    """One weight vector per build, and every column bitwise the per-chain interpolation it replaces."""

    @pytest.mark.parametrize("strategy", ["direct", "edm"])
    @pytest.mark.parametrize("name", ["rod_db", "chain_db"])
    def test_columns_equal_per_chain_interpolation(self, request, name, strategy):
        db = request.getfixturevalue(name)
        right, left = edm_bases(db)
        lo, hi = db.mus[0], db.mus[-1]
        for mu in (lo + 0.13 * (hi - lo), 0.5 * (lo + hi) + 0.01, hi - 0.07 * (hi - lo), db.mus[1]):
            rom = build_rom_interpolated(db, mu, db.m, strategy, right, left)
            if strategy == "edm":
                basis = np.column_stack([interpolate_mode(b, mu) for b in right])
                adjoint = None if left is None else np.column_stack([interpolate_mode(b, mu) for b in left])
            else:
                basis = np.column_stack([direct_interpolate(db, i, mu) for i in range(db.m)])
                adjoint = None if db.left is None else np.column_stack(
                    [interpolate_columns(db.mus, db.left_block(i), mu) for i in range(db.m)]
                )
            assert np.array_equal(rom.basis, basis)
            if adjoint is None:
                assert rom.adjoint is rom.basis
                adjoint = basis
            else:
                assert np.array_equal(rom.adjoint, adjoint)
            F = db.mass_factor
            gram = (F @ adjoint).conj().T @ (F @ basis)
            assert rom.biorth_defect == float(np.linalg.norm(gram - np.eye(db.m)))

    @pytest.mark.parametrize("strategy", ["direct", "edm"])
    @pytest.mark.parametrize("name", ["rod_db", "chain_db"])
    def test_two_interpolations_per_build(self, request, monkeypatch, name, strategy):
        db = request.getfixturevalue(name)
        right, left = edm_bases(db)
        calls = []

        def counting(*args):
            calls.append(args)
            return interpolate_columns(*args)

        monkeypatch.setattr(rom_module, "interpolate_columns", counting)
        build_rom_interpolated(db, 0.5 * (db.mus[1] + db.mus[2]), db.m, strategy, right, left)
        # cubic eigenvalues, then the one weight vector shared by every chain
        assert [args[-1] for args in calls] == ["cubic", "linear"]

    def test_basis_without_sample_grid_refused(self, rod_db):
        right, _ = edm_bases(rod_db)
        with pytest.raises(ValueError, match="basis carries no sample parameters"):
            dataclasses.replace(right[3], sample_mus=None)


def smooth_database(dtype, with_left, mass, n=40, m=3, p=7, seed=0):
    """Quadratic-in-μ random mode families of one dtype, marked paired and aligned, in a mass of the given kind."""
    rng = np.random.default_rng(seed)
    mus = np.linspace(0.0, 1.0, p)

    def family():
        coefficients = rng.standard_normal((3, n, m)) + (1j * rng.standard_normal((3, n, m)) if dtype is complex else 0)
        return sum(c[..., None] * mus**k for k, c in enumerate(coefficients))

    factor = {
        "identity": lambda: MassFactor(n),
        "diagonal": lambda: MassFactor.of(np.diag(rng.uniform(0.5, 2.0, n))),
        "dense": lambda: MassFactor.of(np.eye(n) + 0.1 * (g := rng.standard_normal((n, n))) @ g.T / n),
    }[mass]()
    eigenvalues = -np.arange(1.0, m + 1.0)[:, None] * (1.0 + mus)
    return ModeDatabase(mus, eigenvalues, family(), family() if with_left else None, factor, paired=True, aligned=True)


SMOOTH_CASES = [
    pytest.param(dtype, with_left, id=f"{dtype.__name__}-{'left' if with_left else 'no-left'}")
    for dtype in (float, complex)
    for with_left in (False, True)
]


class TestColumnMajorAssembly:
    """ROM bases are column-major blocks of one product per column; the Gram is one gemm."""

    @pytest.mark.parametrize("strategy", ["direct", "edm"])
    @pytest.mark.parametrize("dtype, with_left", SMOOTH_CASES)
    def test_columns_match_the_per_column_formula(self, dtype, with_left, strategy):
        db = smooth_database(dtype, with_left, "identity")
        right, left = edm_bases(db)
        for mu in (0.05, 0.37, 0.5, 0.93):
            rom = build_rom_interpolated(db, mu, db.m, strategy, right, left)
            w = np.array([np.interp(mu, db.mus, e) for e in np.eye(db.p)])
            for built, bases, family in ((rom.basis, right, db.right), (rom.adjoint, left, db.left)):
                if family is None:
                    assert built is rom.basis
                    continue
                assert built.flags.f_contiguous and built.dtype == np.dtype(dtype)
                for i in range(db.m):
                    b = bases[i]
                    expected = family[:, i, :] @ w if strategy == "direct" else b.mean_mode + b.edms @ (b.coefficients @ w)
                    assert np.linalg.norm(built[:, i] - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("mass", ["identity", "diagonal", "dense"])
    @pytest.mark.parametrize("dtype, with_left", SMOOTH_CASES)
    def test_biorth_defect_matches_numpy(self, dtype, with_left, mass):
        db = smooth_database(dtype, with_left, mass)
        right, left = edm_bases(db)
        E = db.mass_factor.mass().toarray()
        F = scipy.linalg.cholesky(E)  # upper, FᵀF = E, independent of MassFactor
        roms = [build_rom_interpolated(db, 0.37, db.m, s, right, left) for s in ("direct", "edm")]
        for rom in roms + [build_rom_at_sample(db, db.mus[2], db.m, None)]:
            gram = (F @ rom.adjoint).conj().T @ (F @ rom.basis)
            expected = np.linalg.norm(gram - np.eye(db.m))
            assert expected > 1.0  # random modes: far from bi-orthonormal, so the comparison is not of round-off
            assert abs(rom.biorth_defect - expected) <= 1e-13 * expected


class TestSolutionInterpolation:
    @pytest.mark.parametrize("scheme, max_calls", [("linear", 2), ("cubic", 8)])
    def test_weighted_roms_match_all_rom_formula(self, rod_db, rod, monkeypatch, scheme, max_calls):
        import eigendeform.rom as rom_module
        from eigendeform.edm import interpolate_columns

        x0 = equilibrium(rod, 100.0)
        times = np.linspace(0.0, default_horizon(rod_db), 101)
        xbar = equilibrium(rod, 10.0)
        roms = [build_rom_at_sample(rod_db, mk, 6, xbar) for mk in rod_db.mus]
        for mu in (rod_db.mus[0], 10.0, 0.5 * (rod_db.mus[3] + rod_db.mus[4]), rod_db.mus[-1]):
            # the formula before only the weighted ROMs were simulated
            snapshots = np.column_stack([simulate_rom(r, x0, times).states.ravel() for r in roms])
            expected = interpolate_columns(rod_db.mus, snapshots, mu, scheme).reshape(rod.n, times.size)
            calls = []

            def counting(*args):
                calls.append(args)
                return simulate_rom(*args)

            monkeypatch.setattr(rom_module, "simulate_rom", counting)
            states = solution_interpolation(roms, mu, x0, times, scheme=scheme).states
            monkeypatch.undo()
            assert np.linalg.norm(states - expected) <= 1e-12 * np.linalg.norm(expected)
            assert 1 <= len(calls) <= max_calls

    def test_knot_returns_that_roms_trajectory(self, rod_db, rod):
        x0 = equilibrium(rod, 100.0)
        times = np.linspace(0.0, 1.0, 50)
        xbar = equilibrium(rod, rod_db.mus[2])
        roms = [build_rom_at_sample(rod_db, mk, 6, xbar) for mk in rod_db.mus]
        traj = solution_interpolation(roms, rod_db.mus[2], x0, times)
        own = simulate_rom(roms[2], x0, times)
        assert np.allclose(traj.states, own.states, atol=1e-12)

    def test_linear_family_midpoint_average(self):
        def rom_at(lam):
            return Rom(
                mu=lam,
                basis=np.eye(2),
                adjoint=np.eye(2),
                eigenvalues=np.array([-1.0 - lam, -2.0]),
                equilibrium=np.zeros(2),
                mass_factor=MassFactor(2),
                biorth_defect=0.0,
            )

        times = np.linspace(0.0, 1.0, 30)
        x0 = np.array([1.0, 1.0])
        roms = [rom_at(0.0), rom_at(1.0)]
        traj = solution_interpolation(roms, 0.5, x0, times)
        avg = 0.5 * (
            simulate_rom(roms[0], x0, times).states + simulate_rom(roms[1], x0, times).states
        )
        assert np.allclose(traj.states, avg, atol=1e-12)

    def test_midway_worse_than_edm_rom(self, rod, rod_db):
        mu = 0.5 * (rod_db.mus[0] + rod_db.mus[1])
        xbar = equilibrium(rod, mu)
        x0 = equilibrium(rod, 100.0)
        times = np.linspace(0.0, default_horizon(rod_db), 301)
        reference = simulate_full(rod, mu, x0, times)
        roms = [build_rom_at_sample(rod_db, mk, 6, xbar) for mk in rod_db.mus]
        _, e_sol = trajectory_error(
            reference, solution_interpolation(roms, mu, x0, times), rod_db.mass_factor
        )
        bases = [extract_edm_basis(rod_db, i, rank=2) for i in range(6)]
        rom = build_rom_interpolated(rod_db, mu, 6, strategy="edm", edm_bases=bases, equilibrium=xbar)
        _, e_edm = trajectory_error(reference, simulate_rom(rom, x0, times), rod_db.mass_factor)
        assert e_edm < e_sol


class TestTrajectoryError:
    def test_identical_zero(self):
        times = np.linspace(0.0, 1.0, 10)
        states = np.random.default_rng(0).standard_normal((4, 10))
        from eigendeform.rom import Trajectory

        t = Trajectory(times, states)
        inst, integ = trajectory_error(t, Trajectory(times, states.copy()), MassFactor(4))
        assert np.all(inst == 0.0) and integ == 0.0

    def test_null_model_is_normalized_mean_magnitude(self):
        from eigendeform.rom import Trajectory

        times = np.linspace(0.0, 2.0, 101)
        states = np.vstack([np.exp(-times), np.zeros_like(times)])
        ref = Trajectory(times, states)
        zero = Trajectory(times, np.zeros_like(states))
        inst, integ = trajectory_error(ref, zero, MassFactor(2))
        norms = np.linalg.norm(states, axis=0)
        expected = np.trapezoid(norms / norms.max(), times) / 2.0
        assert np.allclose(inst, norms / norms.max())
        assert np.isclose(integ, expected)

    def test_grid_mismatch(self):
        from eigendeform.rom import Trajectory

        a = Trajectory(np.linspace(0, 1, 5), np.zeros((2, 5)))
        b = Trajectory(np.linspace(0, 2, 5), np.ones((2, 5)))
        with pytest.raises(ValueError):
            trajectory_error(a, b, MassFactor(2))


class TestStability:
    def test_perturbation_norm_decays_monotonically(self, rod, rod_db):
        x0 = equilibrium(rod, 100.0)
        times = np.linspace(0.0, default_horizon(rod_db), 400)
        F = rod_db.mass_factor
        for mu in (rod_db.mus[2], 10.5):
            xbar = equilibrium(rod, mu)
            if mu in rod_db.mus:
                rom = build_rom_at_sample(rod_db, mu, 6, xbar)
            else:
                rom = build_rom_interpolated(rod_db, mu, 6, strategy="direct", equilibrium=xbar)
            traj = simulate_rom(rom, x0, times)
            norms = np.linalg.norm(F @ (traj.states - xbar[:, None]), axis=0)
            assert np.all(np.diff(norms) <= 1e-10 * norms[0])


class TestDefaultHorizon:
    def test_spans_the_slowest_decay(self, rod_db):
        assert default_horizon(rod_db) == 5.0 / -rod_db.eigenvalues[0, 0].real

    @pytest.mark.parametrize("real", [-1e-17, 0.0, 1e-17, 1e-3])
    def test_a_spectrum_that_does_not_decay_is_refused(self, real):
        # a dense first-order solve of an undamped chain leaves real parts near ±1e-17
        db = database_from_modes([0.0, 1.0], np.ones((2, 1, 2)), eigenvalues=np.full((1, 2), real + 1.3j))
        with pytest.raises(ValueError, match="needs a decaying spectrum.*specify a horizon"):
            default_horizon(db)


class TestBenchmark:
    def test_rows_and_training_exactness(self, rod, rod_db):
        bases = [extract_edm_basis(rod_db, i, rank=2) for i in range(6)]
        mus = [rod_db.mus[0], 2.0, rod_db.mus[1]]
        rows = benchmark_strategies(rod, rod_db, bases, mus, x0=100.0)
        assert len(rows) == 9
        assert {r["strategy"] for r in rows} == {"solution-interpolation", "direct", "edm"}
        at_training = [r for r in rows if r["mu"] in (rod_db.mus[0], rod_db.mus[1])]
        assert all(r["integrated_error"] <= 1e-6 for r in at_training)
