import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from eigendeform.edm import (
    OutOfDomainError,
    build_data_matrix,
    compute_edms,
    direct_interpolate,
    energy_fraction,
    extract_edm_basis,
    interpolate_columns,
    interpolate_mode,
    interpolation_error,
    select_rank,
)
from eigendeform.modal import (
    align_database,
    bump_database,
    database_from_modes,
    mode_at,
    pair_modes,
    sample_spectrum,
)
from eigendeform.numerics import MassFactor
from eigendeform.systems import heat_rod


@pytest.fixture(scope="module")
def rod():
    return heat_rod(50, h_left=1.0)


@pytest.fixture(scope="module")
def rod_db(rod):
    return align_database(pair_modes(sample_spectrum(rod, np.linspace(0.0, 28.0, 8), 6)))


def weighted_rank(db, i):
    _, data = build_data_matrix(db, i)
    weighted = db.mass_factor @ data
    s = np.linalg.svd(weighted, compute_uv=False)
    return int(np.sum(s > s[0] * max(weighted.shape) * np.finfo(float).eps))


class TestBuildDataMatrix:
    def test_two_point_mean(self):
        p1 = np.array([[1.0], [0.0]])
        p2 = np.array([[0.0], [1.0]])
        db = database_from_modes([0.0, 1.0], [p1, p2], paired=True, aligned=True)
        mean, data = build_data_matrix(db, 0)
        assert np.allclose(mean, [0.5, 0.5])
        assert np.allclose(data, [[0.5, -0.5], [-0.5, 0.5]])

    def test_identical_samples_zero_deviation(self):
        block = np.array([[0.6], [0.8]])
        db = database_from_modes([0.0, 1.0, 2.0], [block] * 3, paired=True, aligned=True)
        _, data = build_data_matrix(db, 0)
        assert np.allclose(data, 0.0)

    def test_columns_sum_to_zero(self, rod_db):
        for i in range(rod_db.m):
            _, data = build_data_matrix(rod_db, i)
            assert np.max(np.abs(data.sum(axis=1))) <= 1e-12

    def test_refuses_unaligned(self, rod):
        db = pair_modes(sample_spectrum(rod, np.linspace(0.0, 28.0, 4), 2))
        with pytest.raises(ValueError):
            build_data_matrix(db, 0)


class TestComputeEdms:
    def test_identity_factor_diagonal_data(self):
        data = np.diag([3.0, 1.0])
        basis = compute_edms(np.zeros(2), data, MassFactor(2), rank=2, mode_index=0, sample_mus=[0.0, 1.0])
        assert np.allclose(basis.singular_values, [3.0, 1.0])
        assert np.allclose(np.abs(basis.edms), np.eye(2))

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((6, 4))
        E = np.diag(rng.uniform(0.5, 2.0, 6))
        F = MassFactor.of(E)
        basis = compute_edms(np.zeros(6), data, F, rank=4, mode_index=0, sample_mus=np.arange(4.0))
        recon = basis.edms @ basis.coefficients
        assert np.linalg.norm(data - recon) <= 1e-10

    def test_heat_rod_orthonormality_and_tail(self, rod_db):
        mean, data = build_data_matrix(rod_db, 0)
        F = rod_db.mass_factor
        E = rod_db.mass_factor.mass().toarray()
        basis = compute_edms(mean, data, F, rank=2, mode_index=0, sample_mus=rod_db.mus)
        gram = basis.edms.T @ E @ basis.edms
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-8
        resid = np.linalg.norm(F @ (data - basis.edms @ basis.coefficients))
        tail = np.sqrt(np.sum(basis.singular_values[2:] ** 2))
        assert abs(resid - tail) <= 1e-8 * max(tail, 1.0)

    def test_rank_zero_keeps_mean_only(self, rod_db):
        basis = extract_edm_basis(rod_db, 0, rank=0)
        assert basis.rank == 0 and basis.coefficients.shape == (0, rod_db.p)

    def test_rank_out_of_range(self, rod_db):
        with pytest.raises(ValueError):
            extract_edm_basis(rod_db, 0, rank=9)


class TestEnergyAndRank:
    def test_direct_substitution(self):
        assert energy_fraction([3.0, 1.0], 1) == 0.75

    def test_completeness(self):
        s = np.array([5.0, 2.0, 1.0, 0.0])
        assert energy_fraction(s, s.size) == 1.0
        assert energy_fraction(s, 0) == 0.0

    def test_all_zero_undefined(self):
        with pytest.raises(ValueError):
            energy_fraction(np.zeros(3), 1)

    def test_monotone_in_r(self, rod_db):
        s = extract_edm_basis(rod_db, 0, rank=0).singular_values
        fracs = [energy_fraction(s, r) for r in range(s.size + 1)]
        assert np.all(np.diff(fracs) >= 0)
        assert fracs[-1] == 1.0

    def test_select_rank_examples(self):
        assert select_rank([3.0, 1.0], 0.7) == 1
        assert select_rank(np.array([5.0, 2.0, 1.0, 0.0, 0.0]), 1.0) == 3

    def test_select_rank_validation(self):
        with pytest.raises(ValueError):
            select_rank([1.0], 0.0)

    def test_traveling_family_needs_more_directions(self, rod_db):
        bump = bump_database(50, 2.0, np.linspace(0.1, 0.9, 8))
        s_bump = extract_edm_basis(bump, 0, rank=0).singular_values
        s_rod = extract_edm_basis(rod_db, 0, rank=0).singular_values
        assert select_rank(s_bump, 0.99) >= 4
        assert select_rank(s_bump, 0.99) > select_rank(s_rod, 0.99)


def spline_reference(sample_mus, values, mu, degree):
    """The interpolating B-spline of the same degree, built directly by scipy."""
    k = min(degree, len(sample_mus) - 1)
    return make_interp_spline(sample_mus, np.atleast_2d(values), k=k, axis=1)(mu)


class TestInterpolateColumns:
    @pytest.mark.parametrize("scheme, degree", [("linear", 1), ("cubic", 3)])
    @pytest.mark.parametrize("p", [2, 3, 4, 9])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_matches_spline_oracle(self, scheme, degree, p, complex_values):
        rng = np.random.default_rng(100 * p + degree + complex_values)
        mus = np.sort(rng.uniform(-2.0, 5.0, p))  # non-uniform grid
        values = rng.standard_normal((5, p))
        if complex_values:
            values = values + 1j * rng.standard_normal((5, p))
        queries = [mus[0], mus[p // 2], mus[-1], *rng.uniform(mus[0], mus[-1], 6)]
        for mu in queries:
            for v in (values, values[2]):  # 2-D and 1-D values
                got = interpolate_columns(mus, v, mu, scheme)
                want = spline_reference(mus, v, mu, degree)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("scheme", ["linear", "cubic"])
    def test_knots_reproduced(self, scheme):
        mus = np.array([0.0, 0.3, 1.7, 2.0, 4.5])
        values = np.arange(10.0).reshape(2, 5) ** 2
        for k, mu in enumerate(mus):
            got = interpolate_columns(mus, values, mu, scheme)
            assert np.allclose(got, values[:, k], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("scheme", ["linear", "cubic"])
    def test_unsorted_grid_refused(self, scheme):
        with pytest.raises(ValueError, match="strictly increasing"):
            interpolate_columns([0.0, 2.0, 1.0, 3.0], np.ones((1, 4)), 0.5, scheme)


class TestInterpolateMode:
    def test_knot_reproduction_full_rank(self, rod_db):
        r = weighted_rank(rod_db, 0)
        basis = extract_edm_basis(rod_db, 0, rank=r)
        for k in (0, 3, 7):
            mu = rod_db.mus[k]
            stored = rod_db.samples[k].right_modes[:, 0]
            assert np.linalg.norm(interpolate_mode(basis, mu) - stored) <= 1e-10

    def test_two_point_midpoint_mean(self):
        p1 = np.array([[1.0], [0.0]])
        p2 = np.array([[0.0], [1.0]])
        db = database_from_modes([0.0, 1.0], [p1, p2], paired=True, aligned=True)
        basis = extract_edm_basis(db, 0, rank=1)
        mid = interpolate_mode(basis, 0.5)
        assert np.allclose(mid, [0.5, 0.5])

    def test_real_mean_with_complex_directions(self):
        # the mode is added in place to the product, so a real mean must not cut off its imaginary part
        mean = np.array([1.0, 2.0])
        data = np.array([[1j, -1j], [1.0, -1.0]])
        basis = compute_edms(mean, data, MassFactor(2), rank=1, mode_index=0, sample_mus=[0.0, 1.0])
        assert basis.mean_mode.dtype == basis.edms.dtype == basis.coefficients.dtype == complex
        assert np.allclose(interpolate_mode(basis, 0.0), mean + data[:, 0])

    def test_error_decreases_with_rank_and_matches_direct_at_full(self, rod, rod_db):
        grid = np.linspace(0.0, 28.0, 25)
        r_full = weighted_rank(rod_db, 0)
        means = []
        for r in (0, 1, r_full):
            basis = extract_edm_basis(rod_db, 0, rank=r)
            errs = [
                interpolation_error(
                    mode_at(rod, rod_db, 0, mu), interpolate_mode(basis, mu), rod_db.mass_factor
                )
                for mu in grid
            ]
            means.append(np.mean(errs))
        assert means[0] > means[1] > 0
        assert means[2] <= means[1]
        basis = extract_edm_basis(rod_db, 0, rank=r_full)
        for mu in grid:
            diff = interpolation_error(
                direct_interpolate(rod_db, 0, mu), interpolate_mode(basis, mu), rod_db.mass_factor
            )
            assert diff <= 1e-8

    def test_extrapolation_refused(self, rod_db):
        basis = extract_edm_basis(rod_db, 0, rank=2)
        for scheme in ("linear", "cubic"):
            for mu in (28.5, 28.0 + 1e-9, np.nan):
                with pytest.raises(OutOfDomainError):
                    interpolate_mode(basis, mu, scheme)
            with pytest.raises(OutOfDomainError):
                interpolate_mode(extract_edm_basis(rod_db, 0, rank=0), -0.1, scheme)


class TestDirectInterpolate:
    def test_knot_reproduction(self, rod_db):
        for k in (0, 5):
            mu = rod_db.mus[k]
            stored = rod_db.samples[k].right_modes[:, 1]
            assert np.array_equal(direct_interpolate(rod_db, 1, mu), stored)

    def test_midpoint_average(self):
        p1 = np.array([[1.0], [0.0]])
        p2 = np.array([[0.0], [1.0]])
        db = database_from_modes([0.0, 1.0], [p1, p2], paired=True, aligned=True)
        assert np.allclose(direct_interpolate(db, 0, 0.5), [0.5, 0.5])

    def test_extrapolation_refused(self, rod_db):
        for scheme in ("linear", "cubic"):
            for mu in (-1.0, -1e-9, np.nan):
                with pytest.raises(OutOfDomainError):
                    direct_interpolate(rod_db, 0, mu, scheme)

    def test_unknown_scheme_refused(self, rod_db):
        with pytest.raises(ValueError, match="unknown interpolation scheme"):
            direct_interpolate(rod_db, 0, 1.0, "quadratic")

    def test_requires_prepared(self, rod):
        db = sample_spectrum(rod, np.linspace(0.0, 28.0, 4), 2)
        with pytest.raises(ValueError):
            direct_interpolate(db, 0, 1.0)


class TestInterpolationError:
    def test_identity(self):
        v = np.array([1.0, 2.0])
        assert interpolation_error(v, v, MassFactor(2)) == 0.0

    def test_null_predictor(self):
        v = np.array([3.0, 4.0])
        assert np.isclose(interpolation_error(v, np.zeros(2), MassFactor(2)), 1.0)

    def test_sign_flip(self):
        v = np.array([3.0, 4.0])
        assert np.isclose(interpolation_error(v, -v, MassFactor(2)), 2.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            interpolation_error(np.zeros(2), np.ones(2), MassFactor(2))


class TestOptimality:
    def test_beats_random_competitor_bases(self, rod_db):
        rng = np.random.default_rng(12)
        mean, data = build_data_matrix(rod_db, 0)
        F = rod_db.mass_factor
        weighted = F @ data
        r = 2
        basis = extract_edm_basis(rod_db, 0, rank=r)
        ours = np.linalg.norm(weighted - (F @ basis.edms) @ ((F @ basis.edms).T @ weighted))
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.standard_normal((rod_db.n, r)))
            theirs = np.linalg.norm(weighted - Q @ (Q.T @ weighted))
            assert theirs >= ours - 1e-12


class TestComplexChain:
    def test_complex_basis_orthonormal_and_reconstructs(self):
        from eigendeform.systems import first_order_form, spring_chain_with_defect

        fos = first_order_form(spring_chain_with_defect(6, k_defect=0.4))
        db = align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 5.5, 6), 3)))
        E = db.mass_factor.mass().toarray()
        for i in range(db.m):
            basis = extract_edm_basis(db, i, energy=0.999)
            gram = basis.edms.conj().T @ E @ basis.edms
            assert np.linalg.norm(gram - np.eye(basis.rank)) <= 1e-8
        full = extract_edm_basis(db, 0, rank=weighted_rank(db, 0))
        for mu in (1.1, 2.7, 4.9):
            d = direct_interpolate(db, 0, mu)
            e = interpolate_mode(full, mu)
            assert interpolation_error(d, e, db.mass_factor) <= 1e-8
