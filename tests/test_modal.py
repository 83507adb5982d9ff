from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigendeform.modal import (
    ModeDatabase,
    align_database,
    align_phases,
    align_signs,
    bump_database,
    database_from_modes,
    mac,
    mode_at,
    pair_modes,
    sample_spectrum,
    synthetic_wide_database,
)
from eigendeform.numerics import EigensolverError
from eigendeform.systems import (
    FullOrderSystem,
    SecondOrderSystem,
    first_order_form,
    heat_rod,
    spring_chain_with_defect,
)


@pytest.fixture(scope="module")
def rod_db():
    sys_ = heat_rod(20, h_left=1.0)
    return sample_spectrum(sys_, np.linspace(0.0, 28.0, 8), 6)


@pytest.fixture(scope="module")
def prepared_rod_db(rod_db):
    return align_signs(pair_modes(rod_db))


@pytest.fixture(scope="module")
def chain_db():
    """Raw complex database with left modes and one crossing (gap 4)."""
    fos = first_order_form(spring_chain_with_defect(6, k_defect=0.5))
    return sample_spectrum(fos, np.linspace(0.5, 5.5, 9), 4)


def crossing_system():
    """Two decoupled oscillators whose frequencies cross inside the sweep."""
    omega2 = 2.0

    def stiffness(mu):
        omega1 = 1.0 + 2.0 * mu  # crosses omega2 at mu = 0.5
        return -np.diag([omega1**2, omega2**2])

    return first_order_form(SecondOrderSystem(np.eye(2), stiffness, (0.0, 1.0)))


class TestSampleSpectrum:
    def test_heat_rod_table(self, rod_db):
        db = rod_db
        assert (db.n, db.p, db.m) == (20, 8, 6)
        assert not db.is_complex and not db.paired and not db.aligned
        E = db.mass
        for s in db.samples:
            assert np.all(s.eigenvalues.real < 0) and np.all(s.eigenvalues.imag == 0)
            assert np.all(np.diff(s.eigenvalues.real) < 0)
            for i in range(db.m):
                phi = s.right_modes[:, i]
                assert abs(phi @ E @ phi - 1.0) <= 1e-10

    def test_full_spectrum_reconstructs_operator_action(self):
        sys_ = heat_rod(12, h_left=1.0)
        db = sample_spectrum(sys_, np.array([0.0, 10.0]), 12)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(12)
        E = db.mass
        for s in db.samples:
            A = sys_.operator_at(s.mu)
            phi = s.right_modes
            recon = phi @ (s.eigenvalues.real * (phi.T @ (E @ x)))
            exact = np.linalg.solve(E, A @ x)
            assert np.linalg.norm(recon - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_minimal_two_samples(self):
        sys_ = heat_rod(6, h_left=1.0)
        db = sample_spectrum(sys_, np.array([0.0, 5.0]), 2)
        assert db.p == 2

    def test_rejects_single_sample(self):
        sys_ = heat_rod(6, h_left=1.0)
        with pytest.raises(ValueError):
            sample_spectrum(sys_, np.array([1.0]), 2)

    def test_failure_names_parameter(self):
        bad = FullOrderSystem(
            3,
            np.eye(3),
            lambda mu: np.full((3, 3), np.nan) if mu > 1 else -np.eye(3),
            lambda mu: np.zeros(3),
            (0.0, 2.0),
        )
        with pytest.raises(EigensolverError, match="mu=2.0"):
            sample_spectrum(bad, np.array([0.0, 2.0]), 2)

    def test_complex_chain_tracks_upper_half_plane(self):
        from eigendeform.systems import spring_chain_with_defect

        fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
        db = sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 3)
        assert db.is_complex
        for s in db.samples:
            assert np.all(s.eigenvalues.imag >= 0)
            assert s.left_modes is not None


class TestMac:
    def test_identity(self):
        a = np.array([0.6, 0.8])
        assert np.isclose(mac(a, a), 1.0)

    def test_orthogonal(self):
        assert mac(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_phase_invariant(self):
        a = np.array([0.6, 0.8], dtype=complex)
        b = a * np.exp(1j * np.pi / 3)
        assert abs(mac(a, b) - 1.0) <= 1e-12

    def test_weighted(self):
        E = np.diag([2.0, 1.0])
        a = np.array([1.0, 0.0]) / np.sqrt(2.0)
        assert np.isclose(mac(a, a, E), 1.0)


class TestPairModes:
    def test_no_crossing_keeps_eigenvalue_order(self, rod_db):
        db = pair_modes(rod_db)
        assert db.paired and db.crossing_gaps == ()
        for s, raw in zip(db.samples, rod_db.samples):
            assert np.array_equal(s.eigenvalues, raw.eigenvalues)

    def test_constructed_crossing_follows_shape(self):
        db = sample_spectrum(crossing_system(), np.array([0.0, 0.3, 0.7, 1.0]), 2)
        paired = pair_modes(db)
        assert paired.crossing_gaps == (1,)
        lam = np.array([[s.eigenvalues[i] for s in paired.samples] for i in range(2)])
        # chain 0 starts as the faster (constant) oscillator and stays there
        assert np.allclose(lam[0], 2.0j, atol=1e-9)
        assert np.allclose(lam[1].imag, [1.0, 1.6, 2.4, 3.0], atol=1e-9)

    def test_identical_samples_identity_pairing(self):
        rng = np.random.default_rng(1)
        block, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        db = database_from_modes([0.0, 1.0], [block, block])
        paired = pair_modes(db)
        assert paired.crossing_gaps == ()
        assert np.array_equal(paired.samples[1].right_modes, block)

    def test_degenerate_candidates_warn_and_use_eigenvalue_proximity(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        mixed = np.column_stack([(e1 + e2) / np.sqrt(2), (e1 - e2) / np.sqrt(2)])
        lam = np.array([[-1.0, -1.0], [-2.0, -2.0]], dtype=complex)
        db = database_from_modes([0.0, 1.0], [np.column_stack([e1, e2]), mixed], eigenvalues=lam)
        paired = pair_modes(db)
        assert any("degenerate" in w for w in paired.warnings)
        assert np.array_equal(paired.samples[1].eigenvalues, lam[:, 1])

    def test_exactly_degenerate_sample_keeps_chains_by_shape(self):
        # frequencies coincide exactly at the middle sample; decoupled shapes
        # still disambiguate the chains
        def stiffness(mu):
            return -np.diag([(1.0 + 2.0 * mu) ** 2, 4.0])

        fos = first_order_form(SecondOrderSystem(np.eye(2), stiffness, (0.0, 1.0)))
        paired = pair_modes(sample_spectrum(fos, np.array([0.0, 0.5, 1.0]), 2))
        lam = np.array([[s.eigenvalues[i] for s in paired.samples] for i in range(2)])
        assert np.allclose(lam[0], 2.0j, atol=1e-9)
        assert np.allclose(lam[1].imag, [1.0, 2.0, 3.0], atol=1e-9)
        assert len(paired.crossing_gaps) >= 1

    def test_within_sample_shuffle_gives_same_chains(self, rod_db):
        rng = np.random.default_rng(7)
        perms = np.array([rng.permutation(rod_db.m) for _ in range(rod_db.p)]).T
        samples = np.arange(rod_db.p)
        db_b = ModeDatabase(
            rod_db.mus,
            rod_db.eigenvalues[perms, samples],
            rod_db.right[:, perms, samples],
            None,
            rod_db.mass_factor,
        )
        chains_a = pair_modes(rod_db)
        chains_b = pair_modes(db_b)

        def chain_set(db):
            return {
                tuple(np.round(s.eigenvalues[i], 10) for s in db.samples)
                for i in range(db.m)
            }

        assert chain_set(chains_a) == chain_set(chains_b)

    def test_uncontested_chain_keeps_mac_match(self):
        e1, e2, e3 = np.eye(3)
        mixed = np.column_stack([(e1 + e2) / np.sqrt(2), (e1 - e2) / np.sqrt(2), e3])
        lam = np.array([[-1.0, -2.05], [-2.0, -0.95], [-3.0, -1.0]], dtype=complex)
        paired = pair_modes(database_from_modes([0.0, 1.0], [np.eye(3), mixed], eigenvalues=lam))
        # chains 0 and 1 share a plane, so eigenvalue proximity decides them;
        # chain 2 keeps e3 by shape, though -1.0 lies nearest chain 0's -1
        assert np.array_equal(paired.eigenvalues[:, 1], [-0.95, -2.05, -1.0])
        assert np.array_equal(paired.right[:, 2, 1], e3)
        assert [w for w in paired.warnings if w.startswith("degenerate pairing")] == [
            "degenerate pairing between samples 0 and 1: chains [0, 1] have an assignment "
            "within 0.01 of the best total MAC; eigenvalue proximity applied"
        ]

    def test_refuses_paired_database(self, rod_db):
        with pytest.raises(ValueError):
            pair_modes(pair_modes(rod_db))


class TestArrayLayout:
    def test_chain_blocks_are_views(self, chain_db):
        assert chain_db.right.flags.f_contiguous and chain_db.left.flags.f_contiguous
        for i in range(chain_db.m):
            assert np.shares_memory(chain_db.right_block(i), chain_db.right)
            assert np.shares_memory(chain_db.left_block(i), chain_db.left)
            assert np.array_equal(chain_db.right_block(i), chain_db.right[:, i, :])

    def test_samples_are_views(self, chain_db):
        for k, s in enumerate(chain_db.samples):
            assert s.mu == chain_db.mus[k]
            assert np.shares_memory(s.right_modes, chain_db.right)
            assert np.shares_memory(s.left_modes, chain_db.left)
            assert np.array_equal(s.eigenvalues, chain_db.eigenvalues[:, k])

    def test_shapes_are_checked(self, rod_db):
        mus, lam, right = rod_db.mus, rod_db.eigenvalues, rod_db.right
        with pytest.raises(ValueError, match="increasing"):
            ModeDatabase(mus[::-1], lam, right, None, None)
        with pytest.raises(ValueError, match="eigenvalues"):
            ModeDatabase(mus, lam[:, :-1], right, None, None)
        with pytest.raises(ValueError, match="right modes"):
            ModeDatabase(mus[:-1], lam[:, :-1], right, None, None)
        with pytest.raises(ValueError, match="left modes"):
            ModeDatabase(mus, lam, right, right[:, :-1], None)


def _snapshot(db):
    return [a.copy() for a in (db.mus, db.eigenvalues, db.right, db.left) if a is not None]


def _unchanged(db, snapshot):
    current = [a for a in (db.mus, db.eigenvalues, db.right, db.left) if a is not None]
    return all(np.array_equal(a, b) for a, b in zip(current, snapshot, strict=True))


class TestPassProperties:
    """Invariants of the vectorized passes over random corruptions (derandomized, so repeatable)."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(which=st.sampled_from(["rod", "chain"]), data=st.data())
    def test_within_sample_permutation_gives_same_chains(self, rod_db, chain_db, which, data):
        db = rod_db if which == "rod" else chain_db
        orders = data.draw(st.lists(st.permutations(range(db.m)), min_size=db.p, max_size=db.p))
        perms, samples = np.array(orders).T, np.arange(db.p)
        shuffled = ModeDatabase(
            db.mus,
            db.eigenvalues[perms, samples],
            db.right[:, perms, samples],
            None if db.left is None else db.left[:, perms, samples],
            db.mass_factor,
        )
        before = _snapshot(shuffled)
        a, b = pair_modes(db), pair_modes(shuffled)
        assert _unchanged(shuffled, before)
        # chains start in the shuffled order of the first sample
        first = perms[:, 0]
        assert np.array_equal(b.eigenvalues, a.eigenvalues[first])
        assert np.array_equal(b.right, a.right[:, first])
        if db.left is not None:
            assert np.array_equal(b.left, a.left[:, first])

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(flips=arrays(bool, (6, 8)))
    def test_sign_flips_are_undone(self, prepared_rod_db, flips):
        signs = np.where(flips, -1.0, 1.0)
        db = prepared_rod_db
        corrupted = replace(db, right=db.right * signs, aligned=False)
        before = _snapshot(corrupted)
        fixed = align_signs(corrupted)
        assert _unchanged(corrupted, before)
        assert np.array_equal(fixed.right, db.right)
        again = align_signs(fixed)
        assert np.array_equal(again.right, fixed.right)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(angles=arrays(float, (4, 9), elements=st.floats(0.0, 2.0 * np.pi)))
    def test_random_phases_are_undone(self, chain_db, angles):
        db = align_phases(pair_modes(chain_db))
        rotation = np.exp(1j * angles)
        corrupted = replace(db, right=db.right * rotation, left=db.left * rotation, aligned=False)
        before = _snapshot(corrupted)
        fixed = align_phases(corrupted)
        assert _unchanged(corrupted, before)
        # the first sample keeps its phase; every later one follows it
        expected = rotation[:, :1]
        assert np.max(np.abs(fixed.right - db.right * expected)) <= 1e-12
        assert np.max(np.abs(fixed.left - db.left * expected)) <= 1e-12
        again = align_phases(fixed)
        assert np.max(np.abs(again.right - fixed.right)) <= 1e-14
        assert np.max(np.abs(again.left - fixed.left)) <= 1e-14


class TestAlignSigns:
    def test_flip_branch(self):
        p1 = np.array([[1.0], [0.0]])
        p2 = np.array([[-1.0], [0.0]])
        db = database_from_modes([0.0, 1.0], [p1, p2], paired=True)
        aligned = align_signs(db)
        assert np.array_equal(aligned.samples[1].right_modes, p1)

    def test_idempotent(self, prepared_rod_db):
        again = align_signs(prepared_rod_db)
        for a, b in zip(again.samples, prepared_rod_db.samples):
            assert np.array_equal(a.right_modes, b.right_modes)

    def test_recovers_from_random_sign_corruption(self, rod_db):
        base = align_signs(pair_modes(rod_db))
        E = base.mass
        for seed in range(20):
            rng = np.random.default_rng(seed)
            flips = np.array([rng.choice([-1.0, 1.0], size=base.m) for _ in range(base.p)]).T
            db = ModeDatabase(
                base.mus, base.eigenvalues, base.right * flips, None, base.mass_factor, paired=True
            )
            fixed = align_signs(db)
            for i in range(base.m):
                for k in range(base.p - 1):
                    a = fixed.samples[k].right_modes[:, i] @ E @ fixed.samples[k + 1].right_modes[:, i]
                    assert a > 0

    def test_first_sample_convention(self, prepared_rod_db):
        for i in range(prepared_rod_db.m):
            col = prepared_rod_db.samples[0].right_modes[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_orthogonal_neighbors_warn_and_keep(self):
        p1 = np.array([[1.0], [0.0]])
        p2 = np.array([[0.0], [1.0]])
        db = database_from_modes([0.0, 1.0], [p1, p2], paired=True)
        aligned = align_signs(db)
        assert any("orthogonal" in w for w in aligned.warnings)
        assert np.array_equal(aligned.samples[1].right_modes, p2)

    def test_rejects_complex(self):
        block = np.array([[1.0 + 0j], [0.0 + 0j]])
        db = database_from_modes([0.0, 1.0], [block, block], paired=True)
        with pytest.raises(ValueError, match="align_phases"):
            align_signs(db)

    def test_requires_paired(self, rod_db):
        with pytest.raises(ValueError):
            align_signs(rod_db)


def phase_objective(F, phi_k, phi_1, theta):
    rotated = phi_k * np.exp(1j * theta)
    diff = rotated - phi_1
    return np.linalg.norm(diff if F is None else F @ diff)


class TestAlignPhases:
    def test_quarter_turn(self):
        p1 = np.array([[1.0 + 0j], [0.0]])
        pk = np.array([[1j], [0.0]])
        db = database_from_modes([0.0, 1.0], [p1, pk], paired=True)
        aligned = align_phases(db)
        assert np.allclose(aligned.samples[1].right_modes, p1)

    def test_identity_angle_zero(self):
        p1 = np.array([[0.6 + 0.3j], [0.2 - 0.7j]])
        db = database_from_modes([0.0, 1.0], [p1, p1.copy()], paired=True)
        aligned = align_phases(db)
        assert np.array_equal(aligned.samples[1].right_modes, p1)

    def test_closed_form_beats_grid_search(self):
        rng = np.random.default_rng(21)
        n = 12
        F = np.triu(rng.standard_normal((n, n))) + 3 * np.eye(n)
        p1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pk = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        db = database_from_modes(
            [0.0, 1.0],
            [p1[:, None], pk[:, None]],
            mass=F.T @ F,
            paired=True,
            normalize=True,
        )
        aligned = align_phases(db)
        phi1 = aligned.samples[0].right_modes[:, 0]
        rotated = aligned.samples[1].right_modes[:, 0]
        achieved = phase_objective(db.mass_factor, rotated, phi1, 0.0)
        thetas = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
        phik = db.samples[1].right_modes[:, 0]
        grid_best = min(phase_objective(db.mass_factor, phik, phi1, t) for t in thetas)
        assert achieved <= grid_best + 1e-6

    def test_post_inner_product_real_nonnegative(self):
        from eigendeform.systems import spring_chain_with_defect

        fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
        db = align_phases(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 3)))
        E = db.mass
        for i in range(db.m):
            ref = db.samples[0].right_modes[:, i]
            for k in range(1, db.p):
                c = np.vdot(ref, E @ db.samples[k].right_modes[:, i])
                assert c.real >= 0 and abs(c.imag) <= 1e-12

    def test_idempotent(self):
        from eigendeform.systems import spring_chain_with_defect

        fos = first_order_form(spring_chain_with_defect(4, k_defect=0.5))
        db = align_phases(pair_modes(sample_spectrum(fos, np.linspace(0.5, 3.5, 3), 2)))
        again = align_phases(db)
        for a, b in zip(again.samples, db.samples):
            assert np.max(np.abs(a.right_modes - b.right_modes)) <= 1e-14


class TestAlignmentInvariants:
    def test_normalization_preserved(self, prepared_rod_db):
        E = prepared_rod_db.mass
        for s in prepared_rod_db.samples:
            for i in range(prepared_rod_db.m):
                phi = s.right_modes[:, i]
                assert abs(phi @ E @ phi - 1.0) <= 1e-10

    def test_eigen_residuals_unchanged(self, rod_db, prepared_rod_db):
        sys_ = heat_rod(20, h_left=1.0)
        E = rod_db.mass
        for raw, fixed in zip(rod_db.samples, prepared_rod_db.samples):
            A = sys_.operator_at(raw.mu)
            for i in range(rod_db.m):
                r_raw = np.linalg.norm(A @ raw.right_modes[:, i] - raw.eigenvalues[i].real * (E @ raw.right_modes[:, i]))
                r_fix = np.linalg.norm(A @ fixed.right_modes[:, i] - fixed.eigenvalues[i].real * (E @ fixed.right_modes[:, i]))
                assert np.isclose(r_raw, r_fix, atol=1e-12)

    def test_dispatcher(self, rod_db):
        db = align_database(pair_modes(rod_db))
        assert db.aligned and not db.is_complex


class TestModeAt:
    def test_reproduces_stored_mode_at_sample(self, prepared_rod_db):
        sys_ = heat_rod(20, h_left=1.0)
        for k in (0, 3, 7):
            mu = prepared_rod_db.mus[k]
            for i in (0, 2, 5):
                truth = mode_at(sys_, prepared_rod_db, i, mu)
                stored = prepared_rod_db.samples[k].right_modes[:, i]
                assert np.linalg.norm(truth - stored) <= 1e-8

    def test_complex_chain_alignment(self):
        from eigendeform.systems import spring_chain_with_defect

        fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
        db = align_phases(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 2)))
        mu = db.mus[2]
        truth = mode_at(fos, db, 0, mu)
        stored = db.samples[2].right_modes[:, 0]
        assert np.linalg.norm(truth - stored) <= 1e-8

    def test_requires_aligned(self, rod_db):
        sys_ = heat_rod(20, h_left=1.0)
        with pytest.raises(ValueError):
            mode_at(sys_, rod_db, 0, 1.0)


class TestSyntheticDatabases:
    def test_bump_database_prepared(self):
        db = bump_database(40, 2.0, np.linspace(0.1, 0.9, 8))
        assert db.paired and db.aligned and db.m == 1
        assert db.mass_factor is None

    def test_synthetic_wide_deterministic(self):
        a = synthetic_wide_database(500, np.linspace(0, 1, 5), 3, seed=4)
        b = synthetic_wide_database(500, np.linspace(0, 1, 5), 3, seed=4)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.right_modes, sb.right_modes)
        assert a.aligned
