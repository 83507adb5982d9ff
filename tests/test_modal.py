from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigendeform.modal import (
    ModeDatabase,
    align_database,
    bump_database,
    database_from_modes,
    mode_at,
    pair_modes,
    sample_spectrum,
    synthetic_wide_database,
)
from eigendeform import modal, numerics
from eigendeform.numerics import EigensolverError, cholesky_factor, generalized_eig, is_symmetric
from eigendeform.systems import (
    FullOrderSystem,
    SecondOrderSystem,
    first_order_form,
    heat_rod,
    spring_chain_with_defect,
    traveling_bump_family,
)


@pytest.fixture(scope="module")
def rod_db():
    sys_ = heat_rod(20, h_left=1.0)
    return sample_spectrum(sys_, np.linspace(0.0, 28.0, 8), 6)


@pytest.fixture(scope="module")
def prepared_rod_db(rod_db):
    return align_database(pair_modes(rod_db))


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
        E = db.mass_factor.mass().toarray()
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
        E = db.mass_factor.mass().toarray()
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

    @pytest.mark.parametrize("symmetric_at", [0.0, 1.0])
    def test_left_modes_at_some_samples_only_refused(self, symmetric_at):
        skew = np.array([[-2.0, 1.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, -4.0]])
        sys_ = FullOrderSystem(
            3,
            np.eye(3),
            lambda mu: np.diag([-2.0, -3.0, -4.0]) if mu == symmetric_at else skew,
            lambda mu: np.zeros(3),
            (0.0, 1.0),
        )
        with pytest.raises(ValueError):
            sample_spectrum(sys_, np.array([0.0, 1.0]), 2)

    def test_complex_chain_tracks_upper_half_plane(self):
        from eigendeform.systems import spring_chain_with_defect

        fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
        db = sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 3)
        assert db.is_complex
        for s in db.samples:
            assert np.all(s.eigenvalues.imag >= 0)
            assert s.left_modes is not None


def dense_sample_spectrum(sys_, mus, m):
    """The full dense eigensolve per sample that sample_spectrum did before its partial path."""
    mass = sys_.mass.toarray()
    eigenvalues, rights, lefts = [], [], []
    for mu in mus:
        A = sys_.operator_at(mu).toarray()
        lam, right, left = generalized_eig(A, mass, want_left=not is_symmetric(A))
        tracked = np.flatnonzero(lam.imag >= 0.0)[:m]
        eigenvalues.append(lam[tracked])
        rights.append(right[:, tracked])
        if left is not None:
            lefts.append(left[:, tracked])
    left = np.stack(lefts, axis=2) if lefts else None
    return np.array(eigenvalues).T, np.stack(rights, axis=2), left


class TestSampleSpectrumPaths:
    @pytest.mark.parametrize(
        "make, mus, m",
        [
            (lambda: heat_rod(16, h_left=1.0), np.linspace(0.0, 28.0, 4), 16),  # m = n
            # undeclared: without second_order the chain takes the dense first-order path
            (
                lambda: replace(first_order_form(spring_chain_with_defect(12, mass=2.0)), second_order=None),
                np.linspace(0.5, 11.5, 7),
                6,
            ),
        ],
        ids=["rod-m-equals-n", "complex-chain"],
    )
    def test_dense_path_databases_unchanged(self, make, mus, m, monkeypatch):
        sys_ = make()
        eigenvalues, right, left = dense_sample_spectrum(sys_, mus, m)

        def forbidden(*args, **kwargs):
            raise AssertionError("ARPACK was called")

        monkeypatch.setattr(numerics.spla, "eigsh", forbidden)
        db = sample_spectrum(sys_, mus, m)
        assert np.array_equal(db.eigenvalues, eigenvalues)
        assert np.array_equal(db.right, right)
        assert (db.left is None) == (left is None)
        if left is not None:
            assert np.array_equal(db.left, left)
        assert np.array_equal(db.mass_factor @ np.eye(sys_.n), cholesky_factor(sys_.mass.toarray()))

    def test_partial_path_matches_dense_database(self, monkeypatch):
        sys_ = heat_rod(200, h_left=1.0)
        mus = np.linspace(0.0, 28.0, 5)
        eigenvalues, right, _ = dense_sample_spectrum(sys_, mus, 6)
        calls = []
        monkeypatch.setattr(numerics, "generalized_eig", lambda *a, **k: calls.append(a))
        db = sample_spectrum(sys_, mus, 6)
        assert calls == [] and db.left is None
        assert np.all(np.abs(db.eigenvalues - eigenvalues) <= 1e-9 * np.abs(eigenvalues))
        E = sys_.mass.toarray()
        signs = np.sign(np.einsum("nik,nj,jik->ik", db.right, E, right))
        diff = db.right - signs * right
        assert np.sqrt(np.einsum("nik,nj,jik->ik", diff, E, diff)).max() <= 1e-8

    def test_failed_self_check_names_parameter(self, monkeypatch):
        rod = heat_rod(40, h_left=1.0)

        def wrong_modes(A, k, **kwargs):  # exact standard-form eigenpairs, but skipping the slowest mode
            w, v = scipy.linalg.eigh(A.toarray(), rod.mass.toarray())
            return w[::-1][1:k + 1], numerics.MassFactor.of(rod.mass) @ v[:, ::-1][:, 1:k + 1]

        monkeypatch.setattr(numerics.spla, "eigsh", wrong_modes)
        with pytest.raises(EigensolverError, match="mu=14.0.*inertia"):
            sample_spectrum(rod, np.array([14.0, 20.0]), 3)


def undamped(stiffness):
    """First-order form of M ÿ = K(μ) y with M = I, declaring its second-order system."""
    return first_order_form(SecondOrderSystem(np.eye(2), stiffness, (0.0, 1.0)))


def dense_path_taken(*args, **kwargs):
    raise AssertionError("the dense first-order path was taken")


class TestUndampedRoute:
    def test_matches_dense_path(self, monkeypatch):
        # the 24-mass chain at m = 12: the (K, M) route against its dense first-order solve
        chain = first_order_form(spring_chain_with_defect(24, mass=2.0))
        mus = np.linspace(0.5, 23.5, 49)
        oracle = sample_spectrum(replace(chain, second_order=None), mus, 12)
        monkeypatch.setattr(modal, "slowest_eigenpairs", dense_path_taken)
        db = sample_spectrum(chain, mus, 12)
        assert np.all(db.eigenvalues.real == 0.0)
        omega = oracle.eigenvalues.imag
        assert np.all(np.abs(db.eigenvalues.imag - omega) <= 1e-13 * omega)
        E = chain.mass.toarray()
        eye = np.eye(db.m)
        for k in range(db.p):
            right, left, expected = db.right[:, :, k], db.left[:, :, k], oracle.right[:, :, k]
            overlap = np.sum(expected.conj() * (E @ right), axis=0)
            assert np.abs(right - expected * (overlap / np.abs(overlap))).max() <= 1e-12
            assert np.abs(np.diag(right.conj().T @ E @ right) - 1.0).max() <= 1e-12
            assert np.abs(left.conj().T @ E @ right - eye).max() <= 1e-12
        prepared, prepared_oracle = (align_database(pair_modes(d)) for d in (db, oracle))
        assert prepared.crossing_gaps == prepared_oracle.crossing_gaps != ()
        assert prepared.warnings == prepared_oracle.warnings

    def test_mode_at_takes_the_route(self, monkeypatch):
        chain = first_order_form(spring_chain_with_defect(6, k_defect=0.5))
        db = align_database(pair_modes(sample_spectrum(chain, np.linspace(0.5, 5.5, 9), 4)))
        expected = mode_at(replace(chain, second_order=None), db, 1, 3.3)
        monkeypatch.setattr(modal, "slowest_eigenpairs", dense_path_taken)
        assert np.abs(mode_at(chain, db, 1, 3.3) - expected).max() <= 1e-12

    def test_refuses_nonsymmetric_stiffness(self):
        sys_ = undamped(lambda mu: np.array([[-2.0, 0.5 * mu], [0.0, -3.0]]))
        with pytest.raises(EigensolverError, match="mu=1.0.*not symmetric"):
            sample_spectrum(sys_, np.array([0.0, 1.0]), 1)

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_refuses_a_stiffness_eigenvalue_not_below_zero(self, kappa):
        sys_ = undamped(lambda mu: np.diag([-1.0, -1.0 + mu * (1.0 + kappa)]))
        with pytest.raises(EigensolverError, match=f"mu=1.0.*stiffness eigenvalue {kappa:g} >= 0"):
            sample_spectrum(sys_, np.array([0.0, 1.0]), 1)

    def test_refuses_a_declaration_that_disagrees_with_the_operator(self):
        chain = first_order_form(spring_chain_with_defect(6, k_defect=0.5))
        wrong = replace(chain, second_order=spring_chain_with_defect(6, k_defect=0.25))
        with pytest.raises(EigensolverError, match="mu=0.5.*right pair .* backward error"):
            sample_spectrum(wrong, np.linspace(0.5, 5.5, 3), 2)


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

    def test_chain_pairing_pinned(self, chain_db):
        # the values a QZ solve of the pencil gives at every sample
        paired = pair_modes(chain_db)
        assert paired.crossing_gaps == (4,)
        assert paired.warnings == ()
        perms = [
            [int(np.flatnonzero(chain_db.eigenvalues[:, k] == lam)[0]) for lam in paired.eigenvalues[:, k]]
            for k in range(chain_db.p)
        ]
        assert perms == [[0, 1, 2, 3]] * 5 + [[1, 0, 2, 3]] * 4

    def test_chain_eigenvalues_match_qz(self, chain_db):
        fos = first_order_form(spring_chain_with_defect(6, k_defect=0.5))
        for k, mu in enumerate(chain_db.mus):
            w = scipy.linalg.eig(fos.operator_at(mu).toarray(), fos.mass.toarray(), right=False)
            w = w[numerics._spectral_order(w)]
            w = w[w.imag >= 0.0][: chain_db.m]
            assert np.all(np.abs(chain_db.eigenvalues[:, k] - w) <= 1e-12 * np.abs(w))


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
        mus, lam, right, F = rod_db.mus, rod_db.eigenvalues, rod_db.right, rod_db.mass_factor
        with pytest.raises(ValueError, match="increasing"):
            ModeDatabase(mus[::-1], lam, right, None, F)
        with pytest.raises(ValueError, match="eigenvalues"):
            ModeDatabase(mus, lam[:, :-1], right, None, F)
        with pytest.raises(ValueError, match="right modes"):
            ModeDatabase(mus[:-1], lam[:, :-1], right, None, F)
        with pytest.raises(ValueError, match="left modes"):
            ModeDatabase(mus, lam, right, right[:, :-1], F)


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
        fixed = align_database(corrupted)
        assert _unchanged(corrupted, before)
        assert np.array_equal(fixed.right, db.right)
        again = align_database(fixed)
        assert np.array_equal(again.right, fixed.right)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(angles=arrays(float, (4, 9), elements=st.floats(0.0, 2.0 * np.pi)))
    def test_random_phases_are_undone(self, chain_db, angles):
        db = align_database(pair_modes(chain_db))
        rotation = np.exp(1j * angles)
        corrupted = replace(db, right=db.right * rotation, left=db.left * rotation, aligned=False)
        before = _snapshot(corrupted)
        fixed = align_database(corrupted)
        assert _unchanged(corrupted, before)
        # every sample's phase is undone, the first one's too
        assert np.max(np.abs(fixed.right - db.right)) <= 1e-12
        assert np.max(np.abs(fixed.left - db.left)) <= 1e-12
        again = align_database(fixed)
        assert np.max(np.abs(again.right - fixed.right)) <= 1e-14
        assert np.max(np.abs(again.left - fixed.left)) <= 1e-14

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(angles=arrays(float, (6, 8), elements=st.floats(0.0, 2.0 * np.pi)))
    def test_phases_on_a_real_database_are_undone(self, prepared_rod_db, angles):
        # a real sign is a unit phase: the same pass turns a complex copy back to the real chains
        db = prepared_rod_db
        corrupted = replace(db, right=db.right * np.exp(1j * angles), aligned=False)
        fixed = align_database(corrupted)
        assert np.max(np.abs(fixed.right - db.right)) <= 1e-12


class TestAlignSigns:
    def test_flip_branch(self):
        p1 = np.array([[1.0], [0.0]])
        p2 = np.array([[-1.0], [0.0]])
        db = database_from_modes([0.0, 1.0], [p1, p2], paired=True)
        aligned = align_database(db)
        assert np.array_equal(aligned.samples[1].right_modes, p1)

    def test_idempotent(self, prepared_rod_db):
        again = align_database(prepared_rod_db)
        for a, b in zip(again.samples, prepared_rod_db.samples):
            assert np.array_equal(a.right_modes, b.right_modes)

    def test_recovers_from_random_sign_corruption(self, rod_db):
        base = align_database(pair_modes(rod_db))
        E = base.mass_factor.mass().toarray()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            flips = np.array([rng.choice([-1.0, 1.0], size=base.m) for _ in range(base.p)]).T
            db = ModeDatabase(
                base.mus, base.eigenvalues, base.right * flips, None, base.mass_factor, paired=True
            )
            fixed = align_database(db)
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
        aligned = align_database(db)
        assert any("orthogonal" in w for w in aligned.warnings)
        assert np.array_equal(aligned.samples[1].right_modes, p2)

    def test_requires_paired(self, rod_db):
        with pytest.raises(ValueError):
            align_database(rod_db)


def phase_objective(F, phi_k, phi_1, theta):
    rotated = phi_k * np.exp(1j * theta)
    diff = rotated - phi_1
    return np.linalg.norm(F @ diff)


class TestAlignPhases:
    def test_quarter_turn(self):
        p1 = np.array([[1.0 + 0j], [0.0]])
        pk = np.array([[1j], [0.0]])
        db = database_from_modes([0.0, 1.0], [p1, pk], paired=True)
        aligned = align_database(db)
        assert np.allclose(aligned.samples[1].right_modes, p1)

    def test_identity_angle_zero(self):
        p1 = np.array([[0.6 + 0.3j], [0.2 - 0.7j]])
        db = database_from_modes([0.0, 1.0], [p1, p1.copy()], paired=True)
        aligned = align_database(db)
        # both samples turn so that the largest entry, 0.2 − 0.7j, is real and positive
        expected = p1 * abs(p1[1, 0]) / p1[1, 0]
        for k in range(2):
            assert np.max(np.abs(aligned.right[:, :, k] - expected)) <= 1e-15

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
        aligned = align_database(db)
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
        db = align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 3)))
        E = db.mass_factor.mass().toarray()
        for i in range(db.m):
            for k in range(db.p - 1):
                c = np.vdot(db.right[:, i, k], E @ db.right[:, i, k + 1])
                assert c.real >= 0 and abs(c.imag) <= 1e-12

    def test_first_sample_convention(self, chain_db):
        db = align_database(pair_modes(chain_db))
        for i in range(db.m):
            col = db.right[:, i, 0]
            top = col[np.argmax(np.abs(col))]
            assert top.real > 0 and abs(top.imag) <= 1e-15 * abs(top)

    def test_traveling_bump_phases_follow_neighbours(self):
        # a bump moves by more than its width over the sweep, so its late samples are
        # orthogonal to the first: aligning to the neighbour, not to sample 0, keeps the chain
        mus = np.linspace(0.0, 1.0, 81)
        modes = np.stack([traveling_bump_family(400, 3.0, mu) for mu in mus], axis=1)[:, None, :]
        phases = np.exp(1j * np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, mus.size))
        aligned = align_database(database_from_modes(mus, modes * phases, paired=True))
        chain = aligned.right_block(0)
        overlaps = np.einsum("nk,nk->k", chain[:, :-1].conj(), chain[:, 1:])
        assert np.max(np.abs(np.angle(overlaps))) <= 1e-12
        assert aligned.warnings == ()

    def test_idempotent(self):
        from eigendeform.systems import spring_chain_with_defect

        fos = first_order_form(spring_chain_with_defect(4, k_defect=0.5))
        db = align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 3.5, 3), 2)))
        again = align_database(db)
        for a, b in zip(again.samples, db.samples):
            assert np.max(np.abs(a.right_modes - b.right_modes)) <= 1e-14


class TestAlignmentInvariants:
    def test_normalization_preserved(self, prepared_rod_db):
        E = prepared_rod_db.mass_factor.mass().toarray()
        for s in prepared_rod_db.samples:
            for i in range(prepared_rod_db.m):
                phi = s.right_modes[:, i]
                assert abs(phi @ E @ phi - 1.0) <= 1e-10

    def test_eigen_residuals_unchanged(self, rod_db, prepared_rod_db):
        sys_ = heat_rod(20, h_left=1.0)
        E = rod_db.mass_factor.mass().toarray()
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
        db = align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 2)))
        mu = db.mus[2]
        truth = mode_at(fos, db, 0, mu)
        stored = db.samples[2].right_modes[:, 0]
        assert np.linalg.norm(truth - stored) <= 1e-8

    def test_complex_mode_in_phase_with_nearest_sample(self):
        # one dashpot makes the damping non-proportional, so the modes are genuinely complex
        fos = first_order_form(spring_chain_with_defect(6, k_defect=0.5))
        damper = np.zeros((12, 12))
        damper[8, 8] = -0.3
        # damped, it is no longer the first-order form of the undamped chain it declares
        damped = replace(fos, operator_at=lambda mu: fos.operator_at(mu).toarray() + damper, second_order=None)
        db = align_database(pair_modes(sample_spectrum(damped, np.linspace(0.5, 5.5, 9), 4)))
        F = db.mass_factor
        for mu in (2.05, 3.3, 5.05):  # the soft spring sits elsewhere than at the nearest sample
            nearest = int(np.argmin(np.abs(db.mus - mu)))
            for i in range(db.m):
                c = np.vdot(F @ db.right[:, i, nearest], F @ mode_at(damped, db, i, mu))
                assert c.real > 0 and abs(c.imag) <= 1e-12 * abs(c)

    def test_reference_mode_is_mass_weighted(self):
        # masses 100 and 1, E-orthonormal modes φ = E^-½ ψ with ψ = (3, 1)/√10, (−1, 3)/√10:
        # the overlap φ₁ᵀ E^½ φ₂ = 0.27 beats φ₁ᵀ E^½ φ₁ = 0.19, so only the E-weighted
        # reference (φ₁ᵀ E φⱼ = δ₁ⱼ) picks mode 1
        half = np.diag([10.0, 1.0])
        psi = np.array([[3.0, -1.0], [1.0, 3.0]]) / np.sqrt(10.0)

        def operator(mu):
            return -half @ psi @ np.diag([1.0, 2.0 + mu]) @ psi.T @ half

        sys_ = FullOrderSystem(2, half @ half, operator, lambda mu: np.zeros(2), (0.0, 1.0))
        db = align_database(pair_modes(sample_spectrum(sys_, np.array([0.0, 1.0]), 1)))
        for k in range(db.p):
            assert np.linalg.norm(mode_at(sys_, db, 0, db.mus[k]) - db.right[:, 0, k]) <= 1e-10

    def test_requires_aligned(self, rod_db):
        sys_ = heat_rod(20, h_left=1.0)
        with pytest.raises(ValueError):
            mode_at(sys_, rod_db, 0, 1.0)

    def test_partial_path_reproduces_stored_modes(self, monkeypatch):
        sys_ = heat_rod(200, h_left=0.0)
        db = align_database(pair_modes(sample_spectrum(sys_, np.linspace(0.0, 28.0, 4), 6)))
        monkeypatch.setattr(numerics, "generalized_eig", None)  # the dense solver must not run
        E = sys_.mass.toarray()
        for k in (0, 2):
            for i in range(db.m):
                diff = mode_at(sys_, db, i, db.mus[k]) - db.right[:, i, k]
                assert np.sqrt(diff @ E @ diff) <= 1e-8


class TestSyntheticDatabases:
    def test_bump_database_prepared(self):
        db = bump_database(40, 2.0, np.linspace(0.1, 0.9, 8))
        assert db.paired and db.aligned and db.m == 1
        assert db.mass_factor.kind == "identity"

    def test_synthetic_wide_deterministic(self):
        a = synthetic_wide_database(500, np.linspace(0, 1, 5), 3, seed=4)
        b = synthetic_wide_database(500, np.linspace(0, 1, 5), 3, seed=4)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.right_modes, sb.right_modes)
        assert a.aligned
