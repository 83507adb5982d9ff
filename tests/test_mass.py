"""The mass metric: MassFactor kinds against the dense Cholesky oracle, refusals, and memory."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from eigendeform.edm import compute_edms, extract_edm_basis
from eigendeform.io import FormatError, _read_arrays, _save, load_database, save_database
from eigendeform.modal import (
    ModeDatabase,
    align_database,
    bump_database,
    database_from_modes,
    pair_modes,
    sample_spectrum,
)
from eigendeform.numerics import (
    IndefiniteMatrixError,
    LinearAlgebraError,
    MassFactor,
    SymmetryError,
    cholesky_factor,
)
from eigendeform.rom import build_rom_interpolated
from eigendeform.systems import heat_rod

N = 7


def spd_mass(kind: str) -> np.ndarray:
    rng = np.random.default_rng(5)
    if kind == "identity":
        return np.eye(N)
    if kind == "diagonal":
        return np.diag(rng.uniform(0.5, 2.0, N))
    B = rng.standard_normal((N, N))
    return B @ B.T + N * np.eye(N)


def as_input(E: np.ndarray, form: str):
    """E as a dense array, a CSR array, or a COO array built from its nonzero entries."""
    if form == "dense":
        return E
    if form == "sparse":
        return sp.csr_array(E)
    rows, cols = np.nonzero(E)
    return sp.coo_array((E[rows, cols], (rows, cols)), shape=E.shape)


def rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


FORMS = ["dense", "sparse", "coo"]
KINDS = ["identity", "diagonal", "dense"]


class TestKinds:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_is_chosen_from_the_matrix(self, kind, form):
        F = MassFactor.of(as_input(spd_mass(kind), form))
        assert F.kind == kind and F.n == N
        assert (F.scale is None) == (kind != "diagonal")
        assert (F.cholesky is None) == (kind != "dense")

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_against_dense_cholesky_oracle(self, kind, form):
        E = spd_mass(kind)
        F, C = MassFactor.of(as_input(E, form)), cholesky_factor(E)
        rng = np.random.default_rng(1)
        for shape in [(N,), (N, 3), (N, 3, 4)]:
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x = np.asfortranarray(x)
            oracle = np.einsum("ij,j...->i...", C, x)
            assert (F @ x).shape == shape and rel(F @ x, oracle) <= 1e-14
            solved = scipy.linalg.solve_triangular(C, x.reshape(N, -1), lower=False).reshape(shape)
            assert rel(F.solve(x), solved) <= 1e-14
            assert rel(F.solve(F @ x), x) <= 1e-14
        assert np.array_equal(F.mass().toarray(), C.T @ C)

    def test_identity_and_diagonal_match_the_oracle_bitwise(self):
        n = 200  # enough entries that dividing and multiplying by the reciprocal round apart
        rng = np.random.default_rng(2)
        x = np.asfortranarray(rng.standard_normal((n, 3, 4)))
        for E in (np.eye(n), np.diag(rng.uniform(0.5, 2.0, n))):
            F, C = MassFactor.of(E), cholesky_factor(E)
            assert np.array_equal(F @ np.eye(n), C)
            assert np.array_equal(F @ x, (C @ x.reshape(n, -1, order="F")).reshape(x.shape, order="F"))
            for b in (x[:, 0, 0], x[:, :1, 0], x[:, :, 0]):  # one and several columns
                assert np.array_equal(F.solve(b), scipy.linalg.solve_triangular(C, b, lower=False))

    def test_identity_returns_its_input(self):
        x = np.ones((N, 2))
        assert MassFactor(N) @ x is x and MassFactor(N).solve(x) is x

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_leading_size_refused(self, kind):
        F = MassFactor.of(spd_mass(kind))
        for x in (np.ones(N + 1), np.ones(1), np.ones((1, N)), np.float64(1.0)):
            with pytest.raises(LinearAlgebraError, match="cannot act"):
                F @ x
            with pytest.raises(LinearAlgebraError, match="cannot act"):
                F.solve(x)

    @pytest.mark.parametrize("kind", KINDS)
    def test_compute_edms_is_orthonormal_in_every_kind(self, kind):
        E = spd_mass(kind)
        data = np.random.default_rng(3).standard_normal((N, 5))
        basis = compute_edms(np.zeros(N), data, MassFactor.of(E), rank=3, mode_index=0, sample_mus=np.arange(5.0))
        assert np.linalg.norm(basis.edms.T @ E @ basis.edms - np.eye(3)) <= 1e-12


BAD_DIAGONAL = [
    (0.0, IndefiniteMatrixError),
    (-1.0, IndefiniteMatrixError),
    (np.nan, SymmetryError),
    (np.inf, SymmetryError),
    (-np.inf, SymmetryError),
]


def bad_diagonal(value) -> np.ndarray:
    E = spd_mass("diagonal")
    E[3, 3] = value
    return E


class TestRefusals:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("value, error", BAD_DIAGONAL)
    def test_same_refusal_as_the_oracle(self, value, error, form):
        E = bad_diagonal(value)
        with pytest.raises(error) as oracle:
            cholesky_factor(E)
        with pytest.raises(error) as ours:
            MassFactor.of(as_input(E, form))
        if error is IndefiniteMatrixError:
            assert ours.value.pivot == oracle.value.pivot == 3

    def test_missing_diagonal_entry_refused(self):
        E = spd_mass("diagonal")
        keep = np.arange(N) != 3
        coo = sp.coo_array((np.diagonal(E)[keep], (np.arange(N)[keep],) * 2), shape=E.shape)
        with pytest.raises(IndefiniteMatrixError) as ours:
            MassFactor.of(coo)
        assert ours.value.pivot == 3

    def test_non_square_refused(self):
        with pytest.raises(LinearAlgebraError, match="square"):
            MassFactor.of(np.ones((2, 3)))


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_dense_input_is_classified_without_an_n_by_n_copy(kind):
    """n = 800: deciding whether a dense E is diagonal reads it in place."""
    n = 800
    rng = np.random.default_rng(11)
    if kind == "diagonal":
        E = np.diag(rng.uniform(0.5, 2.0, n))
    else:
        B = rng.standard_normal((n, n))
        E = B @ B.T + n * np.eye(n)
    tracemalloc.start()
    try:
        factor = MassFactor._of_diagonal(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (factor is None) == (kind == "dense")
    assert peak <= 0.05 * n * n * 8, f"peak traced memory {peak / 1e6:.2f} MB"

# a zero, negative, NaN or inf diagonal entry, or none at all, in three entry points
ENTRY_REFUSALS = BAD_DIAGONAL + [(None, IndefiniteMatrixError)]


def rod_mass_with(value):
    """The n = 20 heat rod's CSR mass with entry (3, 3) replaced, or left out for None."""
    d = heat_rod(20, h_left=1.0).mass.diagonal()
    keep = np.ones(20, dtype=bool)
    if value is None:
        keep[3] = False
    else:
        d[3] = value
    i = np.flatnonzero(keep)
    return sp.csr_array((d[keep], (i, i)), shape=(20, 20))


def edit_saved_array(path, name: str, edit) -> None:
    """Write a saved directory again with array ``name`` replaced by ``edit`` of a copy of it, through the
    writer, so the offsets and checksums fit and only the content is at fault."""
    manifest = json.loads((path / "manifest.json").read_text())
    arrays = _read_arrays(path, manifest, dict.fromkeys(manifest["arrays"]))
    arrays[name] = edit(arrays[name].copy())
    fields = {key: value for key, value in manifest.items() if key not in ("format_version", "kind", "arrays")}
    _save(path, manifest["kind"], fields, arrays)


def with_entry(index, value):
    """An edit that sets one entry and returns the array."""
    def edit(a):
        a[index] = value
        return a
    return edit


class TestEntryPointRefusals:
    @pytest.mark.parametrize("value, error", ENTRY_REFUSALS)
    def test_sample_spectrum(self, value, error):
        rod = dataclasses.replace(heat_rod(20, h_left=1.0), mass=rod_mass_with(value))
        with pytest.raises(error):
            sample_spectrum(rod, np.linspace(0.0, 28.0, 3), 3)

    @pytest.mark.parametrize("value, error", ENTRY_REFUSALS)
    def test_database_from_modes(self, value, error):
        modes = np.random.default_rng(0).standard_normal((20, 2, 3))
        with pytest.raises(error):
            database_from_modes([0.0, 1.0, 2.0], modes, mass=rod_mass_with(value).toarray())

    # the saved scale entry itself; a scale with an entry left out has the wrong shape
    @pytest.mark.parametrize("value, error", BAD_DIAGONAL + [(None, FormatError)])
    def test_load_database(self, value, error, tmp_path):
        rod = heat_rod(20, h_left=1.0)
        db = align_database(pair_modes(sample_spectrum(rod, np.linspace(0.0, 28.0, 3), 3)))
        path = save_database(db, tmp_path / "db")
        edit_saved_array(path, "mass_scale", lambda s: np.delete(s, 3) if value is None else with_entry(3, value)(s))
        with pytest.raises(error):
            load_database(path)


# an edit of a factor's array that MassFactor.of never gives: (kind, edit, error, message)
FACTOR_REFUSALS = [
    ("diagonal", lambda a: a.astype(complex), LinearAlgebraError, "complex values"),
    ("dense", lambda a: a.astype(complex), LinearAlgebraError, "complex values"),
    ("diagonal", with_entry(3, np.nan), SymmetryError, "non-finite"),
    ("dense", with_entry((3, 3), np.inf), SymmetryError, "non-finite"),
    ("diagonal", with_entry(3, 0.0), IndefiniteMatrixError, "pivot index 3"),
    ("dense", with_entry((3, 3), -1.0), IndefiniteMatrixError, "pivot index 3"),
    ("dense", with_entry((5, 2), 1e-300), LinearAlgebraError, "nonzero below its diagonal"),
]
FACTOR_REFUSAL_IDS = ["complex-scale", "complex-cholesky", "nan-scale", "inf-cholesky-pivot", "zero-scale",
                      "negative-cholesky-pivot", "below-the-diagonal"]


def saved_database(kind: str, tmp_path):
    """A saved 7-state database whose mass has the MassFactor ``kind``."""
    modes = np.random.default_rng(0).standard_normal((N, 2, 3))
    db = database_from_modes([0.0, 1.0, 2.0], modes, mass=spd_mass(kind), paired=True)
    return save_database(db, tmp_path / "db")


class TestFactorRefusals:
    """A factor that MassFactor.of never gives is refused by the constructor, and so by load_database, which
    builds the factor from its saved array."""

    @pytest.mark.parametrize(
        "kind, listed, message",
        [
            ("diagonal", "banded", r"mass kind 'banded' is not one of \['identity', 'diagonal', 'dense'\]"),
            ("identity", "diagonal", r"\['eigenvalues', 'right_modes'\], expected \['eigenvalues', 'mass_scale'"),
            ("diagonal", "identity", r"'mass_scale', 'right_modes'\], expected \['eigenvalues', 'right_modes'\]"),
            ("diagonal", "dense", r"'mass_scale', 'right_modes'\], expected \['eigenvalues', 'mass_cholesky'"),
        ],
        ids=["unknown-kind", "missing-array", "extra-array", "other-kinds-array"],
    )
    def test_kind_must_name_the_saved_array(self, kind, listed, message, tmp_path):
        path = saved_database(kind, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["mass"] = listed
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=message):
            load_database(path)

    @pytest.mark.parametrize("kind, edit, error, message", FACTOR_REFUSALS, ids=FACTOR_REFUSAL_IDS)
    def test_factor_of_no_mass_refused(self, kind, edit, error, message, tmp_path):
        path = saved_database(kind, tmp_path)
        edit_saved_array(path, {"diagonal": "mass_scale", "dense": "mass_cholesky"}[kind], edit)
        with pytest.raises(error, match=message) as refused:
            load_database(path)
        if error is IndefiniteMatrixError:
            assert refused.value.pivot == 3

    @pytest.mark.parametrize("kind, edit, error, message", FACTOR_REFUSALS, ids=FACTOR_REFUSAL_IDS)
    def test_constructor_refuses_the_same(self, kind, edit, error, message):
        field = {"diagonal": "scale", "dense": "cholesky"}[kind]
        fresh = getattr(MassFactor.of(spd_mass(kind)), field)
        with pytest.raises(error, match=message) as refused:
            MassFactor(N, **{field: edit(fresh.copy())})
        if error is IndefiniteMatrixError:
            assert refused.value.pivot == 3

    def test_constructor_keeps_a_dense_factor_row_major(self):
        C = cholesky_factor(spd_mass("dense"))
        F = MassFactor(N, cholesky=np.asfortranarray(C))
        assert F.cholesky.flags.c_contiguous and np.array_equal(F.cholesky, C)


class TestDatabaseMass:
    def test_mass_of_the_wrong_size_refused(self):
        modes = np.random.default_rng(0).standard_normal((5, 2, 3))
        with pytest.raises(ValueError, match="n=5"):
            database_from_modes([0.0, 1.0, 2.0], modes, mass=2 * np.eye(3), paired=True)

    def test_constructor_needs_a_matching_factor(self):
        mus, lam, right = [0.0, 1.0], -np.ones((2, 2)), np.ones((5, 2, 2))
        for factor in (None, np.eye(5), MassFactor(4)):
            with pytest.raises(ValueError, match="MassFactor"):
                ModeDatabase(mus, lam, right, None, factor)
        assert ModeDatabase(mus, lam, right, None, MassFactor(5)).mass_factor.n == 5

    def test_generators_pick_the_kind(self):
        rod = sample_spectrum(heat_rod(20, h_left=1.0), np.linspace(0.0, 28.0, 3), 3)
        assert rod.mass_factor.kind == "diagonal"
        assert bump_database(10, 2.0, np.linspace(0.1, 0.9, 3)).mass_factor.kind == "identity"
        dense = database_from_modes([0.0, 1.0], np.ones((N, 1, 2)), mass=spd_mass("dense"))
        assert dense.mass_factor.kind == "dense"


def test_large_rod_pipeline_builds_no_n_by_n_array(tmp_path):
    """n = 4000: one dense n x n float array would take 128 MB."""
    rod = heat_rod(4000, h_left=1.0)
    tracemalloc.start()
    try:
        db = align_database(pair_modes(sample_spectrum(rod, np.linspace(0.0, 28.0, 3), 4)))
        bases = [extract_edm_basis(db, i) for i in range(db.m)]
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        model = build_rom_interpolated(loaded, 13.0, 4, edm_bases=bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak traced memory {peak / 1e6:.1f} MB"
    assert loaded.mass_factor.kind == "diagonal" and model.biorth_defect < 1.0
