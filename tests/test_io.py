import json
import os
import stat
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from eigendeform.edm import extract_edm_basis
from eigendeform.io import (
    _coo_bytes,
    _coo_parse,
    _write_atomic,
    ChecksumError,
    FormatError,
    load_database,
    load_edm_basis,
    save_database,
    save_edm_basis,
)
from eigendeform.modal import (
    align_phases,
    align_signs,
    bump_database,
    database_from_modes,
    pair_modes,
    sample_spectrum,
)
from eigendeform.numerics import IndefiniteMatrixError, MassFactor
from eigendeform.systems import first_order_form, heat_rod, spring_chain_with_defect


@pytest.fixture(scope="module")
def rod_db():
    sys_ = heat_rod(12, h_left=1.0, t_ambient=293.0, heat_source=2.0)
    return align_signs(pair_modes(sample_spectrum(sys_, np.linspace(0.0, 20.0, 5), 4)))


@pytest.fixture(scope="module")
def chain_db():
    fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
    return align_phases(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 3)))


def assert_databases_equal(a, b):
    assert (a.n, a.p, a.m) == (b.n, b.p, b.m)
    assert a.paired == b.paired and a.aligned == b.aligned
    assert a.crossing_gaps == b.crossing_gaps
    assert a.mass_factor.kind == b.mass_factor.kind
    assert np.array_equal(a.mass_factor @ np.eye(a.n), b.mass_factor @ np.eye(b.n))
    for sa, sb in zip(a.samples, b.samples):
        assert sa.mu == sb.mu
        assert np.array_equal(sa.eigenvalues, sb.eigenvalues)
        assert np.array_equal(sa.right_modes, sb.right_modes)
        if sa.left_modes is None:
            assert sb.left_modes is None
        else:
            assert np.array_equal(sa.left_modes, sb.left_modes)


class TestDatabaseRoundTrip:
    def test_real_database_bit_exact(self, rod_db, tmp_path):
        save_database(rod_db, tmp_path / "db")
        assert_databases_equal(rod_db, load_database(tmp_path / "db"))

    def test_complex_database_with_left_modes(self, chain_db, tmp_path):
        save_database(chain_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.is_complex and loaded.samples[0].left_modes is not None
        assert_databases_equal(chain_db, loaded)

    def test_sample_files_hold_the_array_slices(self, chain_db, tmp_path):
        path = save_database(chain_db, tmp_path / "db")
        for k in range(chain_db.p):
            right = (path / f"right_modes_{k:03d}.bin").read_bytes()
            left = (path / f"left_modes_{k:03d}.bin").read_bytes()
            assert right == chain_db.right[:, :, k].tobytes(order="F")
            assert left == chain_db.left[:, :, k].tobytes(order="F")
        loaded = load_database(path)
        assert loaded.right.flags.f_contiguous and loaded.left.flags.f_contiguous

    def test_identity_mass_survives(self, tmp_path):
        db = bump_database(24, 2.0, np.linspace(0.1, 0.9, 5))
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.mass_factor.kind == "identity"
        assert_databases_equal(db, loaded)

    def test_resave_is_byte_identical(self, rod_db, tmp_path):
        save_database(rod_db, tmp_path / "one")
        save_database(load_database(tmp_path / "one"), tmp_path / "two")
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()

    def test_metadata_preserved(self, rod_db, tmp_path):
        save_database(rod_db, tmp_path / "db")
        meta = load_database(tmp_path / "db").metadata
        assert meta["generator"]["name"] == "heat-rod"

    def test_crossings_and_warnings_survive(self, tmp_path):
        from dataclasses import replace

        sys_ = heat_rod(10, h_left=1.0)
        db = align_signs(pair_modes(sample_spectrum(sys_, np.linspace(0.0, 10.0, 3), 2)))
        db = replace(db, crossing_gaps=(1,), warnings=("degenerate pairing somewhere",))
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.crossing_gaps == (1,)
        assert loaded.warnings == ("degenerate pairing somewhere",)


class TestTamperDetection:
    def test_flipped_byte_names_file(self, rod_db, tmp_path):
        path = save_database(rod_db, tmp_path / "db")
        victim = path / "right_modes_002.bin"
        raw = bytearray(victim.read_bytes())
        raw[13] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="right_modes_002.bin"):
            load_database(path)

    def test_manifest_parameter_count_mismatch(self, rod_db, tmp_path):
        path = save_database(rod_db, tmp_path / "db")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["parameters"] = manifest["parameters"][:-1]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            load_database(path)

    def test_manifest_shape_mismatch(self, rod_db, tmp_path):
        path = save_database(rod_db, tmp_path / "db")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["arrays"]["right_modes_000.bin"]["shape"] = [1, 1]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="right_modes_000.bin"):
            load_database(path)

    def test_missing_file(self, rod_db, tmp_path):
        path = save_database(rod_db, tmp_path / "db")
        (path / "eigenvalues.bin").unlink()
        with pytest.raises(FormatError, match="eigenvalues.bin"):
            load_database(path)

    def test_bad_coo_line(self, rod_db, tmp_path):
        path = save_database(rod_db, tmp_path / "db")
        coo = (path / "E.coo").read_bytes()
        (path / "E.coo").write_bytes(coo)  # unchanged: checksum ok
        manifest = json.loads((path / "manifest.json").read_text())
        bad = b"not a triplet\n"
        import hashlib

        manifest["arrays"]["E.coo"]["checksum"] = "sha256:" + hashlib.sha256(bad).hexdigest()
        (path / "manifest.json").write_text(json.dumps(manifest))
        (path / "E.coo").write_bytes(bad)
        with pytest.raises(FormatError, match="row col value"):
            load_database(path)


def special_values(rng, size: int) -> np.ndarray:
    """Random values over every exponent, after nan, ±inf, ±0.0, subnormals and the largest float."""
    tiny = np.finfo(float).tiny
    fixed = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny, 1.7976931348623157e308]
    bits = rng.integers(0, 0x7FF0_0000_0000_0000, size, dtype=np.uint64)  # every finite exponent
    signs = rng.choice([-1.0, 1.0], size)
    return np.concatenate([fixed, signs * bits.view(np.float64)])


def bit_equal(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCooParse:
    N = 8

    def parse(self, data: bytes):
        coo = _coo_parse(data, self.N)
        return coo.row.tolist(), coo.col.tolist(), coo.data.tolist()

    def test_written_values_read_back_bit_exact(self):
        rng = np.random.default_rng(20240611)
        values = special_values(rng, 5000)
        n = values.size  # one entry per row and per column, so no entry repeats
        rows = rng.permutation(n)
        cols = rng.permutation(n)
        coo = _coo_parse(_coo_bytes(sp.coo_array((values, (rows, cols)), shape=(n, n))), n)
        assert np.array_equal(coo.row, rows) and np.array_equal(coo.col, cols)
        assert coo.data.dtype == np.float64 and bit_equal(coo.data, values)

    def test_saved_diagonal_mass_loads_to_the_same_factor_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        diagonal = np.abs(special_values(rng, 200))
        diagonal = diagonal[np.isfinite(diagonal) & (diagonal > 0)]  # the masses MassFactor accepts
        n = diagonal.size
        mass = sp.coo_array((diagonal, (np.arange(n),) * 2), shape=(n, n))
        db = database_from_modes([0.0, 1.0], rng.standard_normal((n, 1, 2)), mass=mass, paired=True)
        path = save_database(db, tmp_path / "db")
        written = db.mass_factor.mass()
        assert (path / "E.coo").read_bytes() == _coo_bytes(written)
        loaded = load_database(path).mass_factor
        assert loaded.kind == "diagonal" and bit_equal(loaded.scale, MassFactor.of(written).scale)

    @pytest.mark.parametrize(
        "data",
        [
            b"0 0 1.0\r\n1 1 2.5\r\n",
            b"0\t0\t1.0\n1 \t 1\t2.5\n",
            b"\n0 0 1.0\n   \n\n1 1 2.5\n\n",
            b"0 0 1.0\n1 1 2.5",
        ],
        ids=["crlf", "tabs", "blank-lines", "no-final-newline"],
    )
    def test_accepted_layouts(self, data):
        assert self.parse(data) == ([0, 1], [0, 1], [1.0, 2.5])

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"0 0 1.0\n1 1\n", r"expected 'row col value' lines; .*3 columns but 2"),
            (b"0 0 1.0 2.0\n", r"expected 'row col value' lines; .*3 columns but 4"),
            (b"0 0 1.0 # c\n", r"expected 'row col value' lines; .*3 columns but 5"),
            (b"0 0 1.0\n-1 2 1.0\n", r"index \(-1, 2\) outside 8x8"),
            (b"0 0 1.0\n3 8 1.0\n8 0 1.0\n", r"index \(3, 8\) outside 8x8"),
            (b"0 0 1.0\n\xff 1 1.0\n", r"expected 'row col value' lines; .*decode byte 0xff"),
            (b"0 0 1.0\n1 1 1.0\n0 0 2.0\n", r"entry \(0, 0\) more than once"),
        ],
        ids=["two-tokens", "four-tokens", "comment", "negative-index", "index-n", "non-utf8",
             "repeated-entry"],
    )
    def test_refused_inputs(self, data, message):
        with pytest.raises(FormatError, match=f"^E.coo.*{message}"):
            _coo_parse(data, self.N)

    @pytest.mark.parametrize("token", ["1.5", "0.9", "2.0", "1e0"])
    @pytest.mark.parametrize("line", ["{} 0 1.0", "0 {} 1.0"], ids=["row", "col"])
    def test_non_integer_index_refused_with_warnings_ignored(self, line, token):
        # numpy releases with loadtxt's deprecated float fallback only warn before
        # truncating such an index; the refusal must not depend on the suite's
        # warnings-as-errors setting
        data = f"0 0 1.0\n{line.format(token)}\n".encode()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FormatError, match=f"^E.coo: expected 'row col value' lines; .*'{token}'"):
                _coo_parse(data, self.N)

    @pytest.mark.parametrize("data", [b"", b"\n \t\r\n\n"], ids=["empty", "blank"])
    def test_empty_mass_is_refused_by_the_factor_without_a_warning(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = _coo_parse(data, self.N)
        assert entries.nnz == 0
        with pytest.raises(IndefiniteMatrixError, match="pivot index 0"):
            MassFactor.of(entries)  # as load_database factors E.coo


class TestEdmBasisRoundTrip:
    def test_round_trip(self, rod_db, tmp_path):
        basis = extract_edm_basis(rod_db, 1, rank=2)
        save_edm_basis(basis, tmp_path / "edm")
        loaded = load_edm_basis(tmp_path / "edm")
        assert loaded.mode_index == 1 and loaded.rank == 2
        assert np.array_equal(loaded.mean_mode, basis.mean_mode)
        assert np.array_equal(loaded.edms, basis.edms)
        assert np.array_equal(loaded.singular_values, basis.singular_values)
        assert np.array_equal(loaded.coefficients, basis.coefficients)
        assert np.array_equal(loaded.sample_mus, basis.sample_mus)

    def test_complex_round_trip(self, chain_db, tmp_path):
        basis = extract_edm_basis(chain_db, 0, rank=2)
        save_edm_basis(basis, tmp_path / "edm")
        loaded = load_edm_basis(tmp_path / "edm")
        assert np.iscomplexobj(loaded.edms)
        assert np.array_equal(loaded.edms, basis.edms)

    def test_manifest_reports_rank_and_energy(self, rod_db, tmp_path):
        basis = extract_edm_basis(rod_db, 0, energy=0.999)
        path = save_edm_basis(basis, tmp_path / "edm")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["rank"] == basis.rank
        assert 0.999 <= manifest["energy_captured"] <= 1.0

    def test_wrong_kind_rejected(self, rod_db, tmp_path):
        save_database(rod_db, tmp_path / "db")
        with pytest.raises(FormatError, match="edm-basis"):
            load_edm_basis(tmp_path / "db")

    @pytest.mark.parametrize(
        "grid, message",
        [(None, "no sample parameters"), ([0.0, 10.0, 20.0], "do not fit"), ([1.0], "at least 2")],
    )
    def test_manifest_grid_that_does_not_fit_refused(self, rod_db, tmp_path, grid, message):
        path = save_edm_basis(extract_edm_basis(rod_db, 0, rank=2), tmp_path / "edm")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["sample_mus"] = grid
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=message):
            load_edm_basis(path)

    def test_bad_checksum_keeps_its_type(self, rod_db, tmp_path):
        path = save_edm_basis(extract_edm_basis(rod_db, 0, rank=2), tmp_path / "edm")
        victim = path / "coefficients.bin"
        raw = bytearray(victim.read_bytes())
        raw[3] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="coefficients.bin"):
            load_edm_basis(path)


class TestAtomicWrite:
    def test_concurrent_writers_leave_one_whole_payload(self, tmp_path):
        target = tmp_path / "manifest.json"
        payloads = [bytes([65 + i]) * 200_000 for i in range(4)]
        errors = []

        def writer(payload):
            try:
                for _ in range(50):
                    _write_atomic(target, payload)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert target.read_bytes() in payloads
        assert [f.name for f in tmp_path.iterdir()] == ["manifest.json"]

    def test_fsyncs_the_temp_file_before_the_rename_then_the_directory(self, tmp_path, monkeypatch):
        target = tmp_path / "eigenvalues.bin"
        target.write_bytes(b"old")
        payload = b"new content"
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            if stat.S_ISDIR(st.st_mode):
                synced.append(("dir", os.path.samestat(st, os.stat(tmp_path))))
            else:  # the temp file, full and not yet renamed over the target
                synced.append(("file", st.st_size == len(payload) and target.read_bytes() == b"old"))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        _write_atomic(target, payload)
        assert synced == [("file", True), ("dir", True)]
        assert target.read_bytes() == payload

    def test_database_save_syncs_every_file_before_renaming_the_manifest_last(
        self, rod_db, tmp_path, monkeypatch
    ):
        events = []
        lock = threading.Lock()  # files are synced from several threads
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            with lock:
                events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace(src, dst):
            events.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = save_database(rod_db, tmp_path / "db")
        names = sorted(f.name for f in path.iterdir())
        n = len(names)
        assert events[:n] == ["file"] * n
        assert sorted(events[n:2 * n]) == names and events[2 * n - 1] == "manifest.json"
        assert events[2 * n:] == ["dir"]

    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "manifest.json"
        target.write_bytes(b"old")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            _write_atomic(target, b"new")
        assert [f.name for f in tmp_path.iterdir()] == ["manifest.json"]
        assert target.read_bytes() == b"old"

    def test_failed_database_save_keeps_the_old_files_and_no_temp_file(
        self, rod_db, chain_db, tmp_path, monkeypatch
    ):
        path = save_database(rod_db, tmp_path / "db")
        before = {f.name: f.read_bytes() for f in path.iterdir()}
        real_fsync = os.fsync

        def failing_fsync(fd):
            if not stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("disk full")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_database(chain_db, path)
        assert {f.name: f.read_bytes() for f in path.iterdir()} == before
