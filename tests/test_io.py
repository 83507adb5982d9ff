import json
import sys
import threading

import numpy as np
import pytest

from eigendeform.edm import extract_edm_basis
from eigendeform.io import (
    _write_atomic,
    ChecksumError,
    FormatError,
    load_database,
    load_edm_basis,
    save_database,
    save_edm_basis,
)
from eigendeform.modal import align_phases, align_signs, bump_database, pair_modes, sample_spectrum
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
    if a.mass_factor is None:
        assert b.mass_factor is None
    else:
        assert np.array_equal(a.mass_factor, b.mass_factor)
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
        assert loaded.mass_factor is None
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
