import json
import os
import stat
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from eigendeform.edm import extract_edm_basis, interpolate_mode
from eigendeform.io import (
    _write_atomic,
    ChecksumError,
    FormatError,
    load_database,
    load_edm_basis,
    save_database,
    save_edm_basis,
)
from eigendeform.modal import (
    align_database,
    bump_database,
    database_from_modes,
    pair_modes,
    sample_spectrum,
)
from eigendeform.rom import build_rom_interpolated
from eigendeform.systems import first_order_form, heat_rod, spring_chain_with_defect


@pytest.fixture(scope="module")
def rod_db():
    sys_ = heat_rod(12, h_left=1.0, t_ambient=293.0, heat_source=2.0)
    return align_database(pair_modes(sample_spectrum(sys_, np.linspace(0.0, 20.0, 5), 4)))


@pytest.fixture(scope="module")
def chain_db():
    fos = first_order_form(spring_chain_with_defect(5, k_defect=0.5))
    return align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 4.5, 4), 3)))


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

    @pytest.mark.parametrize("saved", ["database", "basis"])
    def test_arrays_bin_holds_each_array_at_its_offset(self, chain_db, tmp_path, saved):
        if saved == "database":
            path = save_database(chain_db, tmp_path / "db")
            arrays = {"eigenvalues": chain_db.eigenvalues, "right_modes": chain_db.right,
                      "left_modes": chain_db.left}
            loaded = load_database(path)
            loaded = {"eigenvalues": loaded.eigenvalues, "right_modes": loaded.right, "left_modes": loaded.left}
        else:
            basis = extract_edm_basis(chain_db, 0, rank=2)
            path = save_edm_basis(basis, tmp_path / "edm")
            arrays = {name: getattr(basis, name) for name in ("mean_mode", "edms", "singular_values", "coefficients")}
            loaded_basis = load_edm_basis(path)
            loaded = {name: getattr(loaded_basis, name) for name in arrays}
        assert sorted(f.name for f in path.iterdir()) == ["arrays.bin", "manifest.json"]
        raw = (path / "arrays.bin").read_bytes()
        entries = json.loads((path / "manifest.json").read_text())["arrays"]
        assert sorted(entries) == sorted(arrays)
        end = 0
        for name, entry in sorted(entries.items(), key=lambda item: item[1]["offset"]):
            data = arrays[name].tobytes(order="F")
            start = entry["offset"]
            assert start % 64 == 0 and start - end < 64 and raw[end:start] == bytes(start - end)
            assert raw[start:start + len(data)] == data
            end = start + len(data)
        assert len(raw) == end
        for name, a in loaded.items():
            assert a.flags.writeable, name
            if saved == "database" and name != "eigenvalues":  # complex eigenvalues are stored real when they are
                assert a.flags.f_contiguous, name
        if saved == "basis":
            # mean_mode and edms are column 0 and columns 1..r of one column-major block, as in a fresh
            # basis, and coefficients rows 1..r of the coordinates [1; coefficients]
            block, coordinates = loaded_basis.block, loaded_basis.coordinates
            assert block.flags.f_contiguous and block.flags.writeable and block.shape == (chain_db.n, 3)
            assert coordinates.flags.writeable and np.all(coordinates[0] == 1.0)
            for view, whole, part in (
                (loaded["mean_mode"], block, block[:, 0]),
                (loaded["edms"], block, block[:, 1:]),
                (loaded["coefficients"], coordinates, coordinates[1:]),
            ):
                assert view.base is whole
                assert view.__array_interface__ == part.__array_interface__

    def test_identity_mass_survives(self, tmp_path):
        db = bump_database(24, 2.0, np.linspace(0.1, 0.9, 5))
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.mass_factor.kind == "identity"
        assert_databases_equal(db, loaded)

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "dense"])
    def test_mass_factor_round_trips_bitwise(self, kind, tmp_path):
        # the factor's own array is saved and loaded, never refactored from E
        n, rng = 30, np.random.default_rng(3)
        B = rng.standard_normal((n, n))
        mass = {"identity": np.eye(n), "diagonal": np.diag(rng.uniform(0.5, 2.0, n)),
                "dense": B @ B.T + n * np.eye(n)}
        db = database_from_modes([0.0, 1.0, 2.0], rng.standard_normal((n, 2, 3)), mass=mass[kind], paired=True)
        path = save_database(db, tmp_path / "db")
        manifest = json.loads((path / "manifest.json").read_text())
        saved = {"identity": [], "diagonal": ["mass_scale"], "dense": ["mass_cholesky"]}[kind]
        assert manifest["mass"] == kind
        assert sorted(manifest["arrays"]) == sorted(["eigenvalues", "right_modes", *saved])
        F, loaded = db.mass_factor, load_database(path).mass_factor
        assert loaded.kind == kind
        for fresh, read in ((F.scale, loaded.scale), (F.cholesky, loaded.cholesky)):
            assert (fresh is None and read is None) or bit_equal(fresh, read)
        x = rng.standard_normal((n, 3))
        assert np.array_equal(loaded @ x, F @ x) and np.array_equal(loaded.solve(x), F.solve(x))

    def test_saved_diagonal_mass_loads_to_the_same_factor_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        diagonal = np.abs(special_values(rng, 200))
        diagonal = diagonal[np.isfinite(diagonal) & (diagonal > 0)]  # the masses MassFactor accepts
        n = diagonal.size
        mass = sp.coo_array((diagonal, (np.arange(n),) * 2), shape=(n, n))
        db = database_from_modes([0.0, 1.0], rng.standard_normal((n, 1, 2)), mass=mass, paired=True)
        loaded = load_database(save_database(db, tmp_path / "db")).mass_factor
        assert loaded.kind == "diagonal" and bit_equal(loaded.scale, db.mass_factor.scale)

    def test_resave_is_byte_identical(self, rod_db, tmp_path):
        save_database(rod_db, tmp_path / "one")
        save_database(load_database(tmp_path / "one"), tmp_path / "two")
        # a basis's arrays.bin has zero padding: mean_mode's 12 floats end at byte 96, edms starts at 128
        save_edm_basis(extract_edm_basis(rod_db, 1, rank=2), tmp_path / "one" / "edm")
        save_edm_basis(load_edm_basis(tmp_path / "one" / "edm"), tmp_path / "two" / "edm")
        for f in sorted((tmp_path / "one").rglob("*")):
            if f.is_file():
                assert f.read_bytes() == (tmp_path / "two" / f.relative_to(tmp_path / "one")).read_bytes()

    def test_metadata_preserved(self, rod_db, tmp_path):
        save_database(rod_db, tmp_path / "db")
        meta = load_database(tmp_path / "db").metadata
        assert meta["generator"]["name"] == "heat-rod"

    def test_crossings_and_warnings_survive(self, tmp_path):
        from dataclasses import replace

        sys_ = heat_rod(10, h_left=1.0)
        db = align_database(pair_modes(sample_spectrum(sys_, np.linspace(0.0, 10.0, 3), 2)))
        db = replace(db, crossing_gaps=(1,), warnings=("degenerate pairing somewhere",))
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.crossing_gaps == (1,)
        assert loaded.warnings == ("degenerate pairing somewhere",)


class TestTamperDetection:
    @pytest.mark.parametrize("name", ["eigenvalues", "right_modes", "left_modes"])
    def test_flipped_byte_names_its_array(self, chain_db, tmp_path, name):
        path = save_database(chain_db, tmp_path / "db")
        offset = json.loads((path / "manifest.json").read_text())["arrays"][name]["offset"]
        flip_byte(path / "arrays.bin", offset + 13)
        with pytest.raises(ChecksumError, match=f"checksum mismatch in {name}"):
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
        manifest["arrays"]["right_modes"]["shape"] = [1, 1]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="right_modes"):
            load_database(path)

    def test_missing_file(self, rod_db, tmp_path):
        path = save_database(rod_db, tmp_path / "db")
        (path / "arrays.bin").unlink()
        with pytest.raises(FormatError, match="arrays.bin"):
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

    def test_loaded_basis_rounds_as_the_fresh_one(self, tmp_path):
        # the 24-mass chain (49 samples, left modes), rank 3: a fresh and a loaded
        # basis hold one layout, so queries through either agree bit for bit
        fos = first_order_form(spring_chain_with_defect(24, mass=2.0))
        db = align_database(pair_modes(sample_spectrum(fos, np.linspace(0.5, 23.5, 49), 6)))
        fresh = {which: [extract_edm_basis(db, i, rank=3, which=which) for i in range(3)] for which in ("right", "left")}
        loaded = {
            which: [load_edm_basis(save_edm_basis(b, tmp_path / f"{which}{i}")) for i, b in enumerate(bases)]
            for which, bases in fresh.items()
        }
        modes = roms = 0  # mismatched mode queries (of 240) and ROM bases (of 80)
        for mu in np.linspace(0.5, 23.5, 42)[1:-1]:
            for a, b in zip(fresh["right"] + fresh["left"], loaded["right"] + loaded["left"]):
                modes += not np.array_equal(interpolate_mode(a, mu), interpolate_mode(b, mu))
            one, two = (build_rom_interpolated(db, mu, 3, "edm", bases["right"], bases["left"]) for bases in (fresh, loaded))
            roms += (not np.array_equal(one.basis, two.basis)) + (not np.array_equal(one.adjoint, two.adjoint))
        assert (modes, roms) == (0, 0)

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
        [
            (None, "no sample parameters"),
            ([0.0, 10.0, 20.0], "do not fit"),
            ([1.0], "at least 2"),
            ([0.0, 5.0, 5.0, 15.0, 20.0], "strictly increasing"),
            ([0.0, 10.0, 5.0, 15.0, 20.0], "strictly increasing"),
        ],
    )
    def test_manifest_grid_that_does_not_fit_refused(self, rod_db, tmp_path, grid, message):
        path = save_edm_basis(extract_edm_basis(rod_db, 0, rank=2), tmp_path / "edm")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["sample_mus"] = grid
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=message):
            load_edm_basis(path)

    @pytest.mark.parametrize("key, value", [("n", 7), ("p", 99), ("rank", 5)])
    def test_manifest_size_that_disagrees_refused(self, chain_db, tmp_path, key, value):
        path = save_edm_basis(extract_edm_basis(chain_db, 0, rank=2), tmp_path / "edm")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest[key] = value
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"{key} = {value}"):
            load_edm_basis(path)
        # a damaged array is still named as such
        flip_byte(path / "arrays.bin", json.loads((path / "manifest.json").read_text())["arrays"]["edms"]["offset"] + 3)
        with pytest.raises(ChecksumError, match="checksum mismatch in edms"):
            load_edm_basis(path)

    def test_bad_checksum_keeps_its_type(self, rod_db, tmp_path):
        path = save_edm_basis(extract_edm_basis(rod_db, 0, rank=2), tmp_path / "edm")
        offset = json.loads((path / "manifest.json").read_text())["arrays"]["coefficients"]["offset"]
        flip_byte(path / "arrays.bin", offset + 3)
        with pytest.raises(ChecksumError, match="checksum mismatch in coefficients"):
            load_edm_basis(path)


def flip_byte(path, index: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[index] ^= 0xFF
    path.write_bytes(bytes(raw))


def edit_manifest(edit):
    def apply(path):
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
    return apply


def write_manifest_text(text: str):
    return lambda path: (path / "manifest.json").write_text(text)


def edit_arrays_bin(edit):
    return lambda path: (path / "arrays.bin").write_bytes(edit((path / "arrays.bin").read_bytes()))


def shift_offset(name: str, to: str):
    def edit(manifest):
        manifest["arrays"][name]["offset"] = manifest["arrays"][to]["offset"]
    return edit_manifest(edit)


def set_key(key, value):
    def edit(manifest):
        manifest[key] = value
    return edit_manifest(edit)


def delete_key(key):
    return edit_manifest(lambda manifest: manifest.pop(key))


class TestMalformedDirectory:
    """A manifest or arrays.bin that does not fit the format is refused with FormatError, naming the problem."""

    @pytest.fixture(params=["database", "basis"])
    def saved(self, request, chain_db, tmp_path):
        if request.param == "database":
            return save_database(chain_db, tmp_path / "db"), load_database
        return save_edm_basis(extract_edm_basis(chain_db, 0, rank=2), tmp_path / "edm"), load_edm_basis

    @pytest.mark.parametrize(
        "damage, message",
        [
            (write_manifest_text('{"format_version": 2,'), "manifest.json is not valid JSON"),
            (write_manifest_text("[2]"), "manifest.json holds a JSON list, not an object"),
            (delete_key("arrays"), "manifest.json has no 'arrays'"),
            (set_key("arrays", []), "'arrays' must be an object, found list"),
            (edit_arrays_bin(lambda raw: raw + bytes(8)), r"arrays.bin holds \d+ bytes, but its last array, \w+, ends"),
            (edit_arrays_bin(lambda raw: raw[:-8]), r"arrays.bin holds \d+ bytes, but its last array, \w+, ends"),
            (lambda path: (path / "arrays.bin").unlink(), "missing file arrays.bin"),
        ],
        ids=["invalid-json", "json-list", "no-arrays", "arrays-list", "arrays-bin-longer", "arrays-bin-shorter",
             "no-arrays-bin"],
    )
    def test_refused_by_both_loaders(self, saved, damage, message):
        path, load = saved
        damage(path)
        with pytest.raises(FormatError, match=message):
            load(path)

    def test_older_format_version_refused(self, saved):
        path, load = saved
        for version in (1, 2):
            set_key("format_version", version)(path)
            with pytest.raises(FormatError, match=f"format version {version}, .* write the directory again with this"):
                load(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (delete_key("n"), "manifest.json has no 'n'"),
            (set_key("n", "12"), "'n' must be an integer, found str"),
            (delete_key("parameters"), "manifest.json has no 'parameters'"),
            (delete_key("complex"), "manifest.json has no 'complex'"),
            (set_key("complex", False), "right_modes holds complex values, but the manifest says real"),
            (set_key("parameters", [4.5, 3.0, 2.0, 0.5]), "mode-database manifest: .*strictly increasing"),
            (shift_offset("left_modes", to="right_modes"), r"at byte \d+ overlaps \w+_modes, which ends"),
            (edit_manifest(lambda manifest: manifest["arrays"]["left_modes"].update(offset=10**9)),
             r"arrays.bin: left_modes at byte 1000000000, expected at byte \d+"),
            (edit_manifest(lambda manifest: manifest["arrays"]["left_modes"].pop("checksum")),
             "array 'left_modes' has no 'checksum'"),
            (edit_manifest(lambda manifest: manifest["arrays"]["left_modes"].update(shape=[3, 2.5])),
             r"left_modes: shape \[3, 2.5\] is not a list of sizes"),
            (edit_manifest(lambda manifest: manifest["arrays"].update(spare=manifest["arrays"]["eigenvalues"])),
             r"manifest.json lists arrays \['eigenvalues', 'left_modes', 'right_modes', 'spare'\], expected"),
            (delete_key("mass"), "manifest.json has no 'mass'"),
        ],
        ids=["no-n", "n-string", "no-parameters", "no-complex", "complex-under-real-manifest",
             "parameters-unordered", "overlapping-ranges", "range-outside", "no-checksum", "shape-not-sizes",
             "unknown-array", "no-mass"],
    )
    def test_refused_database(self, chain_db, tmp_path, damage, message):
        path = save_database(chain_db, tmp_path / "db")
        damage(path)
        with pytest.raises(FormatError, match=message):
            load_database(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (delete_key("mode_index"), "manifest.json has no 'mode_index'"),
            (set_key("mode_index", True), "'mode_index' must be an integer, found bool"),
            # mean_mode's 10 complex values end at byte 160; a shape of [8] would end at 128
            (edit_manifest(lambda manifest: manifest["arrays"]["mean_mode"].update(shape=[8])),
             "arrays.bin: edms at byte 192, expected at byte 128"),
            (edit_arrays_bin(lambda raw: raw[:160] + b"\x01" + raw[161:]), "nonzero padding before edms"),
            (edit_manifest(lambda manifest: manifest["arrays"]["coefficients"].update(shape=[2, 5])),
             r"arrays.bin holds \d+ bytes, but its last array, coefficients, ends at byte"),
            (edit_manifest(lambda manifest: manifest["arrays"]["edms"].update(shape=[10, 1, 2])),
             r"edms has shape \[10, 1, 2\], expected 2 dimensions"),
        ],
        ids=["no-mode-index", "mode-index-bool", "gap-before-array", "nonzero-padding", "range-outside",
             "wrong-ndim"],
    )
    def test_refused_basis(self, chain_db, tmp_path, damage, message):
        path = save_edm_basis(extract_edm_basis(chain_db, 0, rank=2), tmp_path / "edm")
        damage(path)
        with pytest.raises(FormatError, match=message):
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


class TestResaveOverFormat1:
    """A save into a format-1 or format-2 directory removes the files that manifest lists, and nothing else."""

    # per case: the format version and the files it wrote that its manifest lists (format 1 under "arrays",
    # format 2 under "files"); a format-2 directory also holds an arrays.bin, which the save replaces
    OLD_FILES = {
        "database": (1, ["eigenvalues.bin", "right_modes_000.bin", "right_modes_001.bin", "left_modes_000.bin",
                         "E.coo"]),
        "basis": (1, ["mean_mode.bin", "edms.bin", "singular_values.bin", "coefficients.bin"]),
        "format2-database": (2, ["E.coo"]),
    }

    @pytest.fixture(params=list(OLD_FILES))
    def older(self, request, chain_db, tmp_path):
        """(kind, a hand-made directory of the case's format, a save of that kind into it, the file one level up
        that its manifest names)."""
        version, old = self.OLD_FILES[request.param]
        kind = "basis" if request.param == "basis" else "database"
        path = tmp_path / request.param
        path.mkdir()
        for name in old + (["arrays.bin"] if version == 2 else []):
            (path / name).write_bytes(b"format %d " % version + name.encode())
        (path / "notes.txt").write_text("kept")
        outside = tmp_path / "outside.bin"
        outside.write_bytes(b"not ours")
        listed = old + ["../outside.bin"]
        manifest = {"format_version": version, "kind": "mode-database" if kind == "database" else "edm-basis"}
        if version == 1:
            manifest["arrays"] = {name: {"shape": [1], "complex": False, "checksum": "sha256:0"} for name in listed}
        else:
            manifest["files"] = dict.fromkeys(listed, "sha256:0")
        (path / "manifest.json").write_text(json.dumps(manifest))
        if kind == "database":
            return kind, path, lambda: save_database(chain_db, path), outside
        return kind, path, lambda: save_edm_basis(extract_edm_basis(chain_db, 0, rank=2), path), outside

    def test_resave_leaves_only_the_new_files_and_the_users(self, older):
        kind, path, save, outside = older
        save()
        assert {f.name for f in path.iterdir()} == {"arrays.bin", "manifest.json", "notes.txt"}
        assert (path / "notes.txt").read_text() == "kept"
        assert outside.read_bytes() == b"not ours"
        (load_database if kind == "database" else load_edm_basis)(path)

    def test_failed_save_keeps_the_old_files(self, older, monkeypatch):
        _, path, save, outside = older
        before = {f.name: f.read_bytes() for f in path.iterdir()}
        real_fsync = os.fsync

        def failing_fsync(fd):
            if not stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("disk full")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save()
        assert {f.name: f.read_bytes() for f in path.iterdir()} == before
        assert outside.read_bytes() == b"not ours"

    def test_format3_resave_removes_nothing_it_lists(self, rod_db, tmp_path):
        # format 3 lists arrays, not files: user files named like them survive
        path = save_database(rod_db, tmp_path / "db")
        for name in ("right_modes", "mass_scale"):
            (path / name).write_text("kept")
        save_database(rod_db, path)
        assert all((path / name).read_text() == "kept" for name in ("right_modes", "mass_scale"))
