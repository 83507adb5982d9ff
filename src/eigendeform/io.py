"""On-disk formats for mode databases and deformation bases.

A database is a directory holding ``manifest.json`` plus raw binary arrays:
little-endian 64-bit floats in column-major order, complex values stored as
interleaved (real, imaginary) pairs per element.  The mass matrix lives in
``E.coo`` as zero-based ``row col value`` lines, one per nonzero.  Every file
is checksummed in the manifest and written atomically (temp file + rename).
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .edm import EdmBasis, energy_fraction
from .modal import ModeDatabase, ModeSample
from .numerics import cholesky_factor

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Manifest or array layout does not match the expected format."""


class ChecksumError(FormatError):
    """File content does not match its recorded checksum."""


def _checksum(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    # a unique temp name per writer, so concurrent writers never share one
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _array_bytes(a: np.ndarray) -> tuple[bytes, bool]:
    is_complex = np.iscomplexobj(a)
    dtype = "<c16" if is_complex else "<f8"
    return np.asarray(a).astype(dtype).tobytes(order="F"), is_complex


def _array_from_bytes(data: bytes, shape, is_complex: bool, name: str) -> np.ndarray:
    dtype = np.dtype("<c16" if is_complex else "<f8")
    expected = int(np.prod(shape)) * dtype.itemsize
    if len(data) != expected:
        raise FormatError(f"{name}: expected {expected} bytes for shape {shape}, found {len(data)}")
    return np.frombuffer(data, dtype=dtype).reshape(shape, order="F").copy()


def _coo_bytes(E: np.ndarray) -> bytes:
    rows, cols = np.nonzero(E)
    # repr of a Python float is the shortest exact round-trip form
    lines = [f"{i} {j} {float(E[i, j])!r}" for i, j in zip(rows.tolist(), cols.tolist())]
    return ("\n".join(lines) + "\n").encode()


def _identity_coo_bytes(n: int) -> bytes:
    return ("\n".join(f"{i} {i} 1.0" for i in range(n)) + "\n").encode()


def _coo_parse(data: bytes, n: int):
    rows, cols, vals = [], [], []
    for lineno, line in enumerate(data.decode().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            i_s, j_s, v_s = line.split()
            i, j, v = int(i_s), int(j_s), float(v_s)
        except ValueError as exc:
            raise FormatError(f"E.coo line {lineno}: expected 'row col value', got {line!r}") from exc
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"E.coo line {lineno}: index ({i}, {j}) outside {n}x{n}")
        rows.append(i)
        cols.append(j)
        vals.append(v)
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals)


def _factor_from_coo(rows, cols, vals, n: int) -> np.ndarray | None:
    """Cholesky factor of the stored mass matrix; None when it is the identity.

    The identity short-circuit avoids densifying an n-by-n matrix for large
    synthetic databases.
    """
    if (
        len(rows) == n
        and np.array_equal(rows, cols)
        and np.all(vals == 1.0)
        and np.array_equal(np.sort(rows), np.arange(n))
    ):
        return None
    E = np.zeros((n, n))
    E[rows, cols] = vals
    return cholesky_factor(E)


def _write_files(path: Path, files: dict[str, bytes], manifest: dict) -> None:
    path.mkdir(parents=True, exist_ok=True)
    entries = manifest["arrays"]
    for name, data in files.items():
        entries[name]["checksum"] = _checksum(data)
        _write_atomic(path / name, data)
    # sorted keys keep repeated runs byte-identical
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode()
    _write_atomic(path / "manifest.json", payload)


def _read_file(path: Path, name: str, entry: dict) -> bytes:
    fpath = path / name
    if not fpath.is_file():
        raise FormatError(f"missing array file {name}")
    data = fpath.read_bytes()
    if _checksum(data) != entry["checksum"]:
        raise ChecksumError(f"checksum mismatch in {name}")
    return data


def save_database(db: ModeDatabase, path) -> Path:
    """Write a ModeDatabase directory; round-trips bit-exactly through load."""
    path = Path(path)
    n, p, m = db.n, db.p, db.m
    has_left = db.samples[0].left_modes is not None
    eig_block = np.column_stack([s.eigenvalues for s in db.samples])
    if not np.any(eig_block.imag):
        eig_block = eig_block.real

    files: dict[str, bytes] = {}
    arrays: dict[str, dict] = {}

    def add(name: str, array: np.ndarray) -> None:
        data, is_complex = _array_bytes(array)
        files[name] = data
        arrays[name] = {"shape": list(array.shape), "complex": is_complex}

    add("eigenvalues.bin", eig_block)
    for k, sample in enumerate(db.samples):
        add(f"right_modes_{k:03d}.bin", sample.right_modes)
        if has_left:
            add(f"left_modes_{k:03d}.bin", sample.left_modes)
    if db.mass_factor is None:
        files["E.coo"] = _identity_coo_bytes(n)
    else:
        files["E.coo"] = _coo_bytes(db.mass)
    arrays["E.coo"] = {"shape": [n, n], "complex": False}

    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "mode-database",
        "n": n,
        "p": p,
        "m": m,
        "complex": db.is_complex,
        "parameters": db.mus.tolist(),
        "paired": db.paired,
        "aligned": db.aligned,
        "crossing_gaps": list(db.crossing_gaps),
        "warnings": list(db.warnings),
        "metadata": db.metadata,
        "arrays": arrays,
    }
    _write_files(path, files, manifest)
    return path


def load_database(path) -> ModeDatabase:
    """Read a ModeDatabase directory, validating checksums and shapes."""
    path = Path(path)
    mpath = path / "manifest.json"
    if not mpath.is_file():
        raise FormatError(f"no manifest.json in {path}")
    manifest = json.loads(mpath.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {manifest.get('format_version')}")
    if manifest.get("kind") != "mode-database":
        raise FormatError(f"expected a mode-database directory, found {manifest.get('kind')!r}")

    n, p, m = manifest["n"], manifest["p"], manifest["m"]
    mus = manifest["parameters"]
    if len(mus) != p:
        raise FormatError(f"manifest lists {len(mus)} parameters but p={p}")
    arrays = manifest["arrays"]

    def read(name: str, shape) -> np.ndarray:
        entry = arrays.get(name)
        if entry is None:
            raise FormatError(f"manifest has no entry for {name}")
        if list(entry["shape"]) != list(shape):
            raise FormatError(f"{name}: manifest shape {entry['shape']} does not match expected {list(shape)}")
        data = _read_file(path, name, entry)
        return _array_from_bytes(data, shape, entry["complex"], name)

    eig_block = read("eigenvalues.bin", (m, p)).astype(complex)
    entry = arrays.get("E.coo")
    if entry is None:
        raise FormatError("manifest has no entry for E.coo")
    factor = _factor_from_coo(*_coo_parse(_read_file(path, "E.coo", entry), n), n)

    has_left = f"left_modes_{0:03d}.bin" in arrays
    samples = []
    for k in range(p):
        right = read(f"right_modes_{k:03d}.bin", (n, m))
        left = read(f"left_modes_{k:03d}.bin", (n, m)) if has_left else None
        samples.append(ModeSample(float(mus[k]), eig_block[:, k], right, left))

    return ModeDatabase(
        samples=tuple(samples),
        mass_factor=factor,
        m=m,
        paired=manifest.get("paired", False),
        aligned=manifest.get("aligned", False),
        crossing_gaps=tuple(manifest.get("crossing_gaps", [])),
        warnings=tuple(manifest.get("warnings", [])),
        metadata=manifest.get("metadata", {}),
    )


def save_edm_basis(basis: EdmBasis, path) -> Path:
    """Write a deformation-basis directory (manifest + binary arrays)."""
    path = Path(path)
    files: dict[str, bytes] = {}
    arrays: dict[str, dict] = {}

    def add(name: str, array: np.ndarray) -> None:
        data, is_complex = _array_bytes(array)
        files[name] = data
        arrays[name] = {"shape": list(array.shape), "complex": is_complex}

    add("mean_mode.bin", basis.mean_mode)
    add("edms.bin", basis.edms)
    add("singular_values.bin", basis.singular_values)
    add("coefficients.bin", basis.coefficients)

    s = basis.singular_values
    captured = None
    if s.size and s.sum() > 0:
        captured = energy_fraction(s, basis.rank)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "edm-basis",
        "mode_index": basis.mode_index,
        "n": int(basis.mean_mode.shape[0]),
        "p": None if basis.sample_mus is None else int(basis.sample_mus.size),
        "rank": basis.rank,
        "energy_captured": captured,
        "sample_mus": None if basis.sample_mus is None else basis.sample_mus.tolist(),
        "arrays": arrays,
    }
    _write_files(path, files, manifest)
    return path


def load_edm_basis(path) -> EdmBasis:
    """Read a deformation-basis directory written by save_edm_basis."""
    path = Path(path)
    mpath = path / "manifest.json"
    if not mpath.is_file():
        raise FormatError(f"no manifest.json in {path}")
    manifest = json.loads(mpath.read_text())
    if manifest.get("kind") != "edm-basis":
        raise FormatError(f"expected an edm-basis directory, found {manifest.get('kind')!r}")
    arrays = manifest["arrays"]

    def read(name: str) -> np.ndarray:
        entry = arrays.get(name)
        if entry is None:
            raise FormatError(f"manifest has no entry for {name}")
        data = _read_file(path, name, entry)
        return _array_from_bytes(data, tuple(entry["shape"]), entry["complex"], name)

    mean = read("mean_mode.bin")
    edms = read("edms.bin")
    if edms.shape[0] != mean.shape[0]:
        raise FormatError("edms.bin row count does not match mean_mode.bin")
    sample_mus = manifest.get("sample_mus")
    return EdmBasis(
        mode_index=manifest["mode_index"],
        mean_mode=mean,
        edms=edms,
        singular_values=read("singular_values.bin").real,
        coefficients=read("coefficients.bin"),
        sample_mus=None if sample_mus is None else np.asarray(sample_mus, dtype=float),
    )
