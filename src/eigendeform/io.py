"""On-disk formats for mode databases and deformation bases.

A database is a directory holding ``manifest.json`` plus raw binary arrays:
little-endian 64-bit floats in column-major order, complex values stored as
interleaved (real, imaginary) pairs per element.  The mass matrix lives in
``E.coo`` as zero-based ``row col value`` lines, one per nonzero.  Every file
is checksummed in the manifest and written atomically (temp file, fsync,
rename, then an fsync of the directory).
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .edm import EdmBasis, energy_fraction
from .modal import ModeDatabase
from .numerics import MassFactor

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Manifest or array layout does not match the expected format."""


class ChecksumError(FormatError):
    """File content does not match its recorded checksum."""


def _checksum(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# fsyncs run on these threads, so that the disk works while the caller goes on
# and concurrent fsyncs share journal commits; the threads start on first use
_SYNC_POOL = ThreadPoolExecutor(max_workers=8, thread_name_prefix="eigendeform-fsync")


def _fsync(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _AtomicWrites:
    """A batch of files in one directory, each replaced atomically and durably.

    ``add`` writes a payload to a unique temp file in the directory, so
    concurrent writers never share one, starts its fsync in the background
    and returns the payload's checksum.  On a clean exit from the ``with``
    block the batch waits for every fsync, renames the temp files over their
    targets in the order they were added, then fsyncs the directory: a crash
    leaves each file with its old or its new content, never an empty one.
    When anything fails, every temp file not yet renamed is removed.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.pending: list[tuple[str, str, Future]] = []  # (name, temp path, its fsync)

    def __enter__(self) -> _AtomicWrites:
        return self

    def add(self, name: str, data: bytes) -> str:
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=name)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
        except BaseException:
            os.unlink(tmp)
            raise
        self.pending.append((name, tmp, _SYNC_POOL.submit(_fsync, tmp)))
        return _checksum(data)  # hashed while the file syncs

    def __exit__(self, exc_type, exc, tb) -> None:
        wait([synced for _, _, synced in self.pending])
        try:
            if exc_type is None:
                for _, _, synced in self.pending:
                    synced.result()  # raises the error of a failed fsync
                while self.pending:
                    name, tmp, _ = self.pending[0]
                    os.replace(tmp, self.directory / name)
                    del self.pending[0]
                _fsync(self.directory)
        finally:
            for _, tmp, _ in self.pending:
                os.unlink(tmp)


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace one file atomically and durably (see _AtomicWrites)."""
    with _AtomicWrites(path.parent) as batch:
        batch.add(path.name, data)


def _add_array(batch: _AtomicWrites, arrays: dict, name: str, a: np.ndarray) -> None:
    """Write an array's column-major bytes and record its manifest entry."""
    is_complex = np.iscomplexobj(a)
    data = np.asarray(a, dtype="<c16" if is_complex else "<f8").tobytes(order="F")
    arrays[name] = {"shape": list(a.shape), "complex": is_complex, "checksum": batch.add(name, data)}


def _add_manifest(batch: _AtomicWrites, manifest: dict) -> None:
    # added last, so renamed once every file it lists is durable; sorted keys
    # keep repeated runs byte-identical
    batch.add("manifest.json", json.dumps(manifest, indent=2, sort_keys=True).encode())


def _coo_bytes(E: sp.coo_array) -> bytes:
    # repr of a Python float is the shortest exact round-trip form
    lines = [f"{i} {j} {v!r}" for i, j, v in zip(E.row.tolist(), E.col.tolist(), E.data.tolist())]
    return ("\n".join(lines) + "\n").encode()


def _identity_coo_bytes(n: int) -> bytes:
    return ("\n".join(f"{i} {i} 1.0" for i in range(n)) + "\n").encode()


_COO_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _coo_parse(data: bytes, n: int) -> sp.coo_array:
    """The n x n mass matrix of E.coo's lines; an entry listed twice is refused.

    Lines split on whitespace and blank lines are skipped; numpy's C reader
    converts every field, so a bad line is refused with numpy's own location.
    """
    try:
        text = data.decode()
        # a blank file has no entries; loadtxt would warn that it found no data
        entries = np.empty(0, dtype=_COO_ENTRY)
        if text.strip():
            # numpy releases that still carry loadtxt's deprecated float fallback
            # truncate an index such as 1.5 or 2.0 and only warn; raising that
            # warning refuses the line whatever the caller's warning filters are
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                entries = np.loadtxt(text.splitlines(), dtype=_COO_ENTRY, comments=None, ndmin=1)
    except ValueError as exc:  # UnicodeDecodeError included
        raise FormatError(f"E.coo: expected 'row col value' lines; {exc}") from exc
    rows, cols = entries["row"], entries["col"]
    outside = np.flatnonzero((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))
    if outside.size:
        k = outside[0]
        raise FormatError(f"E.coo: index ({rows[k]}, {cols[k]}) outside {n}x{n}")
    keys = np.sort(rows * n + cols, kind="stable")  # row-major files are sorted already
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        raise FormatError(f"E.coo lists entry ({repeated[0] // n}, {repeated[0] % n}) more than once")
    return sp.coo_array((entries["value"], (rows, cols)), shape=(n, n))


def _read_file(path: Path, arrays: dict, name: str) -> bytes:
    entry = arrays.get(name)
    if entry is None:
        raise FormatError(f"manifest has no entry for {name}")
    fpath = path / name
    if not fpath.is_file():
        raise FormatError(f"missing array file {name}")
    data = fpath.read_bytes()
    if _checksum(data) != entry["checksum"]:
        raise ChecksumError(f"checksum mismatch in {name}")
    return data


def _read_array(path: Path, arrays: dict, name: str, shape=None) -> np.ndarray:
    """Read-only column-major view of a checksummed array file.

    ``shape``, when given, must match the file's manifest entry.
    """
    data = _read_file(path, arrays, name)
    entry = arrays[name]
    shape = tuple(entry["shape"]) if shape is None else shape
    if list(entry["shape"]) != list(shape):
        raise FormatError(f"{name}: manifest shape {entry['shape']} does not match expected {list(shape)}")
    dtype = np.dtype("<c16" if entry["complex"] else "<f8")
    expected = int(np.prod(shape)) * dtype.itemsize
    if len(data) != expected:
        raise FormatError(f"{name}: expected {expected} bytes for shape {shape}, found {len(data)}")
    return np.frombuffer(data, dtype=dtype).reshape(shape, order="F")


def _read_manifest(path: Path, kind: str) -> dict:
    mpath = path / "manifest.json"
    if not mpath.is_file():
        raise FormatError(f"no manifest.json in {path}")
    manifest = json.loads(mpath.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {manifest.get('format_version')}")
    if manifest.get("kind") != kind:
        raise FormatError(f"expected a {kind} directory, found {manifest.get('kind')!r}")
    return manifest


def save_database(db: ModeDatabase, path) -> Path:
    """Write a ModeDatabase directory; round-trips bit-exactly through load."""
    path = Path(path)
    n, p, m = db.n, db.p, db.m
    eig_block = db.eigenvalues
    if not np.any(eig_block.imag):
        eig_block = eig_block.real

    arrays: dict[str, dict] = {}
    path.mkdir(parents=True, exist_ok=True)
    with _AtomicWrites(path) as batch:
        _add_array(batch, arrays, "eigenvalues.bin", eig_block)
        for k in range(p):
            _add_array(batch, arrays, f"right_modes_{k:03d}.bin", db.right[:, :, k])
            if db.left is not None:
                _add_array(batch, arrays, f"left_modes_{k:03d}.bin", db.left[:, :, k])
        F = db.mass_factor
        coo = _identity_coo_bytes(n) if F.kind == "identity" else _coo_bytes(F.mass())
        arrays["E.coo"] = {"shape": [n, n], "complex": False, "checksum": batch.add("E.coo", coo)}
        _add_manifest(batch, {
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
        })
    return path


def load_database(path) -> ModeDatabase:
    """Read a ModeDatabase directory, validating checksums and shapes."""
    path = Path(path)
    manifest = _read_manifest(path, "mode-database")
    n, p, m = manifest["n"], manifest["p"], manifest["m"]
    mus = manifest["parameters"]
    if len(mus) != p:
        raise FormatError(f"manifest lists {len(mus)} parameters but p={p}")
    arrays = manifest["arrays"]

    def read_modes(family: str) -> np.ndarray:
        # each sample's file fills its slice of one (n, m, p) array; copyto refuses
        # a complex file under a real manifest instead of dropping imaginary parts
        modes = np.empty((n, m, p), dtype=complex if manifest.get("complex") else float, order="F")
        for k in range(p):
            np.copyto(modes[:, :, k], _read_array(path, arrays, f"{family}_modes_{k:03d}.bin", (n, m)))
        return modes

    eig_block = _read_array(path, arrays, "eigenvalues.bin", (m, p)).astype(complex)
    factor = MassFactor.of(_coo_parse(_read_file(path, arrays, "E.coo"), n))

    return ModeDatabase(
        mus=mus,
        eigenvalues=eig_block,
        right=read_modes("right"),
        left=read_modes("left") if f"left_modes_{0:03d}.bin" in arrays else None,
        mass_factor=factor,
        paired=manifest.get("paired", False),
        aligned=manifest.get("aligned", False),
        crossing_gaps=tuple(manifest.get("crossing_gaps", [])),
        warnings=tuple(manifest.get("warnings", [])),
        metadata=manifest.get("metadata", {}),
    )


def save_edm_basis(basis: EdmBasis, path) -> Path:
    """Write a deformation-basis directory (manifest + binary arrays)."""
    path = Path(path)
    s = basis.singular_values
    captured = None
    if s.size and s.sum() > 0:
        captured = energy_fraction(s, basis.rank)
    arrays: dict[str, dict] = {}
    path.mkdir(parents=True, exist_ok=True)
    with _AtomicWrites(path) as batch:
        _add_array(batch, arrays, "mean_mode.bin", basis.mean_mode)
        _add_array(batch, arrays, "edms.bin", basis.edms)
        _add_array(batch, arrays, "singular_values.bin", basis.singular_values)
        _add_array(batch, arrays, "coefficients.bin", basis.coefficients)
        _add_manifest(batch, {
            "format_version": FORMAT_VERSION,
            "kind": "edm-basis",
            "mode_index": basis.mode_index,
            "n": int(basis.mean_mode.shape[0]),
            "p": int(basis.sample_mus.size),
            "rank": basis.rank,
            "energy_captured": captured,
            "sample_mus": basis.sample_mus.tolist(),
            "arrays": arrays,
        })
    return path


def load_edm_basis(path) -> EdmBasis:
    """Read a deformation-basis directory written by save_edm_basis; refuse a grid that does not fit."""
    path = Path(path)
    manifest = _read_manifest(path, "edm-basis")
    arrays = manifest["arrays"]

    def read(name: str) -> np.ndarray:
        return _read_array(path, arrays, name).copy()

    mean = read("mean_mode.bin")
    edms = read("edms.bin")
    if edms.shape[0] != mean.shape[0]:
        raise FormatError("edms.bin row count does not match mean_mode.bin")
    singular_values = read("singular_values.bin").real
    coefficients = read("coefficients.bin")
    try:
        return EdmBasis(manifest["mode_index"], mean, edms, singular_values, coefficients, manifest.get("sample_mus"))
    except ValueError as exc:  # the grid check only: the reads above keep their own error types
        raise FormatError(f"edm-basis manifest: {exc}") from exc
