"""On-disk formats for mode databases and deformation bases.

A saved directory holds exactly ``manifest.json`` and ``arrays.bin``.
``arrays.bin`` holds whole arrays back to back, each at the next 64-byte
boundary after zero padding: little-endian 64-bit floats in column-major
order, complex values stored as interleaved (real, imaginary) pairs per
element.  The manifest records each array's offset, shape, kind and the sha256
of its own byte range.  A database's mass metric is its ``MassFactor``: the
manifest names its kind under ``mass`` and ``arrays.bin`` holds the factor's
own array, none for the identity.  Both files are written atomically (temp
file, fsync, rename, then an fsync of the directory), the manifest last.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from .edm import EdmBasis, energy_fraction
from .modal import ModeDatabase
from .numerics import MassFactor

FORMAT_VERSION = 3
_ALIGN = 64  # every array in arrays.bin starts at a multiple of this many bytes
_BASIS_NDIMS = {"mean_mode": 1, "edms": 2, "singular_values": 1, "coefficients": 2}  # in file order
_KINDS = {False: "real", True: "complex"}
# per MassFactor kind, the arrays that hold it: {array name: (MassFactor field, dimensions)}
_MASS_ARRAYS = {"identity": {}, "diagonal": {"mass_scale": ("scale", 1)}, "dense": {"mass_cholesky": ("cholesky", 2)}}


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

    ``add`` writes its chunks back to back to a unique temp file in the
    directory, so concurrent writers never share one, and starts its fsync in
    the background.  On a clean exit from the ``with``
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

    def add(self, name: str, *chunks) -> None:
        """Write the bytes-like, C-contiguous chunks back to back as the file ``name``."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=name)
        try:
            with os.fdopen(fd, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
        except BaseException:
            os.unlink(tmp)
            raise
        self.pending.append((name, tmp, _SYNC_POOL.submit(_fsync, tmp)))

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


def _add_arrays(batch: _AtomicWrites, arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    """Write the arrays to arrays.bin, each at the next 64-byte boundary, and return their manifest entries.

    An array already stored as little-endian float64 or complex128 in Fortran
    order goes to the file from its own buffer; any other is converted first.
    """
    entries: dict[str, dict] = {}
    chunks, flats, end = [], [], 0
    for name, a in arrays.items():
        is_complex = np.iscomplexobj(a)
        flat = np.asfortranarray(a, dtype="<c16" if is_complex else "<f8").ravel(order="F")
        pad = -end % _ALIGN
        entries[name] = {"offset": end + pad, "shape": list(a.shape), "complex": is_complex}
        chunks += [bytes(pad), flat]
        flats.append(flat)
        end += pad + flat.nbytes
    batch.add("arrays.bin", *chunks)
    for entry, flat in zip(entries.values(), flats):  # hashed while the file syncs
        entry["checksum"] = _checksum(flat)
    return entries


def _old_files(path: Path) -> set[str]:
    """The plain names that an older manifest.json in ``path`` lists as that format's files.

    Format 1 lists them under ``arrays``, format 2 (its text mass file) under
    ``files``.  Any other manifest, or none, gives no names: format 3 lists
    the arrays of arrays.bin under ``arrays``.
    """
    try:
        manifest = json.loads((path / "manifest.json").read_bytes())
    except (OSError, ValueError):
        return set()
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    key = "arrays" if version == 1 else "files" if version == 2 else None
    names = manifest[key] if key and isinstance(manifest.get(key), dict) else {}
    return {name for name in names if name not in (".", "..") and os.path.basename(name) == name}


def _save(path, kind: str, fields: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write the directory ``path`` as one batch: arrays.bin, then manifest.json.

    The manifest holds the format version, ``kind``, ``fields`` and the
    arrays' entries.  It is added last, so renamed once arrays.bin is
    durable; sorted keys keep repeated runs byte-identical.  Once the batch is
    renamed and the directory fsynced, the files that an older manifest there
    listed are removed if they are regular files; a failed save keeps them.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    stale = _old_files(path) - {"arrays.bin", "manifest.json"}
    with _AtomicWrites(path) as batch:
        manifest = {"format_version": FORMAT_VERSION, "kind": kind, **fields, "arrays": _add_arrays(batch, arrays)}
        batch.add("manifest.json", json.dumps(manifest, indent=2, sort_keys=True).encode())
    for target in (path / name for name in stale):
        if target.is_file() and not target.is_symlink():
            target.unlink(missing_ok=True)
    return path


_JSON_KINDS = {int: "an integer", bool: "true or false", str: "a string", list: "a list", dict: "an object"}


def _get(mapping: dict, key: str, kind: type, where: str = "manifest.json"):
    """``mapping[key]``, refused with FormatError when it is missing or not of the JSON ``kind``."""
    if key not in mapping:
        raise FormatError(f"{where} has no {key!r}")
    value = mapping[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FormatError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}, found {type(value).__name__}")
    return value


def _read_arrays(path: Path, manifest: dict, shapes: dict[str, list | None]) -> dict[str, np.ndarray]:
    """Writable column-major views, into one buffer read from arrays.bin, of the arrays ``shapes`` names.

    The manifest must list exactly these arrays, each of its ``shapes`` entry
    unless that is None.  They must lie back to back at 64-byte boundaries
    with zero padding, as written, arrays.bin must end where the last one
    does, and each array's bytes must match its checksum.
    """
    entries = _get(manifest, "arrays", dict)
    if sorted(entries) != sorted(shapes):
        raise FormatError(f"manifest.json lists arrays {sorted(entries)}, expected {sorted(shapes)}")
    fpath = path / "arrays.bin"
    if not fpath.is_file():
        raise FormatError("missing file arrays.bin")
    with open(fpath, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        spans = []
        for name, shape in shapes.items():
            entry = _get(entries, name, dict, "manifest.json 'arrays'")
            where = f"array {name!r}"
            start = _get(entry, "offset", int, where)
            listed = _get(entry, "shape", list, where)
            dtype = np.dtype("<c16" if _get(entry, "complex", bool, where) else "<f8")
            if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in listed):
                raise FormatError(f"{name}: shape {listed} is not a list of sizes")
            if shape is not None and listed != shape:
                raise FormatError(f"{name}: manifest shape {listed} does not match expected {shape}")
            stop = start + math.prod(listed) * dtype.itemsize
            spans.append((start, stop, name, listed, dtype, _get(entry, "checksum", str, where)))
        spans.sort()  # any range outside the file now overlaps another, starts before 0 or ends last
        end, previous = 0, None
        for start, stop, name, *_ in spans:
            if start < end:
                raise FormatError(f"arrays.bin: {name} at byte {start} overlaps {previous}, which ends at byte {end}")
            if start != end + -end % _ALIGN:
                raise FormatError(f"arrays.bin: {name} at byte {start}, expected at byte {end + -end % _ALIGN}")
            end, previous = stop, name
        if size != end:
            raise FormatError(f"arrays.bin holds {size} bytes, but its last array, {previous}, ends at byte {end}")
        buffer = np.empty(size, dtype=np.uint8)
        if f.readinto(buffer) != size:
            raise FormatError("arrays.bin changed size while it was read")
    arrays, end = {}, 0
    for start, stop, name, shape, dtype, checksum in spans:
        if buffer[end:start].any():
            raise FormatError(f"arrays.bin: nonzero padding before {name}")
        if _checksum(memoryview(buffer)[start:stop]) != checksum:
            raise ChecksumError(f"checksum mismatch in {name} (arrays.bin bytes {start} to {stop})")
        count = math.prod(shape)
        arrays[name] = np.frombuffer(buffer, dtype, count, start).reshape(shape, order="F")
        end = stop
    return arrays


def _read_manifest(path: Path, kind: str) -> dict:
    mpath = path / "manifest.json"
    if not mpath.is_file():
        raise FormatError(f"no manifest.json in {path}")
    try:
        manifest = json.loads(mpath.read_bytes())
    except ValueError as exc:  # UnicodeDecodeError included
        raise FormatError(f"manifest.json is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"manifest.json holds a JSON {type(manifest).__name__}, not an object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path} has format version {version!r}, which this version does not read; "
            f"write the directory again with this version (format {FORMAT_VERSION})"
        )
    if manifest.get("kind") != kind:
        raise FormatError(f"expected a {kind} directory, found {manifest.get('kind')!r}")
    return manifest


def save_database(db: ModeDatabase, path) -> Path:
    """Write a ModeDatabase directory, its mass factor included; round-trips bit-exactly through load."""
    eig_block = db.eigenvalues
    if not np.any(eig_block.imag):
        eig_block = eig_block.real
    arrays = {"eigenvalues": eig_block, "right_modes": db.right}
    if db.left is not None:
        arrays["left_modes"] = db.left
    F = db.mass_factor
    arrays.update({name: getattr(F, field) for name, (field, _) in _MASS_ARRAYS[F.kind].items()})
    return _save(path, "mode-database", {
        "n": db.n,
        "p": db.p,
        "m": db.m,
        "complex": db.is_complex,
        "parameters": db.mus.tolist(),
        "paired": db.paired,
        "aligned": db.aligned,
        "crossing_gaps": list(db.crossing_gaps),
        "warnings": list(db.warnings),
        "metadata": db.metadata,
        "mass": F.kind,
    }, arrays)


def load_database(path) -> ModeDatabase:
    """Read a ModeDatabase directory, validating checksums and shapes; its mode arrays are views of one buffer.

    The mass factor is built from its saved array, with no refactorization.
    """
    path = Path(path)
    manifest = _read_manifest(path, "mode-database")
    n, p, m = (_get(manifest, key, int) for key in ("n", "p", "m"))
    mus = _get(manifest, "parameters", list)
    if len(mus) != p:
        raise FormatError(f"manifest lists {len(mus)} parameters but p={p}")
    is_complex = _get(manifest, "complex", bool)
    mass = _MASS_ARRAYS.get(_get(manifest, "mass", str))
    if mass is None:
        raise FormatError(f"manifest.json: mass kind {manifest['mass']!r} is not one of {list(_MASS_ARRAYS)}")
    shapes = {"eigenvalues": [m, p], "right_modes": [n, m, p]}
    if "left_modes" in _get(manifest, "arrays", dict):
        shapes["left_modes"] = [n, m, p]
    shapes.update({name: [n] * ndim for name, (_, ndim) in mass.items()})
    arrays = _read_arrays(path, manifest, shapes)
    for name in ("right_modes", "left_modes"):
        # a complex array under a real manifest would change what the database is
        if name in arrays and np.iscomplexobj(arrays[name]) != is_complex:
            raise FormatError(
                f"{name} holds {_KINDS[not is_complex]} values, but the manifest says {_KINDS[is_complex]}"
            )
    factor = MassFactor(n, **{field: arrays[name] for name, (field, _) in mass.items()})
    try:
        return ModeDatabase(
            mus=mus,
            eigenvalues=arrays["eigenvalues"],
            right=arrays["right_modes"],
            left=arrays.get("left_modes"),
            mass_factor=factor,
            paired=manifest.get("paired", False),
            aligned=manifest.get("aligned", False),
            crossing_gaps=tuple(manifest.get("crossing_gaps", [])),
            warnings=tuple(manifest.get("warnings", [])),
            metadata=manifest.get("metadata", {}),
        )
    except ValueError as exc:  # the parameter grid only: the reads above keep their own error types
        raise FormatError(f"mode-database manifest: {exc}") from exc


def save_edm_basis(basis: EdmBasis, path) -> Path:
    """Write a deformation-basis directory (manifest + arrays.bin)."""
    s = basis.singular_values
    return _save(path, "edm-basis", {
        "mode_index": basis.mode_index,
        "n": int(basis.mean_mode.shape[0]),
        "p": int(basis.sample_mus.size),
        "rank": basis.rank,
        "energy_captured": energy_fraction(s, basis.rank) if s.size and s.sum() > 0 else None,
        "sample_mus": basis.sample_mus.tolist(),
    }, {name: getattr(basis, name) for name in _BASIS_NDIMS})


def load_edm_basis(path) -> EdmBasis:
    """Read a basis directory written by save_edm_basis; refuse a manifest that does not fit its arrays."""
    path = Path(path)
    manifest = _read_manifest(path, "edm-basis")
    mode_index = _get(manifest, "mode_index", int)
    arrays = _read_arrays(path, manifest, dict.fromkeys(_BASIS_NDIMS))
    for name, ndim in _BASIS_NDIMS.items():
        if arrays[name].ndim != ndim:
            raise FormatError(f"{name} has shape {list(arrays[name].shape)}, expected {ndim} dimensions")
    # EdmBasis copies mean_mode, edms and coefficients into its own arrays, in the
    # layout of a freshly extracted basis, so both round alike; with the copy of
    # singular_values, nothing keeps the file's buffer alive
    mean, edms, coefficients = arrays["mean_mode"], arrays["edms"], arrays["coefficients"]
    singular_values = arrays["singular_values"].real.copy()
    if edms.shape[0] != mean.shape[0]:
        raise FormatError("edms row count does not match mean_mode")
    try:
        basis = EdmBasis(mode_index, mean, edms, singular_values, coefficients, manifest.get("sample_mus"))
    except ValueError as exc:  # the grid check only: the reads above keep their own error types
        raise FormatError(f"edm-basis manifest: {exc}") from exc
    for key, value in (("n", mean.shape[0]), ("p", basis.sample_mus.size), ("rank", basis.rank)):
        if manifest.get(key) != value:
            raise FormatError(f"edm-basis manifest: {key} = {manifest.get(key)!r}, but the arrays give {value}")
    return basis
