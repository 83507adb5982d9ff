"""Command-line pipeline: generate, prepare, compress, interpolate, report.

Every command exits 0 on success and 1 with a single-line diagnostic on
failure (``--debug`` re-raises instead, showing the full traceback); argparse
handles usage errors with exit code 2.  When ``--out`` is
omitted, outputs land under the directory named by the EIGENDEFORM_OUT
environment variable (default: current directory).
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from . import edm as edm_mod
from . import io as io_mod
from . import modal, rom as rom_mod, systems


def _parse_mu_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' into count values with inclusive endpoints."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"mu grid must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 2:
        raise ValueError("mu grid needs at least 2 points")
    if not stop > start:
        raise ValueError("mu grid stop must exceed start")
    return np.linspace(start, stop, count)


def _out_path(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("EIGENDEFORM_OUT", ".")) / default_name


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    """Write ``header`` and ``rows`` as CSV, each field as its ``str()``.

    The bytes are those of ``csv.writer`` for fields that need no quoting; a
    field holding a comma, a quote or a line break is refused instead.  Each
    line is appended as bytes at once, so the table is never held as text too.
    """
    data = bytearray()
    for row in itertools.chain((header,), rows):
        line = ",".join(map(str, row))
        if line.count(",") != len(row) - 1 or '"' in line or "\n" in line or "\r" in line:
            bad = [f for f in map(str, row) if any(c in f for c in ',"\r\n')]
            raise ValueError(f"CSV fields {bad!r} would need quoting")
        data += (line + "\r\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    io_mod._write_atomic(path, data)


def _build_system(db: modal.ModeDatabase) -> systems.FullOrderSystem:
    gen = db.metadata.get("generator")
    if not gen:
        raise ValueError(
            "database carries no generator metadata; it cannot be re-solved "
            "(ingested data supports interpolation-only commands)"
        )
    name, kwargs = gen["name"], dict(gen.get("args", {}))
    if name == "heat-rod":
        kwargs["mu_domain"] = tuple(kwargs.get("mu_domain", (0.0, 120.0)))
        return systems.heat_rod(**kwargs)
    if name == "spring-chain+first-order":
        return systems.first_order_form(systems.spring_chain_with_defect(**kwargs))
    raise ValueError(f"cannot rebuild a full-order system for generator {name!r}")


def _load_prepared(path) -> modal.ModeDatabase:
    db = io_mod.load_database(path)
    if not (db.paired and db.aligned):
        raise ValueError(
            f"database at {path} is not prepared (paired={db.paired}, "
            f"aligned={db.aligned}); run the pair and align commands first"
        )
    return db


def _mode_index(args, db) -> int:
    if not 1 <= args.mode <= db.m:
        raise ValueError(f"--mode is 1-based and must lie in [1, {db.m}]")
    return args.mode - 1


def _edm_bases(db, m, rank=None, energy=None):
    """Right deformation bases of the first m chains, and left ones (None when db stores none)."""
    def family(which):
        return [edm_mod.extract_edm_basis(db, i, rank=rank, energy=energy, which=which) for i in range(m)]

    return family("right"), None if db.left is None else family("left")


def _numerical_rank(db, i) -> int:
    s = edm_mod.extract_edm_basis(db, i, rank=0).singular_values
    return int(np.sum(s > s[0] * max(db.n, db.p) * np.finfo(float).eps)) if s[0] > 0 else 0


# -- subcommand handlers ------------------------------------------------------

def cmd_generate(args) -> int:
    mus = _parse_mu_grid(args.mu_grid)
    out = _out_path(args, "db")

    if args.kind == "heat-rod":
        sys_ = systems.heat_rod(
            n=args.n,
            length=args.length,
            conductivity=args.conductivity,
            heat_capacity=args.heat_capacity,
            h_left=args.h_left,
            t_ambient=args.t_ambient,
            heat_source=args.heat_source,
        )
        db = modal.sample_spectrum(sys_, mus, args.m)
    elif args.kind == "spring-chain":
        sys_ = systems.first_order_form(
            systems.spring_chain_with_defect(
                n_mass=args.n_mass,
                mass=args.mass,
                k_nominal=args.k_nominal,
                k_defect=args.k_defect,
            )
        )
        db = modal.sample_spectrum(sys_, mus, args.m)
    elif args.kind == "traveling-bump":
        db = modal.bump_database(args.n, args.width, mus)
    elif args.kind == "synthetic-wide":
        db = modal.synthetic_wide_database(args.n, mus, args.m, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown generator {args.kind!r}")

    if not args.raw and not db.aligned:
        db = modal.align_database(modal.pair_modes(db))
    io_mod.save_database(db, out)
    print(f"wrote {db.p}-sample database (n={db.n}, m={db.m}) to {out}")
    return 0


def cmd_modes(args) -> int:
    db = io_mod.load_database(args.db)
    print(
        f"n={db.n} p={db.p} m={db.m} complex={db.is_complex} "
        f"paired={db.paired} aligned={db.aligned} "
        f"crossing_gaps={list(db.crossing_gaps)}"
    )
    for w in db.warnings:
        print(f"warning: {w}")
    if args.out is not None:
        rows = [
            (mu, i + 1, lam.real, lam.imag)
            for mu, column in zip(db.mus.tolist(), db.eigenvalues.T)
            for i, lam in enumerate(column)
        ]
        path = Path(args.out)
        _write_csv(path, ["mu (parameter)", "mode (1-based)", "re_lambda (1/time)", "im_lambda (1/time)"], rows)
        print(f"wrote eigenvalue table to {path}")
    return 0


def cmd_pair(args) -> int:
    db = io_mod.load_database(args.db)
    db = modal.pair_modes(db)
    out = _out_path(args, "db-paired")
    io_mod.save_database(db, out)
    print(f"paired database written to {out}; crossings at gaps {list(db.crossing_gaps)}")
    return 0


def cmd_align(args) -> int:
    db = io_mod.load_database(args.db)
    db = modal.align_database(db)
    out = _out_path(args, "db-aligned")
    io_mod.save_database(db, out)
    print(f"aligned database written to {out}")
    return 0


def cmd_edm(args) -> int:
    db = _load_prepared(args.db)
    i = _mode_index(args, db)
    basis = edm_mod.extract_edm_basis(db, i, rank=args.rank, energy=args.energy)
    out = _out_path(args, f"edm{args.mode}")
    io_mod.save_edm_basis(basis, out)
    captured = edm_mod.energy_fraction(basis.singular_values, basis.rank)
    print(f"mode {args.mode}: retained r={basis.rank} directions ({captured:.4%} energy) -> {out}")
    return 0


def cmd_interp(args) -> int:
    db = _load_prepared(args.db)
    i = _mode_index(args, db)
    if args.strategy == "direct":
        vec = edm_mod.direct_interpolate(db, i, args.mu, scheme=args.scheme)
    else:
        if args.edm is not None:
            basis = io_mod.load_edm_basis(args.edm)
            edm_mod.check_basis(basis, db, i, f"--edm {args.edm}", "--mode", "--db")
        else:
            basis = edm_mod.extract_edm_basis(db, i, rank=args.rank, energy=args.energy)
        vec = edm_mod.interpolate_mode(basis, args.mu, scheme=args.scheme)
    out = _out_path(args, f"mode{args.mode}_at_{args.mu}.csv")
    if np.iscomplexobj(vec):
        rows = [(k, v.real, v.imag) for k, v in enumerate(vec)]
        _write_csv(out, ["index (node)", "real (state)", "imag (state)"], rows)
    else:
        rows = [(k, float(v)) for k, v in enumerate(vec)]
        _write_csv(out, ["index (node)", "value (state)"], rows)
    print(f"wrote interpolated mode to {out}")
    return 0


def cmd_rom(args) -> int:
    db = _load_prepared(args.db)
    sys_ = _build_system(db)
    m = db.m if args.m is None else args.m
    xbar = systems.equilibrium(sys_, args.mu)
    if args.x0_npy is not None:
        x0 = np.load(args.x0_npy)
        if x0.shape != (db.n,):
            raise ValueError(f"initial state in {args.x0_npy} has shape {x0.shape}, expected ({db.n},)")
    elif args.x0_mu is not None:
        x0 = systems.equilibrium(sys_, args.x0_mu)
    else:
        x0 = xbar
    horizon = args.horizon if args.horizon is not None else rom_mod.default_horizon(db)
    times = np.linspace(0.0, horizon, args.steps + 1)

    if args.strategy == "solution":
        roms = [rom_mod.build_rom_at_sample(db, mk, m, xbar) for mk in db.mus]
        trajectory = rom_mod.solution_interpolation(roms, args.mu, x0, times, scheme=args.scheme)
        defect = float("nan")
    else:
        if args.strategy == "sample":
            model = rom_mod.build_rom_at_sample(db, args.mu, m, xbar)
        else:
            bases = left_bases = None
            if args.strategy == "edm":
                bases, left_bases = _edm_bases(db, m, rank=args.rank, energy=args.energy)
            model = rom_mod.build_rom_interpolated(
                db, args.mu, m, strategy=args.strategy, edm_bases=bases,
                left_edm_bases=left_bases, equilibrium=xbar, mode_scheme=args.scheme,
            )
        trajectory = rom_mod.simulate_rom(model, x0, times)
        defect = model.biorth_defect

    out = _out_path(args, f"trajectory_{args.mu}.csv")
    header = ["t (time)"] + [f"x{k:04d} (state)" for k in range(db.n)]
    rows = np.column_stack([trajectory.times, trajectory.states.T])
    _write_csv(out, header, rows.tolist())
    print(f"wrote {trajectory.times.size}-step trajectory to {out} (biorthogonality defect {defect:.3e})")
    return 0


def cmd_report(args) -> int:
    if args.what == "error-sweep":
        return _report_error_sweep(args)
    if args.what == "benchmark":
        return _report_benchmark(args)
    if args.what == "energy":
        return _report_energy(args)
    raise ValueError(f"unknown report {args.what!r}")  # pragma: no cover


def _report_error_sweep(args) -> int:
    db = _load_prepared(args.db)
    sys_ = _build_system(db)
    i = _mode_index(args, db)
    grid = np.linspace(db.mus[0], db.mus[-1], args.grid)
    full_rank = _numerical_rank(db, i)

    ranks: list[int] = []
    for token in args.ranks.split(","):
        token = token.strip()
        ranks.append(full_rank if token == "full" else int(token))
    bases = {r: edm_mod.extract_edm_basis(db, i, rank=r) for r in ranks}

    rows = []
    for mu in grid:
        truth = modal.mode_at(sys_, db, i, mu)
        direct = edm_mod.direct_interpolate(db, i, mu, scheme=args.scheme)
        rows.append(
            (mu, "", "direct", edm_mod.interpolation_error(truth, direct, db.mass_factor))
        )
        for r in ranks:
            pred = edm_mod.interpolate_mode(bases[r], mu, scheme=args.scheme)
            rows.append(
                (mu, r, "edm", edm_mod.interpolation_error(truth, pred, db.mass_factor))
            )
    out = _out_path(args, "errors.csv")
    _write_csv(out, ["mu (parameter)", "r (modes)", "strategy", "error (relative)"], rows)
    print(f"wrote error sweep over {args.grid} parameters to {out}")
    return 0


def _report_benchmark(args) -> int:
    if args.x0_mu is None:
        raise ValueError("report benchmark requires --x0-mu (equilibrium used as initial state)")
    db = _load_prepared(args.db)
    rom_mod.default_horizon(db)  # refuses a spectrum that does not decay before any solve
    sys_ = _build_system(db)
    m = db.m if args.m is None else args.m
    bases, left_bases = _edm_bases(db, m, rank=args.rank, energy=args.energy)
    grid = np.linspace(db.mus[0], db.mus[-1], args.grid)
    rows = rom_mod.benchmark_strategies(
        sys_, db, bases, grid,
        x0=args.x0_mu,
        m=m,
        left_edm_bases=left_bases,
    )
    out = _out_path(args, "benchmark.csv")
    _write_csv(
        out,
        ["mu (parameter)", "strategy", "integrated_error (relative)"],
        [(r["mu"], r["strategy"], r["integrated_error"]) for r in rows],
    )
    print(f"wrote strategy benchmark over {args.grid} parameters to {out}")
    return 0


def _report_energy(args) -> int:
    db = _load_prepared(args.db)
    i = _mode_index(args, db)
    basis = edm_mod.extract_edm_basis(db, i, rank=0)
    s = basis.singular_values
    rows = [
        (r, s[r - 1] if r else "", edm_mod.energy_fraction(s, r))
        for r in range(s.size + 1)
    ]
    out = _out_path(args, "energy.csv")
    _write_csv(out, ["r (modes)", "sigma (weighted)", "energy_fraction (-)"], rows)
    print(f"wrote singular-value energy table to {out}")
    return 0


def cmd_ingest(args) -> int:
    """Best-effort conversion of an external mode dataset to the native format.

    Expects an .npz or .mat file with arrays: 'mus' (p,), 'modes' (n, m, p),
    optional 'eigenvalues' (m, p) and 'mass' (n, n).  Anything else fails with
    a listing of the keys that were found.
    """
    src = Path(args.src)
    if src.suffix == ".npz":
        payload = dict(np.load(src))
    elif src.suffix == ".mat":
        from scipy.io import loadmat

        payload = {k: v for k, v in loadmat(src).items() if not k.startswith("__")}
    else:
        raise ValueError(f"unsupported dataset container {src.suffix!r} (use .npz or .mat)")

    missing = [key for key in ("mus", "modes") if key not in payload]
    if missing:
        raise ValueError(
            f"dataset lacks required arrays {missing}; found keys {sorted(payload)}"
        )
    mus = np.asarray(payload["mus"]).ravel()
    modes = np.asarray(payload["modes"])
    if modes.ndim != 3:
        raise ValueError(f"'modes' must have shape (n, m, p), got {modes.shape}")
    eigenvalues = payload.get("eigenvalues")
    if eigenvalues is not None:
        eigenvalues = np.asarray(eigenvalues).reshape(modes.shape[1], mus.size)
    mass = payload.get("mass")

    db = modal.database_from_modes(
        mus, modes, eigenvalues=eigenvalues, mass=mass,
        paired=args.paired, normalize=True,
        metadata={"ingested_from": str(src)},
    )
    if args.paired:
        db = modal.align_database(db)
    out = _out_path(args, "db-ingested")
    io_mod.save_database(db, out)
    print(f"ingested {src} -> {out} (paired={db.paired}, aligned={db.aligned})")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigendeform",
        description="Low-order eigenmode-deformation analysis of parameterized systems",
    )
    parser.add_argument("--debug", action="store_true",
                        help="on failure, raise with the full traceback instead of a one-line error")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a mode database from a generator")
    g.add_argument("kind", choices=["heat-rod", "spring-chain", "traveling-bump", "synthetic-wide"])
    g.add_argument("--mu-grid", required=True, help="start:stop:count, inclusive endpoints")
    g.add_argument("--m", type=int, default=6, help="modes to track (default 6)")
    g.add_argument("--n", type=int, default=50, help="grid size (heat-rod, bump, synthetic)")
    g.add_argument("--length", type=float, default=1.0)
    g.add_argument("--conductivity", type=float, default=1.0)
    g.add_argument("--heat-capacity", type=float, default=1.0)
    g.add_argument("--h-left", type=float, default=1.0)
    g.add_argument("--t-ambient", type=float, default=0.0)
    g.add_argument("--heat-source", type=float, default=0.0)
    g.add_argument("--n-mass", type=int, default=12)
    g.add_argument("--mass", type=float, default=1.0)
    g.add_argument("--k-nominal", type=float, default=1.0)
    g.add_argument("--k-defect", type=float, default=0.5)
    g.add_argument("--width", type=float, default=2.0, help="bump width in grid cells")
    g.add_argument("--seed", type=int, default=0, help="seed for synthetic modes")
    g.add_argument("--raw", action="store_true", help="skip the pair and align passes")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("modes", help="summarize a database; optionally dump eigenvalues")
    s.add_argument("--db", required=True)
    s.add_argument("--out", help="CSV path for the eigenvalue table")
    s.set_defaults(func=cmd_modes)

    pr = sub.add_parser("pair", help="match mode chains across samples")
    pr.add_argument("--db", required=True)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_pair)

    al = sub.add_parser("align", help="sign/phase alignment of a paired database")
    al.add_argument("--db", required=True)
    al.add_argument("--out")
    al.set_defaults(func=cmd_align)

    e = sub.add_parser("edm", help="extract the deformation basis of one mode chain")
    e.add_argument("--db", required=True)
    e.add_argument("--mode", type=int, default=1, help="1-based mode chain index")
    e.add_argument("--rank", type=int, default=None, help="explicit number of directions")
    e.add_argument("--energy", type=float, default=None, help="energy threshold (default 0.999)")
    e.add_argument("--out")
    e.set_defaults(func=cmd_edm)

    it = sub.add_parser("interp", help="interpolate one mode at a parameter value")
    it.add_argument("--db", required=True)
    it.add_argument("--mode", type=int, default=1)
    it.add_argument("--mu", type=float, required=True)
    it.add_argument("--strategy", choices=["direct", "edm"], default="edm")
    it.add_argument("--edm", help="existing deformation-basis directory")
    it.add_argument("--rank", type=int, default=None)
    it.add_argument("--energy", type=float, default=None)
    it.add_argument("--scheme", choices=["linear", "cubic"], default="linear")
    it.add_argument("--out")
    it.set_defaults(func=cmd_interp)

    r = sub.add_parser("rom", help="build a reduced model and simulate a trajectory")
    r.add_argument("--db", required=True)
    r.add_argument("--mu", type=float, required=True)
    r.add_argument("--m", type=int, default=None)
    r.add_argument("--strategy", choices=["sample", "direct", "edm", "solution"], default="edm")
    r.add_argument("--rank", type=int, default=None)
    r.add_argument("--energy", type=float, default=None)
    r.add_argument("--x0-mu", type=float, default=None,
                   help="initial condition = equilibrium at this parameter")
    r.add_argument("--x0-npy", default=None,
                   help="initial condition from a .npy state vector")
    r.add_argument("--horizon", type=float, default=None,
                   help="time horizon (default: 5 characteristic times)")
    r.add_argument("--steps", type=int, default=1000)
    r.add_argument("--scheme", choices=["linear", "cubic"], default="linear")
    r.add_argument("--out")
    r.set_defaults(func=cmd_rom)

    rp = sub.add_parser("report", help="CSV reports: error-sweep, benchmark, energy")
    rp.add_argument("what", choices=["error-sweep", "benchmark", "energy"])
    rp.add_argument("--db", required=True)
    rp.add_argument("--mode", type=int, default=1)
    rp.add_argument("--grid", type=int, default=100)
    rp.add_argument("--ranks", default="0,1,2,4,full",
                    help="comma list of ranks for the error sweep; 'full' = numerical rank")
    rp.add_argument("--scheme", choices=["linear", "cubic"], default="linear")
    rp.add_argument("--m", type=int, default=None)
    rp.add_argument("--rank", type=int, default=None)
    rp.add_argument("--energy", type=float, default=None)
    rp.add_argument("--x0-mu", type=float, default=None)
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_report)

    ig = sub.add_parser("ingest", help="convert an external dataset (best effort)")
    ig.add_argument("--src", required=True)
    ig.add_argument("--paired", action="store_true",
                    help="dataset chains are already consistently ordered")
    ig.add_argument("--out")
    ig.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
