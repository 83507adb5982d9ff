"""Phases of one benchmark run: offline, set-up, correctness gate, CLI, closed loop.

Imported by run.py after the BLAS thread count is fixed and the library path
is checked.
"""
from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import shutil
import time
from pathlib import Path

import numpy as np
import scipy

import eigendeform
import workloads
from eigendeform import edm, rom
from tracer import Tracer

OUT = Path(__file__).resolve().parent / "out"
TAIL_PCT = 90.0  # fixed, so the tail does not jump with the sample count (see README)


class Checks:
    """Attempted and failed operations; a failure never drops its timing sample."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 25:
                self.failures.append(f"{name}: {detail}".rstrip(": "))
        return ok

    def run(self, name: str, fn, *args):
        """Call fn, recording an exception as a failed operation; returns None on failure."""
        try:
            return fn(*args)
        except Exception as exc:  # a failing library call is a measured outcome
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None


def rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def same_output(out: list, expected: list, rtol: float) -> bool:
    return len(out) == len(expected) and all(
        np.all(np.isfinite(a)) and rel(a, b) <= rtol for a, b in zip(out, expected)
    )


@functools.lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    return np.random.default_rng(n).standard_normal(n)


def digest(out) -> np.ndarray:
    """Projections of a query output on fixed pseudo-random probes.

    Repeats of a query are compared through this short fingerprint, so the
    pool's outputs need not stay in memory (they would dominate peak_rss_mb).
    A non-finite output gives a non-finite digest.
    """
    if isinstance(out, rom.Trajectory):
        states = out.states
        return np.concatenate([_probe(states.shape[0]) @ states, states @ _probe(states.shape[1])])
    return np.array([_probe(a.shape[0]) @ a for a in out])


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def environment() -> dict:
    uname = os.uname()
    cpu = uname.machine
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eigendeform": eigendeform.__version__,
        "platform": f"{uname.sysname} {uname.release} {uname.machine}",
    }


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def scoped(tracer, kind, fn, *args):
    """Run fn inside a tracer scope of the given kind, or plainly without a tracer."""
    if tracer is None:
        return fn(*args)
    tracer.begin(kind)
    try:
        return fn(*args)
    finally:
        tracer.end()


# -- phases ------------------------------------------------------------------

def validate(w, state, built, checks: Checks) -> dict:
    """Correctness gate: round trip, E-orthonormality, full-rank exactness, accuracy."""
    db0, right0, left0 = built
    db = state.db
    checks.record("database round trip", all(
        np.array_equal(a.right_modes, b.right_modes) and np.array_equal(a.eigenvalues, b.eigenvalues)
        for a, b in zip(db0.samples, db.samples)))
    F = db.mass_factor

    def orth_defect(u):
        wu = u if F is None else F @ u
        return float(np.max(np.abs(wu.conj().T @ wu - np.eye(u.shape[1]))))

    families = [("right", right0, state.right), ("left", left0, state.left)]
    for which, built_bases, loaded in families:
        for i, (b0, b) in enumerate(zip(built_bases, loaded)):
            checks.record(f"{which} basis {i} round trip",
                          np.array_equal(b0.edms, b.edms) and np.array_equal(b0.coefficients, b.coefficients))
            d = orth_defect(b.edms)
            checks.record(f"{which} basis {i} E-orthonormal", d <= 1e-8, f"defect {d:.2e}")

    kmax = min(db.n, db.p)
    for which, _, loaded in families:
        for i in range(len(loaded)):
            block = db.right_block(i) if which == "right" else db.left_block(i)
            full = checks.run("full-rank extraction", edm.extract_edm_basis, db, i, kmax, None, which)
            if full is None:
                continue
            d = orth_defect(full.edms)
            checks.record(f"full-rank {which} basis {i} E-orthonormal", d <= 1e-8, f"defect {d:.2e}")
            e = rel(full.mean_mode[:, None] + full.edms @ full.coefficients, block)
            checks.record(f"full-rank {which} basis {i} reproduces samples", e <= 1e-10, f"misfit {e:.2e}")
            for mu in w.validation_mus:
                via_edm = edm.interpolate_mode(full, mu)
                if which == "right":
                    direct = edm.direct_interpolate(db, i, mu)
                else:
                    direct = edm.interpolate_columns(db.mus, block, mu)
                e = rel(via_edm, direct)
                checks.record(f"EDM and direct routes agree ({which} {i}, mu={mu:.6g})", e <= 1e-9, f"misfit {e:.2e}")

    mode_errors, rom_errors, defects = [], [], []
    for mu in w.validation_mus:
        truth = checks.run("reference modes", w.truth_modes, state, mu)
        pred = checks.run("mode query", w.mode_query, state, mu)
        if truth is not None and pred is not None:
            for i in range(w.m):
                e = edm.interpolation_error(truth[:, i], pred[i], F)
                mode_errors.append(e)
                checks.record(f"mode {i} error at mu={mu:.6g}", e <= w.mode_error_bound, f"{e:.3e}")
        model = checks.run("ROM build", w.build_rom, state, mu)
        if model is None:
            continue
        defects.append(model.biorth_defect)
        if truth is None:
            continue
        for j, x0 in enumerate(state.validation_x0):
            reference = checks.run("reference trajectory", w.reference_trajectory, state, mu, x0, truth)
            trajectory = checks.run("ROM simulation", rom.simulate_rom, model, x0, state.times)
            if reference is not None and trajectory is not None:
                _, e = rom.trajectory_error(reference, trajectory, F)
                rom_errors.append(e)
                checks.record(f"ROM error at mu={mu:.6g}, x0 #{j}", e <= w.rom_error_bound, f"{e:.3e}")
    return {
        "mode_errors": mode_errors,
        "rom_errors": rom_errors,
        "biorth_defect_max": max(defects) if defects else float("nan"),
    }


def cli_pass(w, state, work: Path, checks: Checks) -> tuple[float, list, bytes]:
    """One CLI pipeline into a fresh directory: total seconds, steps, query output."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = w.run_cli(work, state)
    for step, _, code, message, _ in steps:
        checks.record(f"cli {step}", code == 0, message.splitlines()[-1] if message else "")
    out_file = Path(steps[-1][4][-1])
    output = out_file.read_bytes() if out_file.is_file() else b""
    return sum(s[1] for s in steps), steps, output


def warm_up(w, state, checks: Checks) -> dict:
    """One pass over the query pool: checks against independent references, keeps digests."""
    expected = {"mode": [], "direct": [], "rom": []}
    for mu in w.query_mus:
        for kind, query, reference in (("mode", w.mode_query, w.mode_reference),
                                       ("direct", w.direct_query, w.direct_reference)):
            out = checks.run(f"{kind} query", query, state, mu)
            if out is not None:
                checks.record(f"{kind} query at mu={mu:.6g} matches reference",
                              same_output(out, reference(state, mu), 1e-10))
            expected[kind].append(None if out is None else digest(out))
        out = checks.run("ROM query", w.rom_query, state, mu)
        expected["rom"].append(None if out is None else digest(out))
    return expected


def closed_loop(w, state, expected, seconds: float, checks: Checks, tracer=None, tasks=()):
    """One client; each query starts when the previous returns.  Durations in seconds.

    ``tasks`` are (name, count, fn) triples.  The count calls of each fn are
    spread evenly over the run, between query rounds, so that a burst of
    contention on the shared host hits the repeated phases and the queries
    alike.  Each fn returns its own duration.
    """
    kinds = [("rom", w.rom_query)]
    kinds += [("mode", w.mode_query), ("direct", w.direct_query)] * w.queries_per_rom
    samples = {"mode": [], "direct": [], "rom": []}
    served = {"mode": 0, "direct": 0, "rom": 0}
    phases = {name: [] for name, _, _ in tasks}
    due = sorted(
        (((i + 0.5) / count * seconds, name, fn) for name, count, fn in tasks for i in range(count)),
        key=lambda task: task[0],
    )
    pool = len(w.query_mus)
    begin = time.perf_counter()
    while (now := time.perf_counter() - begin) < seconds:
        while due and due[0][0] <= now:
            _, name, fn = due.pop(0)
            phases[name].append(fn())
        for kind, query in kinds:
            k = served[kind] % pool
            served[kind] += 1
            mu = w.query_mus[k]
            if tracer is not None:
                tracer.begin(kind)
            start = time.perf_counter_ns()
            try:
                out, error = query(state, mu), None
            except Exception as exc:  # counted as failed; the sample is still kept
                out, error = None, exc
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.end()
            samples[kind].append(elapsed * 1e-9)
            ok = error is None and expected[kind][k] is not None and rel(digest(out), expected[kind][k]) <= 1e-12
            checks.record(f"{kind} query", ok, "" if error is None else repr(error))
    for _, name, fn in due:  # a last long round can pass the end before them
        phases[name].append(fn())
    return {kind: np.array(v) for kind, v in samples.items()}, phases


def rebuild(w, out: Path, built, checks: Checks) -> float:
    """One timed offline build into a fresh directory; it must repeat the first exactly."""
    shutil.rmtree(out, ignore_errors=True)
    (db, right, left), elapsed = timed(w.offline, out)
    checks.record("offline build repeats exactly", all(
        np.array_equal(a.right_modes, b.right_modes) for a, b in zip(db.samples, built[0].samples)
    ) and all(np.array_equal(a.edms, b.edms) for a, b in zip(right + left, built[1] + built[2])))
    return elapsed


def repeat_cli(w, state, out: Path, first_output: bytes, checks: Checks) -> float:
    """One timed CLI pipeline; its output must be byte-identical to the first."""
    elapsed, _, output = cli_pass(w, state, out, checks)
    checks.record("cli output byte-identical across repeats", output == first_output)
    return elapsed


# -- metrics -----------------------------------------------------------------

def tail(samples: np.ndarray, pct: float) -> dict:
    value = float(np.percentile(samples, pct))
    return {"value": value, "percentile": pct, "beyond": int(np.sum(samples > value)),
            "samples": int(samples.size)}


def end_to_end(phases, loop, validation, checks) -> dict:
    mode_tail = tail(loop["mode"], TAIL_PCT)
    rom_tail = tail(loop["rom"], TAIL_PCT)
    metrics = {
        "setup_s": (float(np.median(phases["setup"])), "s"),
        "offline_s": (float(np.median(phases["offline"])), "s"),
        "mode_query_p50_us": (float(np.median(loop["mode"])) * 1e6, "us"),
        "mode_query_tail_us": (mode_tail["value"] * 1e6, "us"),
        "direct_query_p50_us": (float(np.median(loop["direct"])) * 1e6, "us"),
        "rom_query_p50_ms": (float(np.median(loop["rom"])) * 1e3, "ms"),
        "rom_query_tail_ms": (rom_tail["value"] * 1e3, "ms"),
        "rom_queries_per_s": (loop["rom"].size / float(np.sum(loop["rom"])), "1/s"),
        "cli_pipeline_s": (float(np.median(phases["cli"])), "s"),
        "mode_error_max": (max(validation["mode_errors"], default=math.nan), "ratio"),
        "rom_error_median": (float(np.median(validation["rom_errors"])) if validation["rom_errors"] else math.nan, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "mode_query_tail_us": {**mode_tail, "value": mode_tail["value"] * 1e6},
        "rom_query_tail_ms": {**rom_tail, "value": rom_tail["value"] * 1e3},
        "samples": {**{k: int(v.size) for k, v in loop.items()}, **{k: len(v) for k, v in phases.items()}},
        "phase_samples_s": phases,
        "rom_error_max": max(validation["rom_errors"], default=math.nan),
        "ops_failed_frac": checks.failed / max(checks.attempted, 1),
        "wait_time": "not applicable: one client in one process, nothing queues",
    }
    return {"metrics": metrics, "detail": detail}


def per_layer(summary, state, built_dir: Path, cli_steps, cli_output: bytes, validation, overhead, checks) -> dict:
    """Per-layer metrics from one traced pass of each phase and the traced half of the loop."""
    S = summary

    def once(kind, name, field):
        return float(S.per_scope(kind, name, field).sum())

    def per_query(kind, name, field):
        values = S.per_scope(kind, name, field)
        return float(np.median(values)) if values.size else math.nan

    def call_p50(kind, name, scale):
        d = S.call_durations(kind, name)
        return float(np.median(d)) * scale if d.size else None

    for kind, name in (("rom", "edm.interpolate_columns"), ("direct", "modal.right_block"),
                       ("mode", "edm.interpolate_mode")):
        calls = S.per_scope(kind, name, "calls")
        checks.record(f"{name} calls per {kind} query repeat", calls.size > 0 and np.all(calls == calls[0]))

    db = state.db
    bases = state.right + state.left
    mode_bytes = sum(b.mean_mode.nbytes + b.edms.nbytes + b.coefficients.nbytes for b in bases)
    interp_per_query = per_query("mode", "edm.interpolate_mode", "duration")
    load_s = once("setup", "io.load_database", "duration")
    query_cmd = "cli.cmd_" + cli_steps[-1][4][0]
    cli_spans = {"generate": "cli.cmd_generate", "edm": "cli.cmd_edm", "query": query_cmd}
    rom_p50 = call_p50("rom", "rom.simulate_rom", 1.0) or math.nan
    build_p50 = call_p50("rom", "rom.build_rom_interpolated", 1.0) or math.nan
    full_p50 = call_p50("validate", "rom.simulate_full", 1.0)
    declared = {
        "systems.operator_at.calls": (once("offline", "systems.operator_at", "calls"), "count"),
        "numerics.generalized_eig.calls": (once("offline", "numerics.generalized_eig", "calls"), "count"),
        "numerics.cholesky_factor.calls": (once("offline", "numerics.cholesky_factor", "calls"), "count"),
        "modal.pair_modes.self_s": (once("offline", "modal.pair_modes", "self"), "s"),
        "modal.align_database.self_s": (once("offline", "modal.align_database", "self"), "s"),
        "modal.crossing_gaps": (len(db.crossing_gaps), "count"),
        "modal.degenerate_pairings": (sum(x.startswith("degenerate pairing") for x in db.warnings), "count"),
        "modal.right_block.calls": (per_query("direct", "modal.right_block", "calls"), "count"),
        "modal.right_block.self_s": (per_query("direct", "modal.right_block", "self"), "s"),
        "edm.extract_edm_basis.self_s": (once("offline", "edm.extract_edm_basis", "self"), "s"),
        "edm.energy_fraction.calls": (once("offline", "edm.energy_fraction", "calls"), "count"),
        "edm.interpolate_mode.us_p50": (call_p50("mode", "edm.interpolate_mode", 1e6), "us"),
        "edm.interpolate_mode.gbps_computed": (mode_bytes / interp_per_query / 1e9, "GB/s"),
        "edm.interpolate_columns.calls_per_query": (per_query("rom", "edm.interpolate_columns", "calls"), "count"),
        "edm.interpolate_columns.self_s": (per_query("rom", "edm.interpolate_columns", "self"), "s"),
        "edm.direct_interpolate.us_p50": (call_p50("direct", "edm.direct_interpolate", 1e6), "us"),
        "rom.build_rom_interpolated.ms_p50": (build_p50 * 1e3, "ms"),
        "rom.simulate_rom.ms_p50": (rom_p50 * 1e3, "ms"),
        "rom.biorth_defect_max": (validation["biorth_defect_max"], "ratio"),
        "io.save_database.s": (once("offline", "io.save_database", "duration"), "s"),
        "io.save_database.bytes": (dir_bytes(built_dir / "db"), "B"),
        "io.load_database.s": (load_s, "s"),
        "io.load_database.mb_per_s": (dir_bytes(built_dir / "db") / 1e6 / load_s, "MB/s"),
        "io.save_edm_basis.s": (once("offline", "io.save_edm_basis", "duration"), "s"),
        "io.load_edm_basis.s": (once("setup", "io.load_edm_basis", "duration"), "s"),
        **{f"cli.{step}.s": (once("cli", span, "duration"), "s") for step, span in cli_spans.items()},
        "cli.query.csv_bytes": (len(cli_output), "B"),
        "trace.overhead.mode_query_pct": (overhead["mode"], "%"),
        "trace.overhead.rom_query_pct": (overhead["rom"], "%"),
    }
    # layers a workload does not reach report null here rather than a constant 0
    workload_specific = {
        "systems.equilibrium.ms_p50": (call_p50("rom", "systems.equilibrium", 1e3), "ms"),
        "systems.operator_at.self_s": (once("offline", "systems.operator_at", "self"), "s"),
        "numerics.generalized_eig.self_s": (once("offline", "numerics.generalized_eig", "self"), "s"),
        "numerics.solve_linear.self_s": (per_query("rom", "numerics.solve_linear", "self"), "s"),
        "modal.sample_spectrum.s": (once("offline", "modal.sample_spectrum", "duration"), "s"),
        "rom.simulate_full.ms_p50": (None if full_p50 is None else full_p50 * 1e3, "ms"),
        "rom.simulate_full_over_rom_query": (
            None if full_p50 is None else full_p50 / (rom_p50 + build_p50), "ratio"),
    }
    workload_specific = {
        k: (None if v is None or v == 0 else v, unit) for k, (v, unit) in workload_specific.items()
    }
    detail = {
        "spans": S.spans,
        "spans_per_query": {k: float(np.median(S.spans_per_scope(k))) for k in ("mode", "direct", "rom")},
        "rom.simulate_full_over_rom_query.base": "rom.build_rom_interpolated p50 + rom.simulate_rom p50",
        "self_time": "span duration minus time covered by calls into other layers beneath it",
    }
    return {"metrics": declared, "workload_specific": workload_specific, "detail": detail}


# -- one run -----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    w = workloads.WORKLOADS[name](seed, tiny)
    checks = Checks()
    work = OUT / f"work-{os.getpid()}"
    store = work / "store"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    try:
        # one untimed pass of each phase: builds the artifacts the run reads,
        # fills caches and gives the CLI output later repeats must match
        built = w.offline(store)
        state = w.setup(store)
        state.x0 = w.initial_state(state)
        state.validation_x0 = [state.x0] + [w.initial_state(state) for _ in range(w.extra_validation_x0)]
        state.times = w.time_grid(state)
        _, cli_steps, cli_out = cli_pass(w, state, work / "cli", checks)
        if trace:
            tracer.install()
            scoped(tracer, "offline", w.offline, work / "offline")
            scoped(tracer, "setup", w.setup, store)
        validation = scoped(tracer, "validate", validate, w, state, built, checks)
        if trace:
            scoped(tracer, "cli", cli_pass, w, state, work / "cli", checks)
            tracer.uninstall()
        expected = warm_up(w, state, checks)

        if trace:
            plain, _ = closed_loop(w, state, expected, seconds / 2, checks)
            tracer.install()
            loop, _ = closed_loop(w, state, expected, seconds / 2, checks, tracer)
            tracer.uninstall()
        else:
            loop, phases = closed_loop(w, state, expected, seconds, checks, tasks=[
                ("offline", w.offline_reps, lambda: rebuild(w, work / "offline", built, checks)),
                ("setup", w.setup_reps, lambda: timed(w.setup, store)[1]),
                ("cli", w.cli_reps, lambda: repeat_cli(w, state, work / "cli", cli_out, checks)),
            ])
    finally:
        if tracer is not None:
            tracer.uninstall()

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": "tiny" if tiny else "full", "environment": environment(),
        "validation_mus": w.validation_mus.tolist(),
    }
    if trace:
        overhead = {k: 100.0 * float(np.median(loop[k]) / np.median(plain[k]) - 1.0) for k in ("mode", "rom")}
        layers = per_layer(tracer.summary(), state, store, cli_steps, cli_out, validation, overhead, checks)
        report["per_layer"] = layers
        metrics = layers["metrics"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans_{name}_seed{seed}.jsonl")
    else:
        e2e = end_to_end(phases, loop, validation, checks)
        report["end_to_end"] = e2e
        metrics = e2e["metrics"]
    shutil.rmtree(work, ignore_errors=True)

    report["checks"] = {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures}
    report["ops_failed_frac"] = checks.failed / max(checks.attempted, 1)
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(report, indent=2, default=str))

    for key, (value, unit) in metrics.items():
        print(f"{key:42s} {float(value)!r:>24} {unit}")
    for key, (value, unit) in report.get("per_layer", {}).get("workload_specific", {}).items():
        print(f"{key:42s} {'not exercised' if value is None else repr(float(value)):>24} {unit}")
    print(f"{'ops_failed_frac':42s} {report['ops_failed_frac']!r:>24} ({checks.failed}/{checks.attempted})")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
