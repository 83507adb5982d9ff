"""The three seeded workloads: offline build, set-up, queries and references.

Every call into the library goes through a module attribute
(``modal.sample_spectrum(...)``) so that an installed Tracer sees it.  The
seed picks the query parameters, the validation parameters and the initial
state; the library only sees the generated inputs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io as stdio
import math
import time
from pathlib import Path

import numpy as np

from eigendeform import cli, edm, modal, rom, systems
from eigendeform import io as dbio

QUERY_POOL = 32  # distinct query parameters cycled through by the closed loop
VALIDATION_JITTER = 0.05  # validation mu = interval midpoint +- this share of its half-width


@dataclasses.dataclass
class State:
    """What a client holds once set-up is done: loaded artifacts and the system."""

    db: modal.ModeDatabase
    right: list
    left: list
    system: systems.FullOrderSystem | None
    x0: np.ndarray | None = None  # initial state of the loop's ROM queries
    validation_x0: list | None = None  # initial states the ROM error is taken over
    times: np.ndarray | None = None


class Workload:
    """Shared pipeline; subclasses fix sizes, generator, truth and CLI commands."""

    name = ""
    m = 6
    # loop composition: mode and direct queries per ROM query, chosen so each
    # kind gets enough samples for its tail in a run of a few tens of seconds
    queries_per_rom = 1
    # repeats of each phase, spread over the closed loop
    offline_reps = 15
    setup_reps = 25
    cli_reps = 9
    # further seeded initial states for the ROM error, besides the loop's
    extra_validation_x0 = 7
    # accuracy gate (see README for where each bound comes from)
    mode_error_bound = math.inf
    rom_error_bound = math.inf

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.configure()
        lo, hi = self.sample_mus[0], self.sample_mus[-1]
        self.query_mus = self.rng.uniform(lo, hi, QUERY_POOL)
        intervals = self.validation_intervals()
        mids = 0.5 * (self.sample_mus[intervals] + self.sample_mus[intervals + 1])
        half = 0.5 * np.diff(self.sample_mus)[intervals]
        self.validation_mus = mids + VALIDATION_JITTER * half * self.rng.uniform(-1, 1, mids.size)

    # -- hooks ---------------------------------------------------------------

    def configure(self) -> None:
        raise NotImplementedError

    def validation_intervals(self) -> np.ndarray:
        return np.arange(self.sample_mus.size - 1)

    def build_system(self):
        return None

    def generate(self) -> modal.ModeDatabase:
        """Raw database from the generator (the first offline stage)."""
        return modal.sample_spectrum(self.build_system(), self.sample_mus, self.m)

    def initial_state(self, state: State) -> np.ndarray:
        """A seeded real state in the span of the tracked modes at a seeded sample.

        Every tracked mode enters with unit weight and a seeded sign or phase,
        so the ROM error weighs all modes alike whatever the seed.
        """
        k = int(self.rng.integers(state.db.p))
        phi = state.db.samples[k].right_modes
        if np.iscomplexobj(phi):
            c = np.exp(2j * np.pi * self.rng.uniform(size=phi.shape[1]))
        else:
            c = self.rng.choice([-1.0, 1.0], size=phi.shape[1])
        x0 = np.real(phi @ c)
        return x0 / np.linalg.norm(x0)

    def time_grid(self, state: State) -> np.ndarray:
        return np.linspace(0.0, rom.default_horizon(state.db), 1001)

    def truth_modes(self, state: State, mu: float) -> np.ndarray:
        """Exact tracked modes at mu as the columns of an (n, m) block."""
        return np.column_stack([modal.mode_at(state.system, state.db, i, mu) for i in range(self.m)])

    def reference_trajectory(self, state: State, mu: float, x0, truth) -> rom.Trajectory:
        """Reference solution at mu from x0; ``truth`` is truth_modes(state, mu)."""
        return rom.simulate_full(state.system, mu, x0, state.times)

    def cli_commands(self, work: Path, state: State) -> list[tuple[str, list[str]]]:
        """(step, argv) for generate, edm and the query step; the last argv ends in --out FILE."""
        raise NotImplementedError

    # -- offline: generator to saved artifacts -------------------------------

    def rank_args(self) -> dict:
        return {"energy": 0.999}

    def offline(self, out: Path):
        db = modal.align_database(modal.pair_modes(self.generate()))
        right = [edm.extract_edm_basis(db, i, **self.rank_args()) for i in range(self.m)]
        left = []
        if db.samples[0].left_modes is not None:
            left = [
                edm.extract_edm_basis(db, i, which="left", **self.rank_args())
                for i in range(self.m)
            ]
        dbio.save_database(db, out / "db")
        for i, basis in enumerate(right):
            dbio.save_edm_basis(basis, out / f"edm_right_{i}")
        for i, basis in enumerate(left):
            dbio.save_edm_basis(basis, out / f"edm_left_{i}")
        return db, right, left

    # -- set-up: saved artifacts to ready-to-query ---------------------------

    def setup(self, out: Path) -> State:
        db = dbio.load_database(out / "db")
        right = [dbio.load_edm_basis(out / f"edm_right_{i}") for i in range(self.m)]
        left = []
        if db.samples[0].left_modes is not None:
            left = [dbio.load_edm_basis(out / f"edm_left_{i}") for i in range(self.m)]
        return State(db, right, left, self.build_system())

    # -- queries -------------------------------------------------------------

    @staticmethod
    def mode_query(state: State, mu: float) -> list:
        return [edm.interpolate_mode(b, mu) for b in state.right + state.left]

    @staticmethod
    def direct_query(state: State, mu: float) -> list:
        db = state.db
        out = [edm.direct_interpolate(db, i, mu) for i in range(len(state.right))]
        if state.left:
            out += [
                edm.interpolate_columns(db.mus, db.left_block(i), mu)
                for i in range(len(state.left))
            ]
        return out

    @staticmethod
    def build_rom(state: State, mu: float) -> rom.Rom:
        xbar = None if state.system is None else systems.equilibrium(state.system, mu)
        return rom.build_rom_interpolated(
            state.db, mu, len(state.right), strategy="edm", edm_bases=state.right,
            left_edm_bases=state.left or None, equilibrium=xbar,
        )

    @classmethod
    def rom_query(cls, state: State, mu: float) -> rom.Trajectory:
        return rom.simulate_rom(cls.build_rom(state, mu), state.x0, state.times)

    # -- independent references for query outputs ----------------------------

    @staticmethod
    def mode_reference(state: State, mu: float) -> list:
        """mean + EDMs @ coefficients linearly interpolated by np.interp."""
        out = []
        for b in state.right + state.left:
            coeff = np.array([np.interp(mu, b.sample_mus, row) for row in b.coefficients])
            out.append(b.mean_mode + b.edms @ coeff)
        return out

    @staticmethod
    def direct_reference(state: State, mu: float) -> list:
        """Two-point linear blend of the stored samples around mu."""
        mus = state.db.mus
        k = min(int(np.searchsorted(mus, mu, side="right")) - 1, mus.size - 2)
        w = (mu - mus[k]) / (mus[k + 1] - mus[k])
        a, b = state.db.samples[k], state.db.samples[k + 1]
        out = [(1 - w) * a.right_modes[:, i] + w * b.right_modes[:, i] for i in range(len(state.right))]
        if state.left:
            out += [(1 - w) * a.left_modes[:, i] + w * b.left_modes[:, i] for i in range(len(state.left))]
        return out

    # -- CLI pipeline ----------------------------------------------------------

    def run_cli(self, work: Path, state: State) -> list[tuple[str, float, int, str, list]]:
        """Run the README-style pipeline in-process: (step, seconds, exit code, output, argv) per step."""
        steps = []
        for step, argv in self.cli_commands(work, state):
            sink = stdio.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            steps.append((step, time.perf_counter() - start, code, sink.getvalue().strip(), argv))
        return steps


class RodSweep(Workload):
    """Real, self-adjoint heat rod with a diagonal mass matrix; dense eigensolves dominate."""

    name = "rod-sweep"
    queries_per_rom = 4
    offline_reps = 3  # ~2.5 s each
    cli_reps = 15  # the CSV-bound query step varies most here
    extra_validation_x0 = 0  # x0 is the fixed equilibrium at mu=90
    mode_error_bound = 0.05
    rom_error_bound = 1e-4

    def configure(self):
        self.n = 40 if self.tiny else 800
        self.sample_mus = np.linspace(0.0, 28.0, 6 if self.tiny else 12)
        if self.tiny:  # 6 samples instead of 12: coarser interpolation
            self.mode_error_bound = 0.2

    def validation_intervals(self):
        # every fifth interval, the first (largest error) included: each
        # mode_at call is a full n=800 eigensolve
        return np.arange(0, self.sample_mus.size - 1, 1 if self.tiny else 5)

    def build_system(self):
        return systems.heat_rod(self.n, h_left=1.0, t_ambient=293.0, heat_source=5.0)

    def initial_state(self, state):
        return systems.equilibrium(state.system, 90.0)

    def cli_commands(self, work, state):
        n, grid = ("30", "0:28:5") if self.tiny else ("200", "0:28:8")
        db, basis = str(work / "db"), str(work / "edm1")
        return [
            ("generate", ["generate", "heat-rod", "--n", n, "--mu-grid", grid,
                          "--t-ambient", "293", "--heat-source", "5", "--out", db]),
            ("edm", ["edm", "--db", db, "--mode", "1", "--energy", "0.999", "--out", basis]),
            ("query", ["rom", "--db", db, "--mu", "15", "--strategy", "edm", "--rank", "2",
                       "--x0-mu", "90", "--out", str(work / "traj.csv")]),
        ]


class ChainQuery(Workload):
    """Complex, non-self-adjoint spring chain with left modes and crossings; per-call overhead dominates."""

    name = "chain-query"
    mode_error_bound = 1.4  # below sqrt(2): the mode keeps a positive overlap with the truth
    rom_error_bound = 1.0

    def configure(self):
        self.n_mass = 8 if self.tiny else 24
        self.sample_mus = np.linspace(0.5, self.n_mass - 0.5, 15 if self.tiny else 49)

    def rank_args(self):
        return {"rank": 3}

    def build_system(self):
        return systems.first_order_form(systems.spring_chain_with_defect(self.n_mass, mass=2.0))

    def time_grid(self, state):
        # purely oscillatory spectrum: no decay-based default horizon
        return np.linspace(0.0, 50.0, 1001)

    def cli_commands(self, work, state):
        db, basis = str(work / "db"), str(work / "edm1")
        x0 = work / "x0.npy"
        np.save(x0, state.x0)
        lo, hi, p = self.sample_mus[0], self.sample_mus[-1], self.sample_mus.size
        return [
            ("generate", ["generate", "spring-chain", "--n-mass", str(self.n_mass), "--mass", "2.0",
                          "--mu-grid", f"{lo}:{hi}:{p}", "--m", str(self.m), "--out", db]),
            ("edm", ["edm", "--db", db, "--mode", "1", "--rank", "3", "--out", basis]),
            ("query", ["rom", "--db", db, "--mu", f"{0.5 * (lo + hi) + 0.2}", "--strategy", "edm",
                       "--rank", "3", "--x0-npy", str(x0), "--horizon", "50",
                       "--out", str(work / "traj.csv")]),
        ]


class WideQuery(Workload):
    """Large-n synthetic database with identity mass: io, SVD and memory-bound queries."""

    name = "wide-query"
    mode_error_bound = 0.2
    rom_error_bound = 0.05
    # the synthetic family is part of the workload, like the rod's physics:
    # drawing it from the run seed made the accuracy metrics spread ~40%
    synthetic_seed = 0
    extra_validation_x0 = 15  # cheap references; the median needs many

    def configure(self):
        self.n = 2000 if self.tiny else 20000
        self.sample_mus = np.linspace(0.0, 1.0, 8)

    def rank_args(self):
        return {"rank": 2}

    def generate(self):
        db = modal.synthetic_wide_database(self.n, self.sample_mus, self.m, seed=self.synthetic_seed)
        # the generator pre-marks its output paired and aligned; the offline
        # build re-runs both passes so offline_s covers them on every workload
        return dataclasses.replace(db, paired=False, aligned=False)

    def time_grid(self, state):
        # 21 instants: lifting a 20000 x nt complex block is memory-bound, and
        # with 51 instants the host's bandwidth swings spread this workload's
        # rom_query_p50_ms by 25% across runs
        return np.linspace(0.0, rom.default_horizon(state.db), 21)

    def truth_modes(self, state, mu):
        # the synthetic family evaluated at mu (t = mu on [0, 1]), signed like the
        # nearest stored sample as modal.mode_at does for real systems
        lo, hi = self.sample_mus[0], self.sample_mus[-1]
        exact = modal.synthetic_wide_database(self.n, [lo, mu, hi], self.m, seed=self.synthetic_seed)
        phi = exact.samples[1].right_modes
        nearest = state.db.samples[int(np.argmin(np.abs(state.db.mus - mu)))].right_modes
        return phi * np.where(np.sum(phi * nearest, axis=0) < 0, -1.0, 1.0)

    def reference_trajectory(self, state, mu, x0, truth):
        """Modal-truncation solution with the exact synthetic modes and eigenvalues at mu."""
        decay = np.exp(np.outer(state.db.samples[0].eigenvalues, state.times))  # constant in mu
        return rom.Trajectory(state.times, np.real(truth @ ((truth.T @ x0)[:, None] * decay)))

    def cli_commands(self, work, state):
        db, basis = str(work / "db"), str(work / "edm1")
        return [
            ("generate", ["generate", "synthetic-wide", "--n", str(self.n), "--mu-grid", "0:1:8",
                          "--m", str(self.m), "--seed", str(self.synthetic_seed), "--out", db]),
            ("edm", ["edm", "--db", db, "--mode", "1", "--rank", "2", "--out", basis]),
            # a synthetic database has no generator system, so the query step is interp
            ("query", ["interp", "--db", db, "--mode", "1", "--mu", "0.37", "--edm", basis,
                       "--out", str(work / "mode.csv")]),
        ]


WORKLOADS = {w.name: w for w in (RodSweep, ChainQuery, WideQuery)}
