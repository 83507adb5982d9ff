import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigendeform
from eigendeform.cli import _write_csv, main
from eigendeform.io import load_database, load_edm_basis


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def dir_digest(path):
    digest = hashlib.sha256()
    for f in sorted(path.iterdir()):
        digest.update(f.name.encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def rod_db_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "db"
    code = run(
        "generate", "heat-rod", "--n", "30", "--mu-grid", "0:28:6", "--m", "4",
        "--t-ambient", "293", "--heat-source", "5", "--out", str(out),
    )
    assert code == 0
    return out


class TestGenerate:
    def test_heat_rod_database(self, rod_db_dir):
        db = load_database(rod_db_dir)
        assert (db.n, db.p, db.m) == (30, 6, 4)
        assert db.paired and db.aligned
        assert np.allclose(db.mus, np.linspace(0, 28, 6))

    def test_raw_skips_preparation(self, tmp_path):
        out = tmp_path / "raw"
        assert run("generate", "heat-rod", "--n", "12", "--mu-grid", "0:10:3",
                   "--m", "2", "--raw", "--out", str(out)) == 0
        db = load_database(out)
        assert not db.paired and not db.aligned

    def test_traveling_bump(self, tmp_path):
        out = tmp_path / "bump"
        assert run("generate", "traveling-bump", "--n", "40", "--width", "2",
                   "--mu-grid", "0.1:0.9:5", "--out", str(out)) == 0
        db = load_database(out)
        assert db.m == 1 and db.mass_factor.kind == "identity"

    def test_spring_chain(self, tmp_path):
        out = tmp_path / "chain"
        assert run("generate", "spring-chain", "--n-mass", "5", "--k-defect", "0.5",
                   "--mu-grid", "0.5:4.5:4", "--m", "3", "--out", str(out)) == 0
        db = load_database(out)
        assert db.is_complex and db.n == 10

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["generate", "heat-rod", "--n", "15", "--mu-grid", "0:20:4", "--m", "3"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_bad_grid_is_single_line_error(self, tmp_path, capsys):
        code = run("generate", "heat-rod", "--mu-grid", "0:28", "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_unknown_generator_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("generate", "nonsense", "--mu-grid", "0:1:2", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2


class TestDebugFlag:
    # without --debug: TestGenerate.test_bad_grid_is_single_line_error
    def test_debug_reraises(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="mu grid"):
            run("--debug", "generate", "heat-rod", "--mu-grid", "0:28", "--out", str(tmp_path / "x"))
        assert capsys.readouterr().err == ""

    def test_debug_prints_the_traceback(self, tmp_path):
        src = str(Path(eigendeform.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "eigendeform.cli", "--debug", "modes", "--db", str(tmp_path / "missing")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback (most recent call last):")
        assert "load_database" in proc.stderr


class TestPrepareCommands:
    def test_pair_then_align(self, tmp_path):
        raw = tmp_path / "raw"
        run("generate", "heat-rod", "--n", "12", "--mu-grid", "0:10:3", "--m", "2",
            "--raw", "--out", str(raw))
        paired = tmp_path / "paired"
        assert run("pair", "--db", str(raw), "--out", str(paired)) == 0
        aligned = tmp_path / "aligned"
        assert run("align", "--db", str(paired), "--out", str(aligned)) == 0
        db = load_database(aligned)
        assert db.paired and db.aligned

    def test_modes_summary_and_table(self, rod_db_dir, tmp_path, capsys):
        table = tmp_path / "eigs.csv"
        assert run("modes", "--db", str(rod_db_dir), "--out", str(table)) == 0
        out = capsys.readouterr().out
        assert "n=30" in out and "paired=True" in out
        header, rows = read_csv(table)
        assert header[0].startswith("mu") and len(rows) == 6 * 4


class TestEdmCommand:
    def test_writes_basis_with_selected_rank(self, rod_db_dir, tmp_path):
        out = tmp_path / "edm1"
        assert run("edm", "--db", str(rod_db_dir), "--mode", "1",
                   "--energy", "0.999", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rank"] >= 1 and manifest["energy_captured"] >= 0.999
        basis = load_edm_basis(out)
        assert basis.mode_index == 0

    def test_refuses_unprepared_database(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        run("generate", "heat-rod", "--n", "12", "--mu-grid", "0:10:3", "--m", "2",
            "--raw", "--out", str(raw))
        assert run("edm", "--db", str(raw), "--out", str(tmp_path / "e")) == 1
        assert "not prepared" in capsys.readouterr().err


class TestInterpAndRom:
    def test_interp_writes_vector(self, rod_db_dir, tmp_path):
        out = tmp_path / "mode.csv"
        assert run("interp", "--db", str(rod_db_dir), "--mode", "1", "--mu", "13.7",
                   "--strategy", "edm", "--rank", "2", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert len(rows) == 30 and header[0].startswith("index")

    def test_interp_can_reuse_saved_basis(self, rod_db_dir, tmp_path):
        basis_dir = tmp_path / "edm1"
        run("edm", "--db", str(rod_db_dir), "--mode", "1", "--out", str(basis_dir))
        out = tmp_path / "mode.csv"
        assert run("interp", "--db", str(rod_db_dir), "--mode", "1", "--mu", "9.0",
                   "--edm", str(basis_dir), "--out", str(out)) == 0

    @pytest.mark.parametrize("db_args, mode, message", [
        (None, "2", "holds mode 2, not --mode 1"),  # another chain of the same database
        (["--n", "12", "--mu-grid", "0:28:6"], "1", "has 12 rows, --db has n=30"),
        (["--n", "30", "--mu-grid", "0:28:5"], "1", "other sample parameters"),
    ])
    def test_interp_refuses_a_basis_of_another_chain_or_database(
        self, rod_db_dir, tmp_path, capsys, db_args, mode, message
    ):
        source = rod_db_dir
        if db_args is not None:
            source = tmp_path / "other"
            assert run("generate", "heat-rod", *db_args, "--m", "4", "--t-ambient", "293",
                       "--heat-source", "5", "--out", str(source)) == 0
        basis_dir = tmp_path / "edm"
        assert run("edm", "--db", str(source), "--mode", mode, "--out", str(basis_dir)) == 0
        out = tmp_path / "mode.csv"
        assert run("interp", "--db", str(rod_db_dir), "--mode", "1", "--mu", "9.0",
                   "--edm", str(basis_dir), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip()
        assert message in err and "\n" not in err
        assert not out.exists()

    def test_rom_trajectory(self, rod_db_dir, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("rom", "--db", str(rod_db_dir), "--mu", "14.0", "--strategy", "edm",
                   "--rank", "2", "--x0-mu", "100", "--steps", "50", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header[0].startswith("t") and len(rows) == 51
        assert len(header) == 31

    @pytest.mark.parametrize("argv", [
        ["rom", "--mu", "14.0", "--x0-mu", "100", "--steps", "10"],
        ["report", "benchmark", "--grid", "3", "--x0-mu", "100"],
    ])
    def test_zero_mode_count_is_refused(self, rod_db_dir, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run(*argv, "--db", str(rod_db_dir), "--m", "0", "--out", str(out)) == 1
        assert "mode count 0 out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_rom_solution_strategy(self, rod_db_dir, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("rom", "--db", str(rod_db_dir), "--mu", "3.0", "--strategy", "solution",
                   "--x0-mu", "100", "--steps", "20", "--out", str(out)) == 0

    def test_rom_accepts_npy_initial_state(self, rod_db_dir, tmp_path):
        x0 = tmp_path / "x0.npy"
        np.save(x0, 293.0 + np.linspace(0.0, 1.0, 30))
        out = tmp_path / "traj.csv"
        assert run("rom", "--db", str(rod_db_dir), "--mu", "14.0", "--strategy", "direct",
                   "--x0-npy", str(x0), "--steps", "10", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert len(rows) == 11

    def test_rom_edm_strategy_on_oscillatory_database(self, tmp_path):
        db_dir = tmp_path / "chain"
        run("generate", "spring-chain", "--n-mass", "6", "--k-defect", "0.5",
            "--mu-grid", "0.5:5.5:5", "--m", "3", "--out", str(db_dir))
        x0 = tmp_path / "x0.npy"
        np.save(x0, np.concatenate([np.linspace(0.1, 0.6, 6), np.zeros(6)]))
        out = tmp_path / "traj.csv"
        assert run("rom", "--db", str(db_dir), "--mu", "2.7", "--strategy", "edm",
                   "--rank", "3", "--x0-npy", str(x0), "--horizon", "10",
                   "--steps", "40", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert len(rows) == 41 and len(header) == 13


    def test_rom_without_horizon_refuses_an_undamped_database(self, tmp_path, capsys):
        db_dir = tmp_path / "chain"
        assert run("generate", "spring-chain", "--n-mass", "5", "--mu-grid", "0.5:4.5:4",
                   "--m", "3", "--out", str(db_dir)) == 0
        x0 = tmp_path / "x0.npy"
        np.save(x0, np.linspace(0.1, 1.0, 10))
        capsys.readouterr()
        out = tmp_path / "traj.csv"
        assert run("rom", "--db", str(db_dir), "--mu", "2.7", "--strategy", "direct",
                   "--x0-npy", str(x0), "--out", str(out)) == 1
        err = capsys.readouterr().err.strip()
        assert "needs a decaying spectrum" in err and "specify a horizon" in err and "\n" not in err
        assert not out.exists()

class TestReports:
    def test_error_sweep_structure(self, rod_db_dir, tmp_path):
        out = tmp_path / "errors.csv"
        assert run("report", "error-sweep", "--db", str(rod_db_dir), "--mode", "1",
                   "--grid", "11", "--ranks", "0,1,full", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["mu (parameter)", "r (modes)", "strategy", "error (relative)"]
        assert len(rows) == 11 * 4  # direct + three ranks per grid point
        strategies = {r[2] for r in rows}
        assert strategies == {"direct", "edm"}

    def test_benchmark_report(self, rod_db_dir, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("report", "benchmark", "--db", str(rod_db_dir), "--grid", "5",
                   "--rank", "2", "--x0-mu", "100", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert len(rows) == 15
        assert all(float(r[2]) >= 0 for r in rows)

    def test_benchmark_refuses_an_undamped_database(self, tmp_path, capsys):
        # the spring chain neither decays nor has a source: no horizon and a zero reference
        db_dir = tmp_path / "chain"
        assert run("generate", "spring-chain", "--n-mass", "5", "--mu-grid", "0.5:4.5:4",
                   "--m", "3", "--out", str(db_dir)) == 0
        capsys.readouterr()
        out = tmp_path / "bench.csv"
        assert run("report", "benchmark", "--db", str(db_dir), "--x0-mu", "1.0", "--grid", "3",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err.strip()
        assert "needs a decaying spectrum" in err and "\n" not in err
        assert not out.exists()

    def test_energy_report(self, rod_db_dir, tmp_path):
        out = tmp_path / "energy.csv"
        assert run("report", "energy", "--db", str(rod_db_dir), "--mode", "1",
                   "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert float(rows[-1][2]) == 1.0


    @pytest.mark.parametrize("argv", [
        ["error-sweep", "--grid", "11", "--ranks", "0,1,full"],
        ["benchmark", "--grid", "5", "--rank", "2", "--x0-mu", "100"],
        ["energy"],
    ])
    def test_identical_command_lines_give_identical_bytes(self, rod_db_dir, tmp_path, argv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("report", *argv, "--db", str(rod_db_dir), "--out", str(a)) == 0
        assert run("report", *argv, "--db", str(rod_db_dir), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestIngest:
    def test_npz_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        n, m, p = 9, 2, 4
        modes = rng.standard_normal((n, m, p))
        # dominant shared component keeps chains sign-consistent
        modes += 3.0 * np.tile(np.linspace(1, 2, n)[:, None, None], (1, m, p))
        src = tmp_path / "data.npz"
        np.savez(
            src,
            mus=np.linspace(0, 1, p),
            modes=modes,
            eigenvalues=-np.arange(1, m + 1, dtype=float)[:, None] * np.ones(p),
            mass=np.diag(np.linspace(1.0, 2.0, n)),
        )
        out = tmp_path / "db"
        assert run("ingest", "--src", str(src), "--paired", "--out", str(out)) == 0
        db = load_database(out)
        assert (db.n, db.m, db.p) == (n, m, p)
        assert db.paired and db.aligned
        E = db.mass_factor.mass().toarray()
        for s in db.samples:
            for i in range(m):
                phi = s.right_modes[:, i]
                assert abs(phi @ E @ phi - 1.0) <= 1e-10

    def test_missing_keys_listed(self, tmp_path, capsys):
        src = tmp_path / "bad.npz"
        np.savez(src, stuff=np.ones(3))
        assert run("ingest", "--src", str(src), "--out", str(tmp_path / "db")) == 1
        assert "modes" in capsys.readouterr().err


class TestEnvDefaultOut(object):
    def test_out_defaults_to_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EIGENDEFORM_OUT", str(tmp_path))
        assert run("generate", "heat-rod", "--n", "12", "--mu-grid", "0:10:3", "--m", "2") == 0
        assert (tmp_path / "db" / "manifest.json").is_file()


class TestWriteCsv:
    ROWS = [
        (0.5, 1, -2.25, 0.0),
        (1.0, 2, 1e-300, -3.5),
        (float("nan"), float("inf"), -float("inf"), -0.0),
        (5e-324, 1.7976931348623157e308, np.float64(0.1), np.float64(-2.5e-17)),
        (3.25, "", "edm", np.int64(7)),
    ]
    HEADER = ["mu (parameter)", "mode (1-based)", "re_lambda (1/time)", "im_lambda (1/time)"]

    def test_bytes_match_a_plain_csv_writer(self, tmp_path):
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER)
            writer.writerows(self.ROWS)
        _write_csv(tmp_path / "out" / "table.csv", self.HEADER, self.ROWS)
        assert (tmp_path / "out" / "table.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("field", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_field_that_needs_quoting_is_refused(self, tmp_path, field):
        with pytest.raises(ValueError, match="would need quoting"):
            _write_csv(tmp_path / "table.csv", self.HEADER, [*self.ROWS, (1.0, field, 2.0, 3.0)])
        assert not (tmp_path / "table.csv").exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        target.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            _write_csv(target, self.HEADER, self.ROWS)
        assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]
        assert target.read_bytes() == b"old"
