"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from eigendeform.edm import (
    build_data_matrix,
    direct_interpolate,
    energy_fraction,
    extract_edm_basis,
    interpolate_columns,
    interpolate_mode,
    interpolation_error,
    select_rank,
)
from eigendeform.modal import (
    ModeDatabase,
    align_database,
    bump_database,
    database_from_modes,
    mode_at,
    pair_modes,
    sample_spectrum,
    synthetic_wide_database,
)
from eigendeform.rom import (
    benchmark_strategies,
    build_rom_at_sample,
    default_horizon,
    simulate_full,
    simulate_rom,
    trajectory_error,
)
from eigendeform.systems import (
    equilibrium,
    first_order_form,
    heat_rod,
    spring_chain_with_defect,
)


def verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


@pytest.fixture(scope="module")
def rod():
    return heat_rod(50, h_left=1.0, t_ambient=293.0, heat_source=5.0)


@pytest.fixture(scope="module")
def rod_db(rod):
    return align_database(pair_modes(sample_spectrum(rod, np.linspace(0.0, 28.0, 8), 6)))


def weighted_rank(db, i):
    _, data = build_data_matrix(db, i)
    weighted = db.mass_factor @ data
    s = np.linalg.svd(weighted, compute_uv=False)
    return int(np.sum(s > s[0] * max(weighted.shape) * np.finfo(float).eps))


def test_criterion_1_full_rank_equivalence(rod_db):
    start = time.perf_counter()
    grid = np.linspace(0.0, 28.0, 100)
    worst = 0.0
    for i in range(rod_db.m):
        basis = extract_edm_basis(rod_db, i, rank=weighted_rank(rod_db, i))
        for mu in grid:
            diff = interpolation_error(
                direct_interpolate(rod_db, i, mu),
                interpolate_mode(basis, mu),
                rod_db.mass_factor,
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    verdict(
        worst <= 1e-8 and elapsed < 10.0,
        f"criterion 1 full-rank equivalence (worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_error_curve_shape(rod, rod_db):
    i = 0
    grid = np.linspace(0.0, 28.0, 100)
    s = extract_edm_basis(rod_db, i, rank=0).singular_values
    r_full = weighted_rank(rod_db, i)
    r_sel = select_rank(s, 0.999)
    ranks = [0, 1, 2, 4, r_full]
    bases = {r: extract_edm_basis(rod_db, i, rank=r) for r in set(ranks + [r_sel])}

    sums = {r: 0.0 for r in bases}
    direct_sum = 0.0
    for mu in grid:
        truth = mode_at(rod, rod_db, i, mu)
        direct_sum += interpolation_error(
            truth, direct_interpolate(rod_db, i, mu), rod_db.mass_factor
        )
        for r, b in bases.items():
            sums[r] += interpolation_error(truth, interpolate_mode(b, mu), rod_db.mass_factor)
    mean = {r: v / grid.size for r, v in sums.items()}
    mean_direct = direct_sum / grid.size

    curve = [mean[r] for r in ranks]
    non_increasing = all(curve[j + 1] <= curve[j] * (1.0 + 1e-12) for j in range(len(curve) - 1))
    ratio = mean[r_sel] / mean_direct
    verdict(
        non_increasing and ratio <= 1.1,
        f"criterion 2 error-curve shape (ranks {ranks}, ratio at r={r_sel}: {ratio:.4f})",
    )


def test_criterion_3_traveling_wave_hardness(rod_db):
    bump = bump_database(50, 2.0, np.linspace(0.1, 0.9, 8))
    r_bump = select_rank(extract_edm_basis(bump, 0, rank=0).singular_values, 0.99)
    r_rod = max(
        select_rank(extract_edm_basis(rod_db, i, rank=0).singular_values, 0.99)
        for i in range(rod_db.m)
    )
    verdict(
        r_bump > r_rod,
        f"criterion 3 traveling-wave hardness (bump r99={r_bump} > heat-rod r99={r_rod})",
    )


def test_criterion_4_edm_mass_orthonormality(rod_db):
    chain = first_order_form(spring_chain_with_defect(12, k_defect=0.5))
    chain_db = align_database(pair_modes(sample_spectrum(chain, np.linspace(0.5, 11.5, 8), 6)))
    bump = bump_database(50, 2.0, np.linspace(0.1, 0.9, 8))

    worst = 0.0
    for db in (rod_db, chain_db, bump):
        E = db.mass_factor.mass().toarray()
        for i in range(min(db.m, 6)):
            basis = extract_edm_basis(db, i, energy=0.999)
            U = basis.edms
            gram = U.conj().T @ E @ U
            worst = max(worst, float(np.linalg.norm(gram - np.eye(basis.rank))))
    verdict(worst <= 1e-8, f"criterion 4 EDM mass-orthonormality (worst defect {worst:.2e})")


def test_criterion_5_alignment_suite():
    base_sys = heat_rod(20, h_left=1.0)
    base = align_database(pair_modes(sample_spectrum(base_sys, np.linspace(0.0, 28.0, 6), 4)))
    E = base.mass_factor.mass().toarray()
    F = base.mass_factor

    sign_ok = phase_ok = idem_ok = True
    thetas = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    for seed in range(100):
        rng = np.random.default_rng(seed)

        # sign corruption recovery and idempotence
        flips = np.array([rng.choice([-1.0, 1.0], size=base.m) for _ in range(base.p)]).T
        corrupted = ModeDatabase(base.mus, base.eigenvalues, base.right * flips, None, F, paired=True)
        fixed = align_database(corrupted)
        for i in range(base.m):
            for k in range(base.p - 1):
                a = fixed.samples[k].right_modes[:, i] @ E @ fixed.samples[k + 1].right_modes[:, i]
                sign_ok &= bool(a > 0)
        twice = align_database(fixed)
        for s1, s2 in zip(twice.samples, fixed.samples):
            idem_ok &= bool(np.max(np.abs(s1.right_modes - s2.right_modes)) <= 1e-14)

        # closed-form phase alignment beats a brute-force angle grid
        n = 20
        phi1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phik = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        db = database_from_modes(
            [0.0, 1.0], [phi1[:, None], phik[:, None]],
            mass=E, paired=True, normalize=True,
        )
        aligned = align_database(db)
        v1 = F @ aligned.samples[0].right_modes[:, 0]
        achieved = np.linalg.norm(F @ aligned.samples[1].right_modes[:, 0] - v1)
        w = F @ db.samples[1].right_modes[:, 0]
        grid_vals = np.linalg.norm(
            w[:, None] * np.exp(1j * thetas)[None, :] - v1[:, None], axis=0
        )
        phase_ok &= bool(achieved <= grid_vals.min() + 1e-6)
        twice_c = align_database(aligned)
        for s1, s2 in zip(twice_c.samples, aligned.samples):
            idem_ok &= bool(np.max(np.abs(s1.right_modes - s2.right_modes)) <= 1e-14)

    verdict(
        sign_ok and phase_ok and idem_ok,
        f"criterion 5 alignment suite over 100 seeds "
        f"(signs {sign_ok}, phases {phase_ok}, idempotence {idem_ok})",
    )


def test_criterion_6_rom_exactness_ladder(rod):
    db = align_database(pair_modes(sample_spectrum(rod, np.array([0.0, 14.0, 28.0]), rod.n)))
    mu = 14.0
    xbar = equilibrium(rod, mu)
    x0 = equilibrium(rod, 100.0)
    times = np.linspace(0.0, default_horizon(db), 1001)

    full_rom = build_rom_at_sample(db, mu, rod.n, xbar)
    _, full_err = trajectory_error(
        simulate_full(rod, mu, x0, times),
        simulate_rom(full_rom, x0, times),
        db.mass_factor,
    )

    m = 3
    coeffs = np.array([1.0, -0.5, 0.25])
    sample = db.samples[1]
    x0_sub = xbar + sample.right_modes[:, :m].real @ coeffs
    rom_m = build_rom_at_sample(db, mu, m, xbar)
    traj = simulate_rom(rom_m, x0_sub, times)
    exact = xbar[:, None] + sample.right_modes[:, :m].real @ (
        coeffs[:, None] * np.exp(np.outer(sample.eigenvalues[:m].real, times))
    )
    scale = np.max(np.abs(exact))
    sub_err = np.max(np.abs(traj.states - exact)) / scale

    verdict(
        full_err <= 1e-6 and sub_err <= 1e-8,
        f"criterion 6 ROM exactness ladder (full-order {full_err:.2e}, "
        f"invariant subspace {sub_err:.2e})",
    )


def test_criterion_7_strategy_ordering():
    start = time.perf_counter()
    sys_ = heat_rod(50, h_left=2.0, t_ambient=293.0, heat_source=5.0)
    training = np.linspace(0.0, 6.0, 4)
    db = align_database(pair_modes(sample_spectrum(sys_, training, 6)))
    bases = [extract_edm_basis(db, i, rank=2) for i in range(6)]
    grid = np.linspace(0.0, 6.0, 100)
    rows = benchmark_strategies(sys_, db, bases, grid, x0=18.0)

    by_mu: dict[float, dict[str, float]] = {}
    for r in rows:
        by_mu.setdefault(r["mu"], {})[r["strategy"]] = r["integrated_error"]
    off = [mu for mu in by_mu if np.min(np.abs(training - mu)) > 1e-9]
    good = 0
    for mu in off:
        e = by_mu[mu]
        ratio = max(e["direct"], e["edm"]) / min(e["direct"], e["edm"])
        if ratio <= 1.5 and e["direct"] < e["solution-interpolation"] and e["edm"] < e["solution-interpolation"]:
            good += 1
    frac = good / len(off)
    elapsed = time.perf_counter() - start
    verdict(
        frac >= 0.8 and elapsed < 60.0,
        f"criterion 7 strategy ordering ({good}/{len(off)} off-sample parameters, {elapsed:.1f}s)",
    )


def test_criterion_8_speedup_direction():
    db = synthetic_wide_database(20000, np.linspace(0.0, 1.0, 8), 6, seed=0)
    bases = [extract_edm_basis(db, i, rank=2) for i in range(6)]
    blocks = [db.right_block(i) for i in range(6)]  # views: nothing is copied per query
    mu = 0.37

    def median_seconds(query) -> float:
        query()  # warm up
        samples = []
        for _ in range(100):
            start = time.perf_counter()
            query()
            samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    direct = median_seconds(lambda: [interpolate_columns(db.mus, block, mu) for block in blocks])
    edm = median_seconds(lambda: [interpolate_mode(basis, mu) for basis in bases])
    verdict(
        edm < direct,
        f"criterion 8 speedup direction (edm {edm * 1e3:.3f} ms < "
        f"direct {direct * 1e3:.3f} ms per query)",
    )


def test_criterion_9_published_dataset_energies():
    root = os.environ.get("EIGENDEFORM_DATASET_DIR")
    if not root:
        print("SKIP: criterion 9 dataset ingestion (EIGENDEFORM_DATASET_DIR not set)")
        pytest.skip("published dataset not supplied")
    root = Path(root)
    battery, beam = root / "battery.npz", root / "beam.npz"
    if not (battery.is_file() and beam.is_file()):
        print("SKIP: criterion 9 dataset ingestion (battery.npz/beam.npz not found)")
        pytest.skip("published dataset incomplete")

    def ingest(path):
        payload = dict(np.load(path))
        db = database_from_modes(
            payload["mus"].ravel(),
            payload["modes"],
            eigenvalues=payload.get("eigenvalues"),
            mass=payload.get("mass"),
            paired=True,
            normalize=True,
        )
        return align_database(db)

    s_batt = extract_edm_basis(ingest(battery), 0, rank=0).singular_values
    batt_ok = (
        abs(energy_fraction(s_batt, 1) - 0.976) <= 0.005
        and abs(energy_fraction(s_batt, 2) - 0.999) <= 0.005
    )
    s_beam = extract_edm_basis(ingest(beam), 0, rank=0).singular_values
    expected = [0.593, 0.798, 0.880, 0.933, 0.966, 0.988]
    beam_ok = all(
        abs(energy_fraction(s_beam, r + 1) - val) <= 0.005 for r, val in enumerate(expected)
    )
    verdict(batt_ok and beam_ok, "criterion 9 published-dataset energy fractions")
