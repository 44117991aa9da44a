"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Monte Carlo checks use pinned seeds and the stated
tolerances (3 sigma bands where the criterion is statistical).
"""
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from gauss_bubbles import (
    AffinePartition,
    IntegrationConfig,
    NoiseKernel,
    OptimizeConfig,
    PartitionCell,
    RoundCylinder,
    calibrate_offsets_to_volumes,
    clt_crosscheck,
    cylinder_closed_forms,
    discrete_noise_stability,
    divergence_identity_check,
    facet_perimeter,
    half_space_pair,
    mc_moments,
    mc_volumes,
    minimize_penalized_perimeter,
    minkowski_partition_perimeter,
    minkowski_perimeter,
    noise_stability_set,
    optimize_propeller,
    perimeter_from_noise_limit,
    perturb,
    propeller_partition,
    stability_margin,
    symmetric_scan,
    tail_perimeter_check,
)
from gauss_bubbles.montecarlo import MAX_CELL_MOMENT_NORM, sample_standard_normal

import oracles

PROPELLER_PERIMETER = 3.0 / (2.0 * math.sqrt(2.0 * math.pi))   # 0.598413...
PROPELLER_MOMENT = 9.0 / (8.0 * math.pi)                        # 0.358099...
GAMMA1_0 = 1.0 / math.sqrt(2.0 * math.pi)                       # 0.398942...
CONES4_MOMENT = (12.0 / math.pi) * (0.25 + math.asin(1.0 / 3.0) / (2.0 * math.pi)) ** 2


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def mc(d, samples=1_000_000, seed=7, chunk=125_000, antithetic=False):
    return IntegrationConfig(sample_count=samples, seed=seed, dimension=d,
                             chunk_size=chunk, antithetic=antithetic)


def test_criterion_01_propeller_perimeter():
    facet = facet_perimeter(propeller_partition(), mc(2))
    facet_err = abs(facet.total - PROPELLER_PERIMETER) / PROPELLER_PERIMETER
    collar = minkowski_partition_perimeter(
        propeller_partition(), [0.08, 0.04, 0.02], mc(2, antithetic=True))
    agree = abs(collar.estimate - facet.total) / facet.total
    report(1, facet_err <= 0.01 and agree <= 0.02,
           f"facet {facet.total:.6f} (rel err {facet_err:.4%}), "
           f"collar {collar.estimate:.6f} (gap {agree:.4%})")


def test_criterion_02_moment_functional_and_bound():
    mom = mc_moments(propeller_partition(), None, mc(2))
    rel = abs(mom.moment_functional - PROPELLER_MOMENT) / PROPELLER_MOMENT

    rng = np.random.default_rng(2024)
    worst = -np.inf
    all_bounded = True
    for trial in range(50):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(max(2, m - 1), 6))
        part = AffinePartition(rng.standard_normal((m, d)),
                               0.5 * rng.standard_normal(m), np.zeros(d))
        rep = mc_moments(part, None, mc(d, samples=100_000, seed=trial, chunk=25_000))
        slack = rep.moment_norms - (MAX_CELL_MOMENT_NORM + 3.0 * rep.moment_norm_stderr)
        worst = max(worst, float(slack.max()))
        all_bounded &= bool(np.all(slack <= 0.0))
    report(2, rel <= 0.01 and all_bounded,
           f"M {mom.moment_functional:.6f} (rel err {rel:.4%}); "
           f"50-partition norm-bound slack max {worst:.2e}")


def test_criterion_03_divergence_identity():
    half = divergence_identity_check(half_space_pair(2, 0.0), 1, mc(2))
    prop = divergence_identity_check(propeller_partition(), 0, mc(2))
    report(3, half.passed and prop.passed,
           f"half-space residual {half.residual:.2e} <= {3 * half.combined_stderr:.2e}; "
           f"propeller residual {prop.residual:.2e} <= {3 * prop.combined_stderr:.2e}")


def test_criterion_04_noise_stability_closed_form():
    cell = PartitionCell(half_space_pair(2, 0.0), 0)
    ok = True
    details = []
    for rho in (0.0, 0.5, 0.9):
        expected = oracles.bivariate_quadrant_probability(rho) if rho else 0.25
        sheppard = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert expected == pytest.approx(sheppard, abs=1e-8)
        stab, err = noise_stability_set(cell, rho, mc(2, seed=11))
        ok &= abs(stab - sheppard) <= 3.0 * err
        details.append(f"rho={rho}: {stab:.5f} vs {sheppard:.5f} (3sig {3 * err:.1e})")
    report(4, ok, "; ".join(details))


def test_criterion_05_perimeter_from_noise_limit():
    schedule = [0.95, 0.99, 0.995, 0.999]
    half = perimeter_from_noise_limit(
        PartitionCell(half_space_pair(2, 0.0), 0), schedule, mc(2, seed=13))
    half_err = abs(half.estimate - GAMMA1_0) / GAMMA1_0
    prop = perimeter_from_noise_limit(propeller_partition(), schedule, mc(2, seed=13))
    prop_err = abs(prop.estimate - PROPELLER_PERIMETER) / PROPELLER_PERIMETER
    report(5, half_err <= 0.05 and prop_err <= 0.07,
           f"half-space {half.estimate:.5f} (err {half_err:.3%}), "
           f"propeller {prop.estimate:.5f} (err {prop_err:.3%})")


def test_criterion_06_discrete_engine_exact():
    rng = np.random.default_rng(99)
    cases = [(m, n) for m in range(2, 10) for n in range(1, 7) if m**n <= 81]
    worst = 0.0
    for m, n in cases:
        g = rng.random((m,) * n)
        base = g / (g.max() * m)
        values = np.repeat(base[..., None], m, axis=-1)
        values[..., 0] += 1.0 - values.sum(axis=-1)
        from gauss_bubbles import DiscreteFunction
        f = DiscreteFunction(m=m, n=n, values=values)
        for rho in (0.0, 0.3, 0.7, 1.0):
            exact = discrete_noise_stability(f, rho).total
            brute = sum(oracles.brute_force_discrete_stability(f.coordinate(j), rho)
                        for j in range(m))
            worst = max(worst, abs(exact - brute))

    dictator_ok = True
    from gauss_bubbles import DiscreteFunction
    dictator = DiscreteFunction(m=2, n=1, values=np.eye(2))
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        got = discrete_noise_stability(dictator, rho).total
        dictator_ok &= abs(got - (1.0 + rho) / 2.0) <= 1e-13

    kernel_worst = 0.0
    for m in range(2, 10):
        for rho in (0.0, 0.3, 0.7, 1.0):
            rows = NoiseKernel(m=m, rho=rho).matrix.sum(axis=1)
            kernel_worst = max(kernel_worst, float(np.max(np.abs(rows - 1.0))))

    report(6, worst <= 1e-12 and dictator_ok and kernel_worst <= 1e-15,
           f"{len(cases)} table shapes vs brute force (max gap {worst:.1e}); "
           f"dictator closed form ok; kernel row defect {kernel_worst:.1e}")


def test_criterion_07_clt_crosscheck():
    result = clt_crosscheck(0.5, 1001, mc(1, seed=5))
    gap = abs(result.discrete - (0.5 + math.asin(0.5) / math.pi))
    report(7, gap <= 0.01,
           f"majority S_rho {result.discrete:.5f} vs arcsine value "
           f"{result.gaussian:.5f} (gap {gap:.5f})")


def test_criterion_08_optimizer():
    cfg = OptimizeConfig(m=3, d=2, target_volumes=(1 / 3, 1 / 3, 1 / 3), seed=1,
                         restarts=3, max_iters=120, search_samples=100_000,
                         final_samples=1_000_000)
    res = optimize_propeller(cfg)
    moment_err = abs(res.objective - PROPELLER_MOMENT) / PROPELLER_MOMENT
    ok_m3 = moment_err <= 0.01 and res.alignment_misalignment <= 0.02

    targets = (float(ndtr(1.0)), float(1.0 - ndtr(1.0)))
    cfg1 = OptimizeConfig(m=2, d=1, target_volumes=targets, seed=2, restarts=2,
                          max_iters=60, search_samples=100_000,
                          final_samples=1_000_000)
    res1 = minimize_penalized_perimeter(cfg1, 0.0)
    boundary = (res1.partition.offsets[1] - res1.partition.offsets[0]) / 2.0
    vols = mc_volumes(res1.partition, mc(1, seed=2, chunk=25_000)).volumes
    vol_gap = float(np.max(np.abs(vols - np.array(targets))))
    ok_m2 = abs(abs(boundary) - 1.0) <= 0.01 and vol_gap <= 2e-3

    report(8, ok_m3 and ok_m2,
           f"m=3: M* {res.objective:.6f} (err {moment_err:.4%}), "
           f"aligned symdiff {res.alignment_misalignment:.4f}; "
           f"m=2: threshold {boundary:+.4f}, volume gap {vol_gap:.1e}")


def test_criterion_08_four_cells():
    # Criterion 08's bounds on the m = 4, d = 3 optimizer: the winner is the
    # simplicial cone partition, whose M has a closed form.
    cfg = OptimizeConfig(m=4, d=3, target_volumes=(0.25,) * 4, seed=7, restarts=2,
                         max_iters=100, search_samples=50_000, final_samples=200_000)
    res = optimize_propeller(cfg)
    moment_err = abs(res.objective - CONES4_MOMENT) / CONES4_MOMENT
    report(8, moment_err <= 0.01 and res.alignment_misalignment <= 0.02,
           f"m=4: M* {res.objective:.6f} (err {moment_err:.4%}), "
           f"aligned symdiff {res.alignment_misalignment:.4f}")


def test_criterion_09_stability_margin_experiment():
    # Antithetic pairs: the reference facets pass through the origin, so
    # their in-plane fractions are exactly 1/2 per pair (zero variance), and
    # near-origin candidate facets shrink similarly. The tiny true margins
    # (rays from a slightly shifted apex cost O(|apex|^2)) need that.
    config = mc(2, samples=600_000, seed=3, chunk=75_000, antithetic=True)
    reference = propeller_partition()
    targets = (1 / 3, 1 / 3, 1 / 3)
    magnitudes = np.linspace(0.02, 0.2, 100)
    margins, stderrs = [], []
    for idx, magnitude in enumerate(magnitudes):
        candidate = calibrate_offsets_to_volumes(
            perturb(reference, float(magnitude), 1000 + idx), targets, config)
        cert = stability_margin(reference, candidate, 1e-3, None, config)
        margins.append(cert.margin)
        stderrs.append(cert.margin_stderr)
    margins = np.array(margins)
    stderrs = np.array(stderrs)
    all_above = bool(np.all(margins >= -3.0 * stderrs))
    median_margin = float(np.median(margins))
    median_err = float(np.median(stderrs))
    median_positive = median_margin > 3.0 * median_err
    report(9, all_above and median_positive,
           f"min margin {margins.min():.2e} (>= -3sig), median {median_margin:.4f} "
           f"> 3x median stderr {3 * median_err:.4f}")


def test_criterion_10_symmetric_scan():
    # closed forms against Monte Carlo
    cyl = RoundCylinder(k=1, r=1.0, ambient=3)
    perim, vol = cylinder_closed_forms(cyl)
    config = mc(3, samples=2_000_000, seed=15, antithetic=True)
    vol_mc = float(np.mean([cyl.contains(x).mean()
                            for x in sample_standard_normal(config)]))
    collar = minkowski_perimeter(cyl, [0.08, 0.04, 0.02], config)
    vol_err = abs(vol_mc - vol) / vol
    perim_err = abs(collar.estimate - perim) / perim

    # the k=0 slab boundary is two parallel hyperplanes, reachable by facets
    slab = AffinePartition(np.array([[0.0], [1.0], [-1.0]]),
                           np.array([0.0, -1.0, -1.0]), np.zeros(1))
    slab_perim = facet_perimeter(slab, mc(1, samples=100_000, seed=1, chunk=25_000))
    slab_closed, slab_vol = cylinder_closed_forms(RoundCylinder(k=0, r=1.0, ambient=1))
    slab_err = abs(slab_perim.total - slab_closed) / slab_closed
    slab_vol_mc = mc_volumes(slab, mc(1, seed=15, chunk=125_000)).volumes[0]
    slab_vol_err = abs(float(slab_vol_mc) - slab_vol) / slab_vol

    # minimizing k over a fine volume grid is a step function
    grid = np.linspace(0.5, 1.0, 52)[1:-1]
    best_k = [symmetric_scan(float(a), 4, "inside").best.k for a in grid]
    abandoned = set()
    previous = best_k[0]
    oscillations = 0
    for k in best_k[1:]:
        if k != previous:
            abandoned.add(previous)
            if k in abandoned:
                oscillations += 1
            previous = k
    ok = (vol_err <= 0.01 and perim_err <= 0.01 and slab_err <= 0.01
          and slab_vol_err <= 0.01 and oscillations == 0)
    report(10, ok,
           f"cylinder vol err {vol_err:.3%}, collar err {perim_err:.3%}, "
           f"slab facet err {slab_err:.3%}, vol err {slab_vol_err:.3%}; "
           f"argmin-k path {sorted(set(best_k), reverse=True)} with "
           f"{oscillations} oscillations")


def test_criterion_11_tail_decay():
    expected = oracles.propeller_tail_mass(2.0)
    assert expected == pytest.approx(0.02723, abs=5e-6)
    rep = tail_perimeter_check(propeller_partition(), 2.0, None, mc(2, seed=21))
    close = abs(rep.tail_mass - expected) <= 3.0 * rep.stderr
    report(11, close and rep.passed,
           f"tail {rep.tail_mass:.6f} vs {expected:.6f} "
           f"(3sig {3 * rep.stderr:.1e}); bound {rep.bound:.3f} holds "
           f"(alt 2m bound margin {rep.margin_alt:+.3f})")


def test_criterion_12_determinism_across_threads(tmp_path):
    import os
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "partition": "propeller3", "samples": 200_000, "seed": 4, "method": "both"}))
    spec2 = tmp_path / "spec2.json"
    spec2.write_text(json.dumps({
        "partition": "propeller3", "rho": 0.6, "samples": 200_000, "seed": 4}))
    snapshots = {}
    for threads in ("1", "4", "8"):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, GAUSS_BUBBLES_THREADS=threads)
        for args in (["perimeter", "--spec", str(spec)],
                     ["noise-stability", "--spec", str(spec2)]):
            proc = subprocess.run(
                [sys.executable, "-m", "gauss_bubbles.cli", *args,
                 "--out-dir", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        snapshots[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    identical = snapshots["1"] == snapshots["4"] == snapshots["8"]
    report(12, identical,
           f"{len(snapshots['1'])} report files byte-identical for threads 1/4/8")
