import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gauss_bubbles import CapacityError
from gauss_bubbles.cli import _cmd_discrete, main

import oracles

PROPELLER_PERIMETER = 3.0 / (2.0 * math.sqrt(2.0 * math.pi))
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd: Path, env_extra=None, preexec_fn=None):
    """Run ``python -m gauss_bubbles.cli`` in a child process inside ``cwd``.

    The child runs in ``cwd`` (a ``tmp_path``), where a relative ``PYTHONPATH``
    such as ``src`` no longer resolves and an uninstalled checkout cannot be
    imported. So the checkout's absolute ``src`` goes first on the child's
    ``PYTHONPATH``, ahead of any path already set, and the child imports the
    same source tree as the test process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gauss_bubbles.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, preexec_fn=preexec_fn,
    )


def test_cli_import_leaves_scipy_optimize_and_linalg_unloaded(tmp_path):
    # Only the optimizer, rotation alignment and sampled facets need them,
    # so they are imported where those run, not on every CLI start.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    code = ("import sys, gauss_bubbles.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestBasicCommands:
    def test_perimeter_propeller(self, tmp_path):
        code = main(["perimeter", "--partition", "propeller3", "--samples", "200000",
                     "--seed", "7", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "perimeter_summary.json").read_text())
        assert summary["command"] == "perimeter"
        assert summary["results"]["total"] == pytest.approx(PROPELLER_PERIMETER, rel=0.01)
        assert summary["wall_time_s"] is None
        csv_text = (tmp_path / "perimeter_facets.csv").read_text()
        assert csv_text.splitlines()[0] == "i,j,mass,stderr,method"
        assert len(csv_text.splitlines()) == 4  # header + three facets

    def test_discrete_stability_plurality(self, tmp_path):
        code = main(["discrete", "stability", "--m", "2", "--n", "3", "--rho", "0",
                     "--function", "plurality", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "discrete_summary.json").read_text())
        assert summary["results"]["total"] == pytest.approx(0.5, abs=1e-12)
        assert summary["results"]["exact"] is True

    @pytest.mark.parametrize("rho", ["0.2", "0.4321", "0.8"])
    def test_discrete_rows_sum_to_the_total(self, tmp_path, rho):
        # the discrete benchmark workload's own check, at its m = 3, n = 11
        code = main(["discrete", "stability", "--m", "3", "--n", "11", "--rho", rho,
                     "--function", "plurality", "--out-dir", str(tmp_path)])
        assert code == 0
        total = json.loads((tmp_path / "discrete_summary.json").read_text())["results"]["total"]
        with open(tmp_path / "discrete_stability.csv", newline="") as handle:
            rows = [float(row["value"]) for row in csv.DictReader(handle)]
        assert len(rows) == 3
        assert abs(math.fsum(rows) - total) <= 1e-12

    def test_symmetric_scan_table(self, tmp_path):
        code = main(["symmetric-scan", "--a", "0.39347", "--kmax", "3",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "symmetric-scan_scan.csv").read_text().splitlines()
        k1 = rows[2].split(",")
        assert float(k1[2]) == pytest.approx(1.0, abs=1e-4)
        assert float(k1[3]) == pytest.approx(0.60653, abs=1e-4)

    def test_clt_crosscheck(self, tmp_path):
        code = main(["clt-crosscheck", "--rho", "0.5", "--n", "101", "--samples",
                     "100000", "--seed", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "clt-crosscheck_summary.json").read_text())
        assert summary["results"]["gaussian"] == pytest.approx(2.0 / 3.0)

    def test_clt_crosscheck_ignores_sampling_flags(self, tmp_path):
        reports = []
        for sub, flags in (("a", ["--samples", "1e4", "--seed", "1"]),
                           ("b", ["--samples", "3e6", "--seed", "99", "--chunk", "50000"])):
            assert main(["clt-crosscheck", "--rho", "0.5", "--n", "1001", *flags,
                         "--out-dir", str(tmp_path / sub)]) == 0
            reports.append(read_report(tmp_path / sub, "clt-crosscheck"))
        (first, files_a), (second, files_b) = reports
        # The summaries echo their specs; everything else is identical.
        assert first["spec"] != second["spec"]
        assert (first["results"], first["stderr"]) == (second["results"], second["stderr"])
        assert first["results"]["discrete"] == 0.666758508933198
        assert first["stderr"] == {"discrete": 0.0}
        assert files_a["clt-crosscheck_crosscheck.csv"] == files_b["clt-crosscheck_crosscheck.csv"]

    def test_penalty_and_noise_stability(self, tmp_path):
        assert main(["penalty", "--partition", "propeller3", "--samples", "200000",
                     "--seed", "5", "--out-dir", str(tmp_path), "--tag", "pen"]) == 0
        pen = json.loads((tmp_path / "pen_summary.json").read_text())
        assert pen["results"]["moment_functional"] == pytest.approx(
            9.0 / (8.0 * math.pi), rel=1e-12)
        assert pen["results"]["penalty"] == pytest.approx(
            math.sqrt(math.pi / 2.0) * pen["results"]["moment_functional"], rel=1e-12)
        assert pen["stderr"] == {"moment_functional": 0.0, "penalty": 0.0}

        assert main(["noise-stability", "--partition", "halfspaces", "--rho", "0.5",
                     "--samples", "200000", "--seed", "5", "--out-dir", str(tmp_path),
                     "--tag", "ns"]) == 0
        ns = json.loads((tmp_path / "ns_summary.json").read_text())
        assert ns["results"]["total"] == pytest.approx(2.0 / 3.0, abs=0.01)


class TestErrorPaths:
    def test_unknown_command_is_usage_error(self, tmp_path):
        proc = run_cli(["frobnicate"], tmp_path)
        assert proc.returncode == 1
        assert "usage: gauss-bubbles" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_no_command_is_usage_error(self, tmp_path):
        proc = run_cli([], tmp_path)
        assert proc.returncode == 1
        assert "usage: gauss-bubbles" in proc.stderr

    def test_domain_error_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        code = main(["noise-stability", "--partition", "propeller3", "--rho", "1.5",
                     "--samples", "10000", "--seed", "1", "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()

    def test_capacity_error_exits_3(self, tmp_path):
        # plurality at rho < 0 on the dense table (4^13 words), and at rho >= 0
        # beyond the count types' guard (501501 types of 1000 votes, times 1000)
        for m, n, rho in (("4", "13", "-0.1"), ("3", "1000", "0.1")):
            out = tmp_path / f"out_{n}"
            code = main(["discrete", "stability", "--m", m, "--n", n, "--rho", rho,
                         "--function", "plurality", "--out-dir", str(out)])
            assert code == 3
            assert not out.exists()

    @pytest.mark.parametrize("function", ["plurality", "dictator"])
    def test_discrete_without_coordinates_exits_2(self, tmp_path, function):
        out = tmp_path / "out"
        code = main(["discrete", "stability", "--m", "2", "--n", "0", "--rho", "0.5",
                     "--function", function, "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()

    def test_plurality_beyond_the_table_runs_on_counts(self, tmp_path):
        # 4^13 words exceed the table's capacity; 560 count types do not.
        code = main(["discrete", "stability", "--m", "4", "--n", "13", "--rho", "0.1",
                     "--function", "plurality", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "discrete_summary.json").read_text())
        assert summary["results"]["exact"] is True
        assert summary["stderr"] == {"total": 0.0}

    def test_dictator_capacity_checked_before_the_table(self, tmp_path):
        # 2^24 words: the guard must fire before any table is built. The
        # child's address space is capped so that a regression ends in a
        # MemoryError instead of taking gigabytes.
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

        proc = run_cli(["discrete", "stability", "--m", "2", "--n", "24", "--rho", "0.5",
                        "--function", "dictator", "--out-dir", str(tmp_path / "out")],
                       tmp_path, preexec_fn=cap)
        assert proc.returncode == 3, proc.stderr
        assert "capacity" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("function", ["plurality", "dictator"])
    @pytest.mark.parametrize("m,n,rho", [("1000", "2", "-0.001"), ("3", "100000", "-0.1")])
    def test_oversized_table_exits_3_under_a_memory_cap(self, tmp_path, function, m, n, rho):
        # 1000^2 words fit DEFAULT_CAPACITY, but the table holds 1000^3 values;
        # 3^100001 has more digits than Python will print
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

        proc = run_cli(["discrete", "stability", "--m", m, "--n", n, "--rho", rho,
                        "--function", function, "--out-dir", str(tmp_path / "out")],
                       tmp_path, preexec_fn=cap)
        assert proc.returncode == 3, proc.stderr
        assert "capacity" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_one_chunk_of_forty_million_pairs_runs_under_a_memory_cap(self, tmp_path):
        # 40000001 is no multiple of the default chunk, so every pair is in
        # one chunk. Whole-chunk arrays of it (305 MiB a column) ended in a
        # MemoryError traceback under this cap; tiles fit in a few MiB.
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

        out = tmp_path / "out"
        proc = run_cli(["noise-stability", "--partition", "propeller3", "--rho", "0.5",
                        "--samples", "40000001", "--seed", "1", "--out-dir", str(out)],
                       tmp_path, preexec_fn=cap)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "noise-stability_summary.json").read_text())
        total, stderr = summary["results"]["total"], summary["stderr"]["total"]
        assert 0.0 < stderr < 1e-4
        assert abs(total - oracles.propeller_noise_stability(0.5)) <= 4.0 * stderr

    def test_dictator_guard_fires_before_allocation(self):
        # 2^23 words fit DEFAULT_CAPACITY, the 2^24 table values do not
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                _cmd_discrete({"m": 2, "n": 23, "rho": 0.5, "function": "dictator"})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_clt_capacity_error_exits_3(self, tmp_path):
        out = tmp_path / "out"
        # 10^7 + 1 Fourier levels exceed DEFAULT_CAPACITY
        code = main(["clt-crosscheck", "--rho", "0.5", "--n", "20000001", "--samples", "1e4",
                     "--seed", "1", "--out-dir", str(out)])
        assert code == 3
        assert not out.exists()

    def test_bad_partition_spec(self, tmp_path):
        code = main(["perimeter", "--partition", "dodecahedron", "--samples", "10000",
                     "--seed", "0", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x").exists()

    def test_spec_file_without_seed_rejected(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"partition": "propeller3", "samples": 10000}))
        code = main(["perimeter", "--spec", str(spec), "--out-dir", str(tmp_path / "y")])
        assert code == 2
        assert not (tmp_path / "y").exists()

    def test_null_numeric_spec_field_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"partition": "propeller3", "samples": None, "seed": 1}))
        proc = run_cli(["perimeter", "--spec", str(spec), "--out-dir", "out"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_collar_projector_cap_exits_3(self, tmp_path):
        proc = run_cli(["perimeter", "--method", "minkowski", "--partition", "cones16",
                        "--samples", "1000", "--seed", "1", "--out-dir", "out"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "projectors" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


class TestSpecFiles:
    def test_flags_override_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "partition": "propeller3", "samples": 100_000, "seed": 1}))
        out = tmp_path / "out"
        code = main(["perimeter", "--spec", str(spec), "--seed", "9",
                     "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "perimeter_summary.json").read_text())
        assert summary["spec"]["seed"] == 9

    def test_same_spec_twice_is_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "partition": "propeller3", "samples": 100_000, "seed": 4}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["perimeter", "--spec", str(spec), "--out-dir", str(out)]) == 0
            outs.append(out)
        for filename in ("perimeter_summary.json", "perimeter_facets.csv"):
            assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()

    def test_thread_count_does_not_change_reports(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "partition": "propeller3", "samples": 200_000, "seed": 4,
            "method": "both"}))
        contents = {}
        for threads in ("1", "4", "8"):
            out = tmp_path / f"t{threads}"
            proc = run_cli(["perimeter", "--spec", str(spec), "--out-dir", str(out)],
                           tmp_path, env_extra={"GAUSS_BUBBLES_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            contents[threads] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
        assert contents["1"] == contents["4"] == contents["8"]

    @pytest.mark.parametrize("command", [
        ["noise-stability", "--rho", "0.9"],
        ["perimeter", "--method", "minkowski", "--antithetic"],
    ], ids=["noise-stability", "minkowski-antithetic"])
    def test_sampled_passes_identical_across_thread_counts(self, tmp_path, command):
        from gauss_bubbles import perturb, simplicial_cone_partition

        partition = tmp_path / "cones4_perturbed.json"
        partition.write_text(perturb(simplicial_cone_partition(4), 0.1, 7).to_json())
        contents = {}
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}"
            proc = run_cli(command + ["--partition", str(partition), "--samples", "5e5",
                                      "--seed", "3", "--out-dir", str(out)],
                           tmp_path, env_extra={"GAUSS_BUBBLES_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            contents[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert contents["1"] == contents["2"] == contents["4"]
        assert contents["1"]

    def test_partition_files_named_like_builtins(self, tmp_path, monkeypatch):
        # only "cones<m>" names the built-in family; other names starting
        # with "cones" are partition files
        from gauss_bubbles import propeller_partition
        monkeypatch.chdir(tmp_path)
        for name in ("cones_mine.json", "cones4_0.json"):
            (tmp_path / name).write_text(propeller_partition().to_json())
        for token, facets in (("cones_mine.json", 3), ("cones4_0.json", 3), ("cones4", 6)):
            out = tmp_path / token.replace(".", "_")
            code = main(["perimeter", "--partition", token, "--samples", "10000",
                         "--seed", "1", "--out-dir", str(out)])
            assert code == 0, token
            rows = (out / "perimeter_facets.csv").read_text().splitlines()
            assert len(rows) == 1 + facets, token



def read_report(out: Path, tag: str):
    """(summary, {file name: bytes}) of one CLI run's report files."""
    summary = json.loads((out / f"{tag}_summary.json").read_text())
    return summary, {p.name: p.read_bytes() for p in sorted(out.glob(f"{tag}_*"))}


def penalty_cli(out: Path, partition: str, *flags, tag="penalty"):
    code = main(["penalty", "--partition", partition, *flags, "--out-dir", str(out),
                 "--tag", tag])
    assert code == 0
    return read_report(out, tag)


class TestExactPenalty:
    """``penalty`` evaluates volumes and moments exactly for m <= 4."""

    def test_cones4_closed_form(self, tmp_path):
        summary, _ = penalty_cli(tmp_path, "cones4", "--samples", "1e4", "--seed", "1")
        assert summary["results"]["moment_functional"] == pytest.approx(
            0.3532045528490168, rel=1e-12)
        assert summary["stderr"]["moment_functional"] == 0.0

    @pytest.mark.parametrize("partition", ["propeller3", "cones4"])
    def test_sampling_flags_do_not_change_results(self, tmp_path, partition):
        first, files_a = penalty_cli(tmp_path / "a", partition, "--samples", "1e4",
                                     "--seed", "1")
        second, files_b = penalty_cli(tmp_path / "b", partition, "--samples", "3e5",
                                      "--seed", "99", "--antithetic")
        # The summaries echo their specs; everything else is identical.
        assert first["spec"] != second["spec"]
        assert (first["results"], first["stderr"]) == (second["results"], second["stderr"])
        assert files_a["penalty_moments.csv"] == files_b["penalty_moments.csv"]

    def test_five_cells_stay_monte_carlo(self, tmp_path):
        summary, _ = penalty_cli(tmp_path, "cones5", "--samples", "2e5", "--seed", "1")
        assert summary["stderr"]["moment_functional"] > 0.0
        assert summary["stderr"]["penalty"] > 0.0

    @pytest.mark.parametrize("w", [None, "0.1,-0.05,0.2"])
    def test_perturbed_cones4_against_monte_carlo(self, tmp_path, w):
        from gauss_bubbles import IntegrationConfig, mc_moments, perturb, simplicial_cone_partition

        part = perturb(simplicial_cone_partition(4), 0.1, 17)
        path = tmp_path / "part.json"
        path.write_text(part.to_json())
        flags = ["--samples", "1e4", "--seed", "1"] + (["--w", w] if w else [])
        summary, _ = penalty_cli(tmp_path, str(path), *flags)
        with (tmp_path / "penalty_moments.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        volumes = np.array([float(r["volume"]) for r in rows])
        moments = np.array([[float(r[f"z{k}"]) for k in range(3)] for r in rows])
        shift = None if w is None else [float(v) for v in w.split(",")]
        mc = mc_moments(part, shift, IntegrationConfig(
            sample_count=1_000_000, seed=4, dimension=3, chunk_size=125_000))
        assert np.all(np.abs(volumes - mc.volumes) <= 4.0 * mc.volumes_stderr)
        assert np.all(np.abs(moments - mc.moments) <= 4.0 * mc.moments_stderr)
        assert abs(summary["results"]["moment_functional"] - mc.moment_functional) <= (
            4.0 * mc.moment_functional_stderr)

    def test_empty_cell_with_a_shift_exits_2(self, tmp_path):
        from gauss_bubbles import AffinePartition

        # Cell 0 beats cell 1 everywhere, so cell 1 is empty and w / a_1 is undefined.
        part = AffinePartition(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                               np.array([0.0, -1.0, 0.0]), np.zeros(2))
        path = tmp_path / "part.json"
        path.write_text(part.to_json())
        out = tmp_path / "out"
        code = main(["penalty", "--partition", str(path), "--w", "0.1,0", "--samples", "1e4",
                     "--seed", "1", "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()
        penalty_cli(tmp_path / "unshifted", str(path), "--samples", "1e4", "--seed", "1")


class TestParser:
    def test_main_calls_share_no_state(self, tmp_path):
        assert main(["perimeter", "--partition", "propeller3", "--samples", "1e4",
                     "--seed", "1", "--antithetic", "--tag", "a",
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["perimeter", "--partition", "propeller3", "--samples", "1e4",
                     "--seed", "1", "--out-dir", str(tmp_path)]) == 0
        first = json.loads((tmp_path / "a_summary.json").read_text())
        second = json.loads((tmp_path / "perimeter_summary.json").read_text())
        assert first["spec"]["antithetic"] is True
        assert "antithetic" not in second["spec"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a_facets.csv", "a_summary.json", "perimeter_facets.csv", "perimeter_summary.json"]


# Collar reports as the axis=1 reductions of the collar and of the cell
# distances gave them, before those became column folds: (partition,
# antithetic, minkowski_total, its stderr, SHA-256 of the collar table), at
# 2e5 samples and seed 3.
COLLAR_REPORTS = [
    ("cones4", False, 0.73647571428581, 0.009404980480512644,
     "833a64793c322ae7d6c84b357c9007a8f14fc4ecf892542a645c5a01c60a4bb9"),
    ("cones4", True, 0.7191757142858222, 0.00929655601338345,
     "aa9b83c549ab5c913b5478cc93af0f7fbd57d969b4d44d60d7256b5673e59204"),
    ("cones5", False, 0.822482857142844, 0.010005404666182351,
     "eb9aaf384705193698cda82feb5ef1d95ab09f3c109033da0ddf6f91b651cf99"),
    ("cones5", True, 0.8071100000000154, 0.009945885171697894,
     "686d5c41924948d53e78d3eebe871dc5d9ec99a04506ab4c96f45348ee8ac542"),
]


@pytest.mark.parametrize("partition,antithetic,total,stderr,digest", COLLAR_REPORTS)
def test_collar_reports_are_unchanged(tmp_path, partition, antithetic, total, stderr, digest):
    code = main(["perimeter", "--method", "minkowski", "--partition", partition,
                 "--samples", "2e5", "--seed", "3", "--out-dir", str(tmp_path)]
                + (["--antithetic"] if antithetic else []))
    assert code == 0
    summary = json.loads((tmp_path / "perimeter_summary.json").read_text())
    assert summary["results"]["minkowski_total"] == total
    assert summary["stderr"]["minkowski_total"] == stderr
    table = (tmp_path / "perimeter_collar.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == digest


# Certificates that read a false "fail" when calibration ran on Monte Carlo
# volumes: the case in ROADMAP.md and certify benchmark op 522 at seed 4242.
KNOWN_CERTIFY_OPS = [
    ["--perturb", "0.167196", "--perturb-seed", "638256888", "--seed", "570726918"],
    ["--perturb", "0.094535", "--perturb-seed", "326561175", "--seed", "868497812"],
]


class TestStabilityCheck:
    @pytest.mark.parametrize("op", KNOWN_CERTIFY_OPS)
    def test_known_ops_pass_deterministically(self, tmp_path, op):
        proc = run_cli(["stability-check", "--m", "3", "--epsilon", "1e-3", "--samples", "6e5",
                        "--chunk", "75000", "--antithetic", *op, "--out-dir", str(tmp_path)],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "stability-check_summary.json").read_text())
        assert summary["results"]["verdict"] == "pass"
        assert summary["results"]["margin"] > 0.0
        assert summary["stderr"]["margin"] == 0.0

    def test_four_cells_identical_across_thread_counts(self, tmp_path):
        contents = {}
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}"
            proc = run_cli(["stability-check", "--m", "4", "--perturb", "0.1",
                            "--perturb-seed", "12", "--samples", "1e5", "--seed", "3",
                            "--out-dir", str(out)],
                           tmp_path, env_extra={"GAUSS_BUBBLES_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            contents[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert contents["1"] == contents["2"] == contents["4"]
        summary = json.loads(contents["1"]["stability-check_summary.json"])
        assert summary["results"]["verdict"] == "pass"
        assert summary["stderr"]["margin"] == 0.0


def write_corpus_case(path: Path, name: str, spec: dict, expect: list):
    path.write_text(json.dumps({"name": name, "spec": spec, "expect": expect}))


class TestRegression:
    def test_empty_corpus_passes(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["regression", "--corpus", str(corpus)]) == 0

    def test_missing_corpus_is_usage_error(self, tmp_path):
        assert main(["regression", "--corpus", str(tmp_path / "nope")]) == 1

    def test_closed_form_perimeter_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus_case(
            corpus / "propeller.json", "propeller-facet",
            {"command": "perimeter", "partition": "propeller3",
             "samples": 200_000, "seed": 7},
            [{"key": "results.total", "value": PROPELLER_PERIMETER, "rtol": 0.01}])
        write_corpus_case(
            corpus / "halfspace.json", "halfspace-facet",
            {"command": "perimeter", "partition": "halfspaces",
             "samples": 100_000, "seed": 7},
            [{"key": "results.total", "value": 1.0 / math.sqrt(2 * math.pi),
              "atol": 1e-9}])
        write_corpus_case(
            corpus / "split.json", "split-at-one",
            {"command": "perimeter", "partition": "halfspace-split:1.0",
             "samples": 100_000, "seed": 7},
            [{"key": "results.total", "value": 0.24197072451914337, "atol": 1e-9}])
        assert main(["regression", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_wrong_expectation_fails_with_name(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus_case(
            corpus / "broken.json", "deliberately-wrong",
            {"command": "perimeter", "partition": "propeller3",
             "samples": 100_000, "seed": 7},
            [{"key": "results.total", "value": 1.0, "atol": 1e-3}])
        assert main(["regression", "--corpus", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "FAIL deliberately-wrong" in out

    def test_corpus_case_without_seed_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_corpus_case(
            corpus / "noseed.json", "no-seed",
            {"command": "perimeter", "partition": "propeller3", "samples": 100_000},
            [])
        assert main(["regression", "--corpus", str(corpus)]) == 1
        assert "must pin a seed" in capsys.readouterr().out

    def test_malformed_cases_fail_one_by_one(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        good = {"command": "perimeter", "partition": "halfspaces",
                "samples": 100_000, "seed": 7}
        exact = 1.0 / math.sqrt(2 * math.pi)
        (corpus / "a-invalid-json.json").write_text("{not json")
        (corpus / "b-no-spec.json").write_text(json.dumps({"name": "no-spec"}))
        write_corpus_case(corpus / "c.json", "no-command",
                          {"partition": "halfspaces", "samples": 100_000, "seed": 7}, [])
        write_corpus_case(corpus / "d.json", "no-samples",
                          {"command": "perimeter", "partition": "halfspaces", "seed": 7}, [])
        write_corpus_case(corpus / "e.json", "bad-key", good,
                          [{"key": "results.nope.deeper", "value": exact}])
        write_corpus_case(corpus / "f.json", "non-numeric", good,
                          [{"key": "results.total", "value": "about 0.4"}])
        write_corpus_case(corpus / "g.json", "good", good,
                          [{"key": "results.total", "value": exact, "atol": 1e-9}])
        assert main(["regression", "--corpus", str(corpus)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL ")]
        assert [line.split(":")[0] for line in fails] == [
            "FAIL a-invalid-json", "FAIL no-spec", "FAIL no-command",
            "FAIL no-samples", "FAIL bad-key", "FAIL non-numeric"]
        assert "'samples'" in fails[3]
        assert "PASS good" in lines
        assert lines[-1] == "regression: 1/7 cases passed"
