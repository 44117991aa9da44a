"""The four benchmark workloads: inputs from the seed, ops, and per-op checks.

An op is a short list of CLI invocations. Each invocation writes its report
files under the op's own directory, and the workload's check reads them back
and applies the acceptance suite's thresholds. The program sees only the
generated CLI arguments and partition JSON files.
"""
from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

PROPELLER_MOMENT = 9.0 / (8.0 * math.pi)

# Sizes per workload: "full" is what the benchmark measures, "smoke" runs
# every code path and check in well under a second per op.
SIZES = {
    "estimate": {
        "full": {"samples": "1e6", "collar_samples": "2.5e5", "partitions": 8},
        "smoke": {"samples": "2e4", "collar_samples": "2e4", "partitions": 2},
    },
    "certify": {
        "full": {"samples": "6e5", "chunk": "75000"},
        "smoke": {"samples": "6e4", "chunk": "7500"},
    },
    "optimize": {
        "full": {"restarts": "2", "max_iters": "40", "search_samples": "5e4", "samples": "2e5"},
        "smoke": {"restarts": "1", "max_iters": "8", "search_samples": "1e4", "samples": "2.5e4"},
    },
    "discrete": {
        "full": {"n": "11", "clt_samples": "1e6"},
        "smoke": {"n": "5", "clt_samples": "1e5"},
    },
}

# Ops per traced phase. A fixed op list makes the per-op counts repeat
# exactly between two traced runs at the same seed.
TRACE_OPS = {"estimate": 2, "certify": 12, "optimize": 1, "discrete": 12}


class OpFailure(Exception):
    """An op's output broke one of its checks."""


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(str(k) for k in (seed,) + key))


def _mc_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, input_dir: Path):
        self.seed = seed
        self.size = SIZES[self.name][size]

    def commands(self, index: int) -> list[tuple[str, list[str]]]:
        """(tag, argv) per CLI invocation of op ``index``."""
        raise NotImplementedError

    def check(self, index: int, out_dir: Path) -> dict:
        """Raise OpFailure on a bad output; return per-op facts for tracing."""
        raise NotImplementedError


class Estimate(Workload):
    """The four one-shot estimators on a perturbed cones4 partition (d=3)."""

    name = "estimate"

    def __init__(self, seed, size, input_dir):
        super().__init__(seed, size, input_dir)
        from gauss_bubbles.partitions import perturb, simplicial_cone_partition

        self.partitions = []
        for k in range(self.size["partitions"]):
            perturb_seed = _rng(seed, "partition", k).randrange(2**31)
            part = perturb(simplicial_cone_partition(4), 0.1, perturb_seed)
            path = input_dir / f"cones4_{k}.json"
            path.write_text(part.to_json(), encoding="utf-8")
            self.partitions.append(str(path))

    def commands(self, index):
        rng = _rng(self.seed, "op", index)
        part = self.partitions[index % len(self.partitions)]
        seed = _mc_seed(rng)
        s = self.size
        common = ["--partition", part, "--seed", seed]
        return [
            ("facet", ["perimeter", "--method", "facet", "--samples", s["samples"]] + common),
            ("collar", ["perimeter", "--method", "minkowski", "--samples",
                        s["collar_samples"], "--antithetic"] + common),
            ("penalty", ["penalty", "--samples", s["samples"]] + common),
            ("stability", ["noise-stability", "--rho", "0.9", "--samples", s["samples"]] + common),
        ]

    def check(self, index, out_dir):
        facet = read_summary(out_dir, "facet")
        collar = read_summary(out_dir, "collar")
        a, sa = facet["results"]["total"], facet["stderr"]["total"]
        b, sb = collar["results"]["minkowski_total"], collar["stderr"]["minkowski_total"]
        limit = 4.0 * math.hypot(sa, sb)
        if not abs(a - b) <= limit:
            raise OpFailure(f"facet {a:.6f} and collar {b:.6f} differ by more than "
                            f"4 combined sigma ({limit:.3g})")
        read_summary(out_dir, "penalty")
        volumes = [float(r["volume"]) for r in read_csv(out_dir, "penalty_moments")]
        if not abs(math.fsum(volumes) - 1.0) <= 1e-9:
            raise OpFailure(f"penalty volumes sum to {math.fsum(volumes)!r}")
        read_summary(out_dir, "stability")
        rows = read_csv(out_dir, "stability_stability")
        cells = [float(r["stability"]) for r in rows if r["cell"] != "total"]
        total = [float(r["stability"]) for r in rows if r["cell"] == "total"]
        if len(total) != 1 or not abs(math.fsum(cells) - total[0]) <= 1e-9:
            raise OpFailure(f"per-cell stabilities {math.fsum(cells)!r} != total {total}")
        return {}


class Certify(Workload):
    """stability-check of a calibrated perturbed propeller (criterion 09)."""

    name = "certify"

    def commands(self, index):
        rng = _rng(self.seed, "op", index)
        magnitude = f"{rng.uniform(0.02, 0.2):.6f}"
        perturb_seed = str(rng.randrange(1, 2**31))
        s = self.size
        return [("certify", [
            "stability-check", "--m", "3", "--perturb", magnitude,
            "--perturb-seed", perturb_seed, "--epsilon", "1e-3",
            "--samples", s["samples"], "--chunk", s["chunk"], "--antithetic",
            "--seed", _mc_seed(rng),
        ])]

    def check(self, index, out_dir):
        summary = read_summary(out_dir, "certify")
        res, err = summary["results"], summary["stderr"]
        # Criterion 09: every margin stays above -3 sigma, i.e. never "fail".
        if res["verdict"] == "fail" or not res["margin"] >= -3.0 * err["margin"]:
            raise OpFailure(f"margin {res['margin']:.3e} below -3 sigma "
                            f"({err['margin']:.3e}), verdict {res['verdict']}")
        return {}


class Optimize(Workload):
    """optimize-propeller on m=3, d=2 (criterion 08's bounds).

    Not listed in BENCHMARK.json: at these sizes the optimizer misses
    criterion 08's misalignment bound on about one op in six, so the
    workload's pass count, and with it ``ops_per_s``, varies from seed to
    seed. It runs by name, with every check, for the optimizer's layers.
    """

    name = "optimize"

    def commands(self, index):
        seed = _mc_seed(_rng(self.seed, "op", index))
        s = self.size
        return [("optimize", [
            "optimize-propeller", "--m", "3", "--d", "2", "--restarts", s["restarts"],
            "--max-iters", s["max_iters"], "--search-samples", s["search_samples"],
            "--samples", s["samples"], "--seed", seed,
        ])]

    def check(self, index, out_dir):
        res = read_summary(out_dir, "optimize")["results"]
        rel = abs(res["objective"] - PROPELLER_MOMENT) / PROPELLER_MOMENT
        # Criterion 08's bounds: M* within 1%, aligned misalignment at most 0.02.
        if not rel <= 0.01:
            raise OpFailure(f"M* relative error {rel:.4%} exceeds 1%")
        if not res["misalignment"] <= 0.02:
            raise OpFailure(f"misalignment {res['misalignment']:.4f} exceeds 0.02")
        rows = read_csv(out_dir, "optimize_trace")
        infeasible = sum(1 for r in rows if float(r["objective"]) >= 1e29)
        return {"evaluations": len(rows), "infeasible": infeasible}


class Discrete(Workload):
    """Exact plurality noise stability, then the binomial CLT cross-check."""

    name = "discrete"

    def commands(self, index):
        rng = _rng(self.seed, "op", index)
        rho = f"{rng.uniform(0.2, 0.8):.6f}"
        s = self.size
        return [
            ("discrete", ["discrete", "stability", "--m", "3", "--n", s["n"],
                          "--function", "plurality", "--rho", rho]),
            ("clt", ["clt-crosscheck", "--rho", rho, "--n", "1001",
                     "--samples", s["clt_samples"], "--seed", _mc_seed(rng)]),
        ]

    def check(self, index, out_dir):
        total = read_summary(out_dir, "discrete")["results"]["total"]
        per = [float(r["value"]) for r in read_csv(out_dir, "discrete_stability")]
        if not abs(math.fsum(per) - total) <= 1e-12:
            raise OpFailure(f"per-coordinate values sum to {math.fsum(per)!r}, total {total!r}")
        gap = read_summary(out_dir, "clt")["results"]["gap"]
        if not abs(gap) <= 0.01:  # criterion 07
            raise OpFailure(f"CLT gap {gap:.5f} exceeds 0.01")
        return {}


WORKLOADS = {w.name: w for w in (Estimate, Certify, Optimize, Discrete)}


def read_summary(out_dir: Path, tag: str) -> dict:
    """Load a summary and apply the checks every report shares."""
    summary = json.loads((out_dir / f"{tag}_summary.json").read_text(encoding="utf-8"))
    if summary.get("wall_time_s", "missing") is not None:
        raise OpFailure(f"{tag}: wall_time_s is {summary.get('wall_time_s')!r}, "
                        "report bodies must carry no timing")
    for section in ("results", "stderr"):
        for key, value in summary[section].items():
            # Reports write non-finite floats as their repr string.
            if value in ("nan", "inf", "-inf") or (
                    isinstance(value, float) and not math.isfinite(value)):
                raise OpFailure(f"{tag}: {section}.{key} = {value!r} is not finite")
    return summary


def read_csv(out_dir: Path, name: str) -> list[dict]:
    with (out_dir / f"{name}.csv").open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
