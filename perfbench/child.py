"""One workload process: set up, then either stop, measure, or trace.

Run by ``run.py`` in a fresh interpreter per role, so every process pays the
import of ``gauss_bubbles.cli`` the way a CLI user does. The last line of
standard output is a JSON object with the role's results.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, dump, summarize

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics: (name, unit). Names that come from one span also name
# that span in LAYER_SPANS, so an entry point that no longer exists is
# reported as absent.
LAYER_METRICS = [
    ("montecarlo.mc_mean.calls", "count"),
    ("montecarlo.mc_mean.samples", "count"),
    ("montecarlo.mc_mean.self_s", "s"),
    ("montecarlo.normals_per_s", "1/s"),
    ("montecarlo.threads", "count"),
    ("partitions.classify_points.rows", "count"),
    ("partitions.classify_points.self_s", "s"),
    ("partitions.cell_distance.rows", "count"),
    ("partitions.cell_distance.self_s", "s"),
    ("partitions.calibrate.calls", "count"),
    ("partitions.calibrate.self_s", "s"),
    ("partitions.calibrate.volume_evals_per_call", "count"),
    ("partitions.align_rotation.s", "s"),
    ("perimeter.facet_perimeter.calls", "count"),
    ("perimeter.facet_perimeter.self_s", "s"),
    ("perimeter.minkowski.s", "s"),
    ("special.calls", "count"),
    ("noise.noise_stability_partition.s", "s"),
    ("optimize.evaluations", "count"),
    ("optimize.infeasible_share", "ratio"),
    ("optimize.s_per_evaluation", "s"),
    ("optimize.stability_margin.s", "s"),
    ("discrete.noise_stability.s", "s"),
    ("discrete.apply_noise_kernel.bytes", "B"),
    ("discrete.plurality_function.s", "s"),
    ("discrete.clt_crosscheck.s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.report_bytes", "B"),
    ("cli.import_s", "s"),
]
# Recorded only by the default-thread run: the untraced phase runs there.
OVERHEAD_METRIC = ("trace.overhead_share", "ratio")
LAYER_SPANS = {
    "montecarlo.mc_mean": ["montecarlo.mc_mean.calls", "montecarlo.mc_mean.samples",
                           "montecarlo.mc_mean.self_s"],
    "partitions.classify_points": ["partitions.classify_points.rows",
                                   "partitions.classify_points.self_s"],
    "partitions.cell_distance": ["partitions.cell_distance.rows",
                                 "partitions.cell_distance.self_s"],
    "partitions.calibrate": ["partitions.calibrate.calls", "partitions.calibrate.self_s",
                             "partitions.calibrate.volume_evals_per_call"],
    "montecarlo.mc_volumes": ["partitions.calibrate.volume_evals_per_call"],
    "partitions.align_rotation": ["partitions.align_rotation.s"],
    "perimeter.facet_perimeter": ["perimeter.facet_perimeter.calls",
                                  "perimeter.facet_perimeter.self_s"],
    "perimeter.minkowski": ["perimeter.minkowski.s"],
    "special": ["special.calls"],
    "noise.noise_stability_partition": ["noise.noise_stability_partition.s"],
    "optimize.stability_margin": ["optimize.stability_margin.s"],
    "discrete.noise_stability": ["discrete.noise_stability.s"],
    "discrete.apply_noise_kernel": ["discrete.apply_noise_kernel.bytes"],
    "discrete.plurality_function": ["discrete.plurality_function.s"],
    "discrete.clt_crosscheck": ["discrete.clt_crosscheck.s"],
    "cli.main": ["cli.overhead_s"],
}

# 10^6 x 3 normals: Philox writes each uniform, the floor reads and writes
# it, ndtri reads it and writes the normal. Computed, not measured; the run
# record carries it as bytes_per_normal.
NORMALS_ROWS, NORMALS_COLS, NORMALS_BYTES_EACH = 1_000_000, 3, 5 * 8
# Slices of the timed loop; ops_per_s is their median.
BLOCKS = 5


class Session:
    """Inputs and op runner for one workload in this process."""

    def __init__(self, workload: str, seed: int, size: str, work_dir: Path):
        self.work_dir = work_dir
        input_dir = work_dir / "inputs"
        input_dir.mkdir(parents=True, exist_ok=True)
        self.workload = workloads.WORKLOADS[workload](seed, size, input_dir)
        self.failures: list[str] = []

    def run_op(self, index: int) -> dict:
        """Run and check one op; never raises for a failing op."""
        from gauss_bubbles import cli

        out_dir = self.work_dir / "op"
        shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = 0.0
        outcome = {"index": index, "ok": False, "seconds": 0.0, "report_bytes": 0}
        for tag, argv in self.workload.commands(index):
            log = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = cli.main(argv + ["--out-dir", str(out_dir), "--tag", tag])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an op boundary: record the traceback, go on
                code = "traceback: " + traceback.format_exc(limit=4).strip().replace("\n", " | ")
            elapsed += time.perf_counter() - start
            if code != 0:
                outcome["seconds"] = elapsed
                return self._fail(outcome, f"{tag} exited {code}: {log.getvalue().strip()[-300:]}")
        outcome["seconds"] = elapsed
        outcome["report_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        try:
            outcome.update(self.workload.check(index, out_dir))
        except (workloads.OpFailure, OSError, KeyError, ValueError, TypeError) as exc:
            return self._fail(outcome, f"check: {type(exc).__name__}: {exc}")
        outcome["ok"] = True
        return outcome

    def _fail(self, outcome: dict, reason: str) -> dict:
        self.failures.append(f"op {outcome['index']}: {reason}")
        return outcome


def setup(workload: str, seed: int, size: str, work_dir: Path, spawned_at: float):
    """Import the CLI, generate the inputs and run one untimed warm-up op."""
    start = time.perf_counter()
    import gauss_bubbles.cli  # noqa: F401

    import_s = time.perf_counter() - start
    session = Session(workload, seed, size, work_dir)
    warm = session.run_op(0)
    setup_s = time.monotonic() - spawned_at
    return session, warm, setup_s, import_s


def measure(session: Session, seconds: float) -> tuple[dict, list[dict]]:
    """Closed loop, one client: ops back to back until ``seconds`` pass.

    The loop runs as BLOCKS equal slices of at least one op each.
    ``ops_per_s`` is the median over the slices of passed ops per second,
    so a burst of load from other processes that spans one or two slices does
    not move it.
    """
    ops, rates = [], []
    start = time.perf_counter()
    for _ in range(BLOCKS):
        block, block_start = [], time.perf_counter()
        while not block or time.perf_counter() - block_start < seconds / BLOCKS:
            block.append(session.run_op(len(ops) + len(block) + 1))
        rates.append(sum(op["ok"] for op in block) / (time.perf_counter() - block_start))
        ops += block
    wall = time.perf_counter() - start
    latencies = sorted(op["seconds"] for op in ops)
    result = {
        "ops": len(ops),
        "passed": sum(op["ok"] for op in ops),
        "wall_s": wall,
        "ops_per_s": statistics.median(rates),
        "op_p50_s": statistics.median(latencies),
    }
    if len(ops) >= 11:
        # Highest percentile with at least 10 ops beyond it.
        rank = len(ops) - 10
        result["op_tail_s"] = latencies[rank - 1]
        result["op_tail_pct"] = 100.0 * rank / len(ops)
    return result, ops


def run_ops(session: Session, count: int, tracer: Tracer | None = None) -> list[dict]:
    ops = []
    for index in range(1, count + 1):
        if tracer is not None:
            tracer.op = index
        ops.append(session.run_op(index))
    return ops


def trace(session: Session, import_s: float, count: int, untraced: bool, spans_path: Path):
    """Per-layer metrics over a fixed op list, with the tracer installed."""
    from gauss_bubbles import montecarlo

    plain = run_ops(session, count) if untraced else None
    tracer = Tracer()
    tracer.install()
    try:
        ops = run_ops(session, count, tracer)
    finally:
        tracer.uninstall()
    dump(tracer.spans, spans_path)
    rows = summarize(tracer.spans)

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": {}, "children": {}})

    per_op = 1.0 / count
    evaluations = sum(op.get("evaluations", 0) for op in ops)
    calibrate = row("partitions.calibrate")
    normals_s = _time_normals(montecarlo)
    values = {
        "montecarlo.mc_mean.calls": row("montecarlo.mc_mean")["calls"] * per_op,
        "montecarlo.mc_mean.samples": row("montecarlo.mc_mean")["attrs"].get("samples", 0) * per_op,
        "montecarlo.mc_mean.self_s": (row("montecarlo.mc_mean")["self_s"]
                                      + row("montecarlo.chunk")["self_s"]) * per_op,
        "montecarlo.normals_per_s": NORMALS_ROWS * NORMALS_COLS / normals_s,
        "montecarlo.threads": montecarlo.thread_count(),
        "partitions.classify_points.rows": row("partitions.classify_points")["attrs"].get("rows", 0) * per_op,
        "partitions.classify_points.self_s": row("partitions.classify_points")["self_s"] * per_op,
        "partitions.cell_distance.rows": row("partitions.cell_distance")["attrs"].get("rows", 0) * per_op,
        "partitions.cell_distance.self_s": row("partitions.cell_distance")["self_s"] * per_op,
        "partitions.calibrate.calls": calibrate["calls"] * per_op,
        "partitions.calibrate.self_s": calibrate["self_s"] * per_op,
        "partitions.calibrate.volume_evals_per_call":
            calibrate["children"].get("montecarlo.mc_volumes", 0) / max(calibrate["calls"], 1),
        "partitions.align_rotation.s": row("partitions.align_rotation")["s"] * per_op,
        "perimeter.facet_perimeter.calls": row("perimeter.facet_perimeter")["calls"] * per_op,
        "perimeter.facet_perimeter.self_s": row("perimeter.facet_perimeter")["self_s"] * per_op,
        "perimeter.minkowski.s": row("perimeter.minkowski")["s"] * per_op,
        "special.calls": row("special")["calls"] * per_op,
        "noise.noise_stability_partition.s": row("noise.noise_stability_partition")["s"] * per_op,
        "optimize.evaluations": evaluations * per_op,
        "optimize.infeasible_share":
            sum(op.get("infeasible", 0) for op in ops) / max(evaluations, 1),
        "optimize.s_per_evaluation":
            sum(op["seconds"] for op in ops) / evaluations if evaluations else 0.0,
        "optimize.stability_margin.s": row("optimize.stability_margin")["s"] * per_op,
        "discrete.noise_stability.s": row("discrete.noise_stability")["s"] * per_op,
        "discrete.apply_noise_kernel.bytes":
            row("discrete.apply_noise_kernel")["attrs"].get("bytes", 0) * per_op,
        "discrete.plurality_function.s": row("discrete.plurality_function")["s"] * per_op,
        "discrete.clt_crosscheck.s": row("discrete.clt_crosscheck")["s"] * per_op,
        "cli.overhead_s": row("cli.main")["self_s"] * per_op,
        "cli.report_bytes": sum(op["report_bytes"] for op in ops) * per_op,
        "cli.import_s": import_s,
    }
    absent = sorted({m for span in tracer.absent for m in LAYER_SPANS.get(span, [])})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    for name in absent:
        metrics[name] = {"value": 0.0, "unit": metrics[name]["unit"], "absent": True}
    if plain is not None:
        traced_s = sum(op["seconds"] for op in ops)
        plain_s = sum(op["seconds"] for op in plain)
        name, unit = OVERHEAD_METRIC
        metrics[name] = {"value": traced_s / plain_s - 1.0, "unit": unit}
    checked = ops + (plain or [])
    return metrics, checked


def _time_normals(montecarlo) -> float:
    """Best of three direct draws of 10^6 x 3 standard normals."""
    cfg = montecarlo.IntegrationConfig(sample_count=NORMALS_ROWS, seed=1, dimension=NORMALS_COLS)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for block in montecarlo.sample_standard_normal(cfg):
            block.shape  # consume each block inside the timed region
        best = min(best, time.perf_counter() - start)
    return best


def record() -> dict:
    """Where and with what this run was measured."""
    import numpy
    import scipy
    from gauss_bubbles.montecarlo import thread_count

    return {
        "nproc": os.cpu_count(),
        "threads": thread_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bytes_per_normal": NORMALS_BYTES_EACH,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--untraced", action="store_true",
                        help="trace role: also run the op list untraced to measure overhead")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    work_dir = Path(args.work_dir)
    session, warm, setup_s, import_s = setup(
        args.workload, args.seed, args.size, work_dir, args.spawned_at)
    out = {"setup_s": setup_s, "import_s": import_s, "record": record()}
    checked = [warm]
    if args.role == "measure":
        result, ops = measure(session, args.seconds)
        out.update(result)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked += ops
    elif args.role == "trace":
        count = workloads.TRACE_OPS[args.workload] if args.size == "full" else 1
        spans_path = work_dir.parent / f"spans_{args.workload}_threads{out['record']['threads']}.jsonl"
        out["metrics"], ops = trace(session, import_s, count, args.untraced, spans_path)
        checked += ops
    out["attempted"] = len(checked)
    out["failed"] = sum(not op["ok"] for op in checked)
    out["failures"] = session.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
