"""Benchmark of the gauss-bubbles CLI: one workload per invocation.

    python3 perfbench/run.py --workload <estimate|certify|optimize|discrete>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. Each workload runs in fresh processes that
import the library from ``src/``. With ``--trace 0`` three processes set up
(import, inputs, one warm-up op) and the last one then measures for
``--seconds``; the end-to-end metrics follow. With ``--trace 1`` one traced
process runs at the default thread count and one at
``GAUSS_BUBBLES_THREADS=1``, and the per-layer metrics follow, the second
set with a ``.threads1`` suffix. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every input comes from ``--seed``. Reports and spans go to ``.perfbench/``
in the checkout; the per-run report directory is removed afterwards.
``--smoke`` runs the same code paths, checks and tracer at tiny sizes.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ["estimate", "certify", "optimize", "discrete"]
SETUPS = 3  # set-up samples per run; setup_s is their median
DEADLINE_S = 170.0  # the whole invocation, every process included
THREADS_ENV_VAR = "GAUSS_BUBBLES_THREADS"


class ChildError(Exception):
    pass


def spawn(role: str, args, work_dir: Path, deadline: float, threads: str | None = None,
          untraced: bool = False) -> dict:
    """Run one workload process to completion and return its JSON line."""
    env = dict(os.environ)
    env.pop(THREADS_ENV_VAR, None)
    if threads is not None:
        env[THREADS_ENV_VAR] = threads
    cmd = [sys.executable, str(HERE / "child.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", "smoke" if args.smoke else "full",
           "--work-dir", str(work_dir), "--spawned-at", repr(time.monotonic())]
    if untraced:
        cmd.append("--untraced")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{role} process passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise ChildError(f"{role} process exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{role} process printed nothing")
    return json.loads(lines[-1])


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(args, work_dir: Path, deadline: float):
    results = [spawn("setup", args, work_dir, deadline) for _ in range(SETUPS - 1)]
    measured = spawn("measure", args, work_dir, deadline)
    results.append(measured)
    setups = [r["setup_s"] for r in results]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": measured["ops_per_s"], "unit": "ops/s"},
        "op_p50_s": {"value": measured["op_p50_s"], "unit": "s"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
    }
    notes = [f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}"]
    if "op_tail_s" in measured:
        notes.append(f"op_tail_s {measured['op_tail_s']:.6f} s "
                     f"(p{measured['op_tail_pct']:.1f} of {measured['ops']} ops)")
    else:
        notes.append(f"op_tail_s omitted: {measured['ops']} ops, fewer than 11")
    return results, metrics, notes


def per_layer(args, work_dir: Path, deadline: float):
    default = spawn("trace", args, work_dir, deadline, untraced=True)
    single = spawn("trace", args, work_dir, deadline, threads="1")
    metrics = dict(default["metrics"])
    for name, value in single["metrics"].items():
        metrics[f"{name}.threads1"] = value
    return [default, single], metrics, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gauss_bubbles" / "cli.py").is_file():
        print(f"error: no gauss_bubbles sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = per_layer if args.trace else end_to_end
        results, metrics, notes = run(args, work_dir, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    rec = dict(results[0]["record"], commit=commit(),
               threads_runs=[r["record"]["threads"] for r in results])
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("record " + json.dumps(rec, sort_keys=True))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        flag = "  absent" if m.get("absent") else ""
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{flag}")
    print(f"{'failed_ops':48s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for r in results:
        for reason in r["failures"]:
            print(f"failed {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
