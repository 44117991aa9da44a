"""Command-line harness: experiment specs, report files, and the regression
corpus runner.

Every subcommand resolves its spec (JSON file plus flags, flags winning),
validates it fully before any computation, runs one experiment, and writes
a JSON summary plus CSV detail files. Report bodies contain no timing or
timestamps, so the same spec always produces byte-identical files; the
elapsed time is printed to stdout instead (the summary's ``wall_time_s``
field is kept for schema compatibility but stored as null).

Exit codes: 0 success, 1 usage errors (and regression failures), 2
precondition/domain errors, 3 precision/capacity errors.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .discrete import (
    DEFAULT_CAPACITY,
    DiscreteFunction,
    check_table_capacity,
    clt_crosscheck,
    discrete_noise_stability,
    plurality_noise_stability,
)
from .errors import (
    CalibrationError,
    CapacityError,
    ConfigError,
    DomainError,
    GaussBubblesError,
    PrecisionError,
)
from .montecarlo import IntegrationConfig
from .noise import noise_stability_partition
from .optimize import (
    OptimizeConfig,
    minimize_penalized_perimeter,
    optimize_propeller,
    stability_margin,
)
from .partitions import (
    AffinePartition,
    calibrate_offsets_to_volumes,
    cell_moments,
    half_space_pair,
    perturb,
    simplicial_cone_partition,
)
from .perimeter import (
    facet_perimeter,
    minkowski_partition_perimeter,
    symmetric_scan,
)

USAGE_EXIT = 1
PRECONDITION_EXIT = 2
PRECISION_EXIT = 3

_PRECISION_ERRORS = (PrecisionError, CapacityError, CalibrationError)


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code on unknown commands/flags."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):  # before int: bool is an int subtype
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _resolve_partition(token: str, shift=None) -> AffinePartition:
    if token == "propeller3":
        return simplicial_cone_partition(3, shift)
    cones = re.fullmatch(r"cones(\d+)", token)
    if cones:
        return simplicial_cone_partition(int(cones.group(1)), shift)
    if token == "halfspaces":
        return half_space_pair(1, 0.0 if shift is None else float(shift[0]))
    if token.startswith("halfspace-split:"):
        return half_space_pair(1, float(token.split(":", 1)[1]))
    path = Path(token)
    if path.exists():
        return AffinePartition.from_json(path.read_text(encoding="utf-8"))
    raise ConfigError(
        f"unknown partition {token!r}; use propeller3, cones<m>, halfspaces, "
        "halfspace-split:<t>, or a JSON file path"
    )


def _integration_config(spec: dict) -> IntegrationConfig:
    samples = int(float(spec["samples"]))
    chunk = int(float(spec.get("chunk", 0)) or 0)
    if chunk <= 0:
        chunk = samples if samples < 125_000 or samples % 125_000 else 125_000
    return IntegrationConfig(
        sample_count=samples,
        seed=int(spec["seed"]),
        dimension=int(spec["dimension"]),
        chunk_size=chunk,
        antithetic=bool(spec.get("antithetic", False)),
    )


# ---------------------------------------------------------------------------
# command implementations: spec dict -> (results, stderrs, detail csv files)
# each detail file is (name, header, rows)


def _cmd_perimeter(spec: dict):
    shift = _parse_floats(spec["shift"]) if spec.get("shift") else None
    partition = _resolve_partition(spec["partition"], shift)
    spec["dimension"] = partition.d
    cfg = _integration_config(spec)
    method = spec.get("method", "facet")
    if method not in ("facet", "minkowski", "both"):
        raise ConfigError(f"unknown perimeter method {method!r}")

    results, errors = {}, {}
    details = []
    if method in ("facet", "both"):
        report = facet_perimeter(partition, cfg)
        results["total"] = report.total
        errors["total"] = report.total_stderr
        details.append(
            (
                "facets",
                ["i", "j", "mass", "stderr", "method"],
                [[i, j, mass, err, "facet"] for i, j, mass, err in report.rows()],
            )
        )
    if method in ("minkowski", "both"):
        schedule = _parse_floats(spec.get("eps_schedule", "0.1,0.05,0.025"))
        rep = minkowski_partition_perimeter(partition, schedule, cfg)
        results["minkowski_total"] = rep.estimate
        errors["minkowski_total"] = rep.stderr
        details.append(
            (
                "collar",
                ["cell", "epsilon", "value", "stderr"],
                [list(row) for row in rep.table],
            )
        )
    return results, errors, details


def _cmd_noise_stability(spec: dict):
    shift = _parse_floats(spec["shift"]) if spec.get("shift") else None
    partition = _resolve_partition(spec["partition"], shift)
    spec["dimension"] = partition.d
    cfg = _integration_config(spec)
    rho = float(spec["rho"])
    report = noise_stability_partition(partition, rho, cfg)
    results = {"total": report.total, "rho": rho}
    errors = {"total": report.total_stderr}
    rows = [
        [rho, str(i), float(report.per_cell[i]), float(report.per_cell_stderr[i])]
        for i in range(partition.m)
    ]
    rows.append([rho, "total", report.total, report.total_stderr])
    details = [("stability", ["rho", "cell", "stability", "stderr"], rows)]
    return results, errors, details


def _cmd_penalty(spec: dict):
    shift = _parse_floats(spec["shift"]) if spec.get("shift") else None
    partition = _resolve_partition(spec["partition"], shift)
    spec["dimension"] = partition.d
    cfg = _integration_config(spec)
    w = _parse_floats(spec["w"]) if spec.get("w") else None
    # Exact for m <= 4: the sampling flags are validated above but unused.
    report = cell_moments(partition, w, cfg)
    results = {
        "moment_functional": report.moment_functional,
        "penalty": report.penalty,
    }
    errors = {
        "moment_functional": report.moment_functional_stderr,
        "penalty": report.penalty_stderr,
    }
    rows = []
    for i in range(report.m):
        rows.append(
            [i, float(report.volumes[i]), float(report.volumes_stderr[i])]
            + [float(v) for v in report.moments[i]]
        )
    header = ["cell", "volume", "volume_stderr"] + [f"z{k}" for k in range(partition.d)]
    return results, errors, [("moments", header, rows)]


def _cmd_optimize_propeller(spec: dict):
    cfg = _optimize_config(spec)
    result = optimize_propeller(cfg)
    results = {
        "objective": result.objective,
        "misalignment": result.alignment_misalignment,
        "partition": result.partition.to_json_dict(),
        # internal values minimize -M; failed restarts report null
        "restart_values": [-v if abs(v) < 1e29 else None for v in result.restart_values],
    }
    errors = {"objective": result.objective_stderr}
    rows = [[n, v, r] for n, v, r in result.trace]
    return results, errors, [("trace", ["evaluation", "objective", "residual"], rows)]


def _cmd_minimize_penalized(spec: dict):
    cfg = _optimize_config(spec)
    eps = float(spec.get("epsilon", 0.0))
    result = minimize_penalized_perimeter(cfg, eps)
    results = {
        "objective": result.objective,
        "epsilon": eps,
        "misalignment": result.alignment_misalignment,
        "partition": result.partition.to_json_dict(),
    }
    errors = {"objective": result.objective_stderr}
    rows = [[n, v, r] for n, v, r in result.trace]
    return results, errors, [("trace", ["evaluation", "objective", "residual"], rows)]


def _optimize_config(spec: dict) -> OptimizeConfig:
    m = int(spec["m"])
    d = int(spec.get("d", m - 1))
    if spec.get("a"):
        a = _parse_floats(spec["a"])
        total = sum(a)
        a = tuple(v / total for v in a)
    else:
        a = tuple(1.0 / m for _ in range(m))
    return OptimizeConfig(
        m=m,
        d=d,
        target_volumes=a,
        seed=int(spec["seed"]),
        restarts=int(spec.get("restarts", 3)),
        max_iters=int(spec.get("max_iters", 150)),
        search_samples=int(float(spec.get("search_samples", 100_000))),
        final_samples=int(float(spec.get("samples", 1_000_000))),
    )


def _cmd_discrete(spec: dict):
    action = spec.get("action", "stability")
    if action != "stability":
        raise ConfigError(f"unknown discrete action {action!r}")
    m = int(spec["m"])
    n = int(spec["n"])
    rho = float(spec["rho"])
    name = spec.get("function", "plurality")
    if n < 1:
        raise DomainError(f"need at least 1 coordinate, got n={n}")
    if name == "plurality":
        result = plurality_noise_stability(m, n, rho)
    elif name == "dictator":
        check_table_capacity("dictator", m, n, DEFAULT_CAPACITY)
        values = np.zeros((m,) * n + (m,))
        first = np.indices((m,) * n, sparse=True)[0]
        for j in range(m):
            values[..., j] = (first == j).astype(float)
        result = discrete_noise_stability(DiscreteFunction(m=m, n=n, values=values), rho)
    elif name.startswith("csv:"):
        path = Path(name.split(":", 1)[1])
        f = DiscreteFunction.from_csv(path.read_text(encoding="utf-8"), m, n)
        result = discrete_noise_stability(f, rho)
    else:
        raise ConfigError(f"unknown discrete function {name!r}")
    results = {"total": result.total, "rho": rho, "exact": result.exact}
    errors = {"total": result.stderr}
    rows = [[j, float(result.per_coordinate[j])] for j in range(m)]
    return results, errors, [("stability", ["coordinate", "value"], rows)]


def _cmd_symmetric_scan(spec: dict):
    a = float(spec["a"])
    k_max = int(spec["kmax"])
    orientation = spec.get("orientation", "inside")
    result = symmetric_scan(a, k_max, orientation)
    results = {
        "best_k": result.best.k,
        "best_orientation": result.best.orientation,
        "best_r": result.best.r,
        "best_perimeter": result.best.perimeter,
    }
    rows = [
        [row.k, row.orientation, row.r, row.perimeter, row.feasible]
        for row in result.rows
    ]
    return results, {}, [("scan", ["k", "orientation", "r", "perimeter", "feasible"], rows)]


def _cmd_stability_check(spec: dict):
    m = int(spec.get("m", 3))
    reference = (
        AffinePartition.from_json(Path(spec["reference"]).read_text(encoding="utf-8"))
        if spec.get("reference")
        else simplicial_cone_partition(m)
    )
    spec["dimension"] = reference.d
    cfg = _integration_config(spec)
    eps = float(spec.get("epsilon", 1e-3))
    w = _parse_floats(spec["w"]) if spec.get("w") else None
    # Evaluated once, exact for m <= 4: a perturbed candidate is calibrated
    # to the reference's own volumes, and the certificate reuses them.
    mom_ref = cell_moments(reference, w, cfg)
    if spec.get("candidate"):
        candidate = AffinePartition.from_json(Path(spec["candidate"]).read_text(encoding="utf-8"))
    else:
        magnitude = float(spec.get("perturb", 0.05))
        candidate = perturb(reference, magnitude, int(spec.get("perturb_seed", 1)))
        candidate = calibrate_offsets_to_volumes(candidate, mom_ref.volumes, cfg)
    cert = stability_margin(reference, candidate, eps, w, cfg, mom_ref)
    results = {
        "margin": cert.margin,
        "verdict": cert.verdict,
        "p_reference": cert.p_reference,
        "p_candidate": cert.p_candidate,
        "m_reference": cert.m_reference,
        "m_candidate": cert.m_candidate,
        "epsilon": eps,
    }
    errors = {"margin": cert.margin_stderr}
    rows = [[
        cert.p_reference, cert.p_candidate, cert.m_reference, cert.m_candidate,
        cert.margin, cert.margin_stderr, cert.verdict,
    ]]
    header = ["p_reference", "p_candidate", "m_reference", "m_candidate", "margin", "margin_stderr", "verdict"]
    return results, errors, [("certificate", header, rows)]


def _cmd_clt_crosscheck(spec: dict):
    spec["dimension"] = 1
    # The sum draws no sample, so --samples is optional; the sampling flags
    # that are given are checked as those of a run of 10^6 samples.
    cfg = _integration_config({"samples": 1_000_000, **spec})
    rho = float(spec["rho"])
    n = int(spec["n"])
    result = clt_crosscheck(rho, n, cfg)
    results = {
        "discrete": result.discrete,
        "gaussian": result.gaussian,
        "gap": result.gap,
        "rho": rho,
        "n": n,
    }
    errors = {"discrete": result.discrete_stderr}
    rows = [[rho, n, result.discrete, result.discrete_stderr, result.gaussian, result.gap]]
    header = ["rho", "n", "discrete", "stderr", "gaussian", "gap"]
    return results, errors, [("crosscheck", header, rows)]


_COMMANDS = {
    "perimeter": _cmd_perimeter,
    "noise-stability": _cmd_noise_stability,
    "penalty": _cmd_penalty,
    "optimize-propeller": _cmd_optimize_propeller,
    "minimize-penalized": _cmd_minimize_penalized,
    "discrete": _cmd_discrete,
    "symmetric-scan": _cmd_symmetric_scan,
    "stability-check": _cmd_stability_check,
    "clt-crosscheck": _cmd_clt_crosscheck,
}


def _write_reports(out_dir: Path, tag: str, command: str, spec: dict, results, errors, details):
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "command": command,
        "spec": _jsonable(spec),
        "results": _jsonable(results),
        "stderr": _jsonable(errors),
        "wall_time_s": None,  # kept out of the body so reports are reproducible
    }
    summary_path = out_dir / f"{tag}_summary.json"
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written = [summary_path]
    for name, header, rows in details:
        path = out_dir / f"{tag}_{name}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(v) for v in row])
        written.append(path)
    return written


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _run_regression(corpus: Path) -> int:
    if not corpus.is_dir():
        print(f"error: regression corpus {corpus} is not a directory", file=sys.stderr)
        return USAGE_EXIT
    cases = sorted(corpus.glob("*.json"))
    failures = 0
    for case_path in cases:
        name, problems = _regression_case(case_path)
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        if problems:
            failures += 1
        else:
            print(f"PASS {name}")
    print(f"regression: {len(cases) - failures}/{len(cases)} cases passed")
    return 0 if failures == 0 else USAGE_EXIT


def _regression_case(case_path: Path) -> tuple[str, list[str]]:
    """Run one corpus case: its name and its failures (none means it passed).

    A malformed case (bad JSON, missing fields, a bad expectation) is a
    failure of that case only, so the rest of the corpus still runs.
    """
    name = case_path.stem
    try:
        case = json.loads(case_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return name, [f"unreadable case file: {exc}"]
    if not isinstance(case, dict):
        return name, ["a case must be a JSON object"]
    name = case.get("name", name)
    spec = case.get("spec")
    if not isinstance(spec, dict) or "command" not in spec:
        return name, ["a case needs a spec object with a command"]
    spec = dict(spec)
    command = spec.pop("command")
    if command not in _COMMANDS:
        return name, [f"unknown command {command!r}"]
    if "seed" not in spec and command not in ("symmetric-scan",):
        return name, ["archived specs must pin a seed"]
    try:
        results, errors, _ = _COMMANDS[command](spec)
    except GaussBubblesError as exc:
        return name, [str(exc)]
    except KeyError as exc:
        return name, [f"spec is missing {exc}"]
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        return name, [f"bad spec: {exc}"]
    flat = {"results": results, "stderr": errors}
    problems = []
    for expect in case.get("expect", []):
        try:
            key = expect["key"]
            value = flat
            for part in key.split("."):
                value = value[part]
            value = float(value)
            target = float(expect["value"])
            tol = float(expect.get("atol", 0.0)) + float(expect.get("rtol", 0.0)) * abs(target)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"bad expectation {expect!r}: {type(exc).__name__}: {exc}")
            continue
        if not abs(value - target) <= tol:
            problems.append(f"{key} = {value:.6g}, expected {target:.6g} within {tol:.3g}")
    return name, problems


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built once per process: ``parse_args`` returns a new
    namespace on every call and leaves the parser unchanged."""
    parser = _Parser(prog="gauss-bubbles", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def add(name, **flags):
        p = sub.add_parser(name)
        p.add_argument("--spec", default=None, help="JSON spec file; flags override it")
        p.add_argument("--out-dir", default=".")
        p.add_argument("--tag", default=None, help="output file prefix (default: command)")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        return p

    mc_flags = {
        "--samples": {"default": None},
        "--seed": {"default": None},
        "--chunk": {"default": None},
        "--antithetic": {"action": "store_true", "default": None},
    }
    add(
        "perimeter",
        **{"--partition": {"default": None}, "--shift": {"default": None},
           "--method": {"default": None}, "--eps-schedule": {"default": None, "dest": "eps_schedule"}},
        **mc_flags,
    )
    add(
        "noise-stability",
        **{"--partition": {"default": None}, "--shift": {"default": None}, "--rho": {"default": None}},
        **mc_flags,
    )
    add(
        "penalty",
        **{"--partition": {"default": None}, "--shift": {"default": None}, "--w": {"default": None}},
        **mc_flags,
    )
    add(
        "optimize-propeller",
        **{"--m": {"default": None}, "--d": {"default": None}, "--a": {"default": None},
           "--restarts": {"default": None}, "--max-iters": {"default": None, "dest": "max_iters"},
           "--search-samples": {"default": None, "dest": "search_samples"}},
        **mc_flags,
    )
    add(
        "minimize-penalized",
        **{"--m": {"default": None}, "--d": {"default": None}, "--a": {"default": None},
           "--epsilon": {"default": None}, "--restarts": {"default": None},
           "--max-iters": {"default": None, "dest": "max_iters"},
           "--search-samples": {"default": None, "dest": "search_samples"}},
        **mc_flags,
    )
    discrete = add(
        "discrete",
        **{"--m": {"default": None}, "--n": {"default": None}, "--rho": {"default": None},
           "--function": {"default": None}},
    )
    discrete.add_argument("action", nargs="?", default="stability")
    add("symmetric-scan", **{"--a": {"default": None}, "--kmax": {"default": None},
                             "--orientation": {"default": None}})
    add(
        "stability-check",
        **{"--m": {"default": None}, "--reference": {"default": None},
           "--candidate": {"default": None}, "--perturb": {"default": None},
           "--perturb-seed": {"default": None, "dest": "perturb_seed"},
           "--epsilon": {"default": None}, "--w": {"default": None}},
        **mc_flags,
    )
    add("clt-crosscheck", **{"--rho": {"default": None}, "--n": {"default": None}}, **mc_flags)
    regression = sub.add_parser("regression")
    regression.add_argument("--corpus", required=True)
    return parser


def _resolve_spec(args: argparse.Namespace) -> dict:
    spec: dict = {}
    from_file = False
    if getattr(args, "spec", None):
        spec.update(json.loads(Path(args.spec).read_text(encoding="utf-8")))
        from_file = True
    skip = {"command", "spec", "out_dir", "tag"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        spec[key] = value
    if "seed" in spec:
        # integer text exactly, float notation such as 1e3 through float
        try:
            spec["seed"] = int(spec["seed"])
        except ValueError:
            spec["seed"] = int(float(spec["seed"]))
    elif args.command not in ("symmetric-scan", "discrete"):
        if from_file:
            raise ConfigError("archived specs must pin a seed")
        print("warning: no seed given, defaulting to 0", file=sys.stderr)
        spec["seed"] = 0
    return spec


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    if args.command == "regression":
        return _run_regression(Path(args.corpus))

    try:
        spec = _resolve_spec(args)
        started = time.perf_counter()
        results, errors, details = _COMMANDS[args.command](spec)
        elapsed = time.perf_counter() - started
        tag = args.tag or args.command
        written = _write_reports(Path(args.out_dir), tag, args.command, spec, results, errors, details)
    except _PRECISION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECISION_EXIT
    except GaussBubblesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    for path in written:
        print(f"wrote {path}")
    print(f"{args.command} finished, wall_time_s={elapsed:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
