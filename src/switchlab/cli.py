"""Command-line front end: verification runs, scenario reports, sweeps.

Scenarios come from a built-in registry or from a JSON config file with
complex numbers as [re, im] pairs and matrices as row-major arrays.  All
output is flat CSV (17 significant digits) or JSON rows; identical seeds
and configs produce byte-identical files.

Exit codes: 0 success, 1 relation failure, 2 config error, 3 internal
numerical error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .model import SwitchScenario, PathPreparation, WhichPathInteraction
from .model import explicit_realization, full_marking, no_marking
from . import relations

BUILTIN_SCENARIOS = ("explicit-realization", "no-marking", "full-marking", "generic")

SWEEP_COLUMNS = (
    "spatial_coherence",
    "distinguishability_bound",
    "causal_coherence",
    "p_plus",
    "order_bloch_norm",
    "order_entropy",
    "entropic_slack",
)

SWEEP_AXES = ("p", "theta", "phi")
REGION_AXES = ("p", "overlap")


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _as_complex(value, field: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise ConfigError(f"field {field!r}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _as_matrix(entries, dim: int, field: str) -> np.ndarray:
    if not isinstance(entries, (list, tuple)) or len(entries) != dim * dim:
        raise ConfigError(
            f"field {field!r}: expected {dim * dim} row-major [re, im] entries"
        )
    flat = [_as_complex(e, field) for e in entries]
    return np.array(flat, dtype=np.complex128).reshape(dim, dim)


def _require(config: dict, field: str):
    if field not in config:
        raise ConfigError(f"config field {field!r} is missing")
    return config[field]


def parse_config(path: str) -> SwitchScenario:
    """Build a scenario from a JSON config file.

    Raises ConfigError with the offending field (or the JSON position for
    malformed files); scenario invariants are checked before returning.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed scenario file {path!r}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError("scenario file must contain a JSON object")

    probabilities = _require(config, "probabilities")
    if not isinstance(probabilities, list) or len(probabilities) < 2:
        raise ConfigError("field 'probabilities': expected a list of at least two numbers")
    n = len(probabilities)
    phases = config.get("phases", [0.0] * n)
    if not isinstance(phases, list) or len(phases) != n:
        raise ConfigError(f"field 'phases': expected {n} numbers")
    detector_dim = _require(config, "detector_dim")
    if not isinstance(detector_dim, int) or detector_dim < 1:
        raise ConfigError("field 'detector_dim': expected a positive integer")
    unitaries = _require(config, "detector_unitaries")
    if not isinstance(unitaries, list) or len(unitaries) != n:
        raise ConfigError(f"field 'detector_unitaries': expected {n} matrices")
    mats = tuple(
        _as_matrix(u, detector_dim, f"detector_unitaries[{i}]")
        for i, u in enumerate(unitaries)
    )
    interference = _as_matrix(
        _require(config, "interference_unitary"), n, "interference_unitary"
    )
    order_weight = _require(config, "order_weight")
    order_phase = config.get("order_phase", 0.0)
    offdiag = None
    if config.get("order_offdiag") is not None:
        offdiag = _as_complex(config["order_offdiag"], "order_offdiag")

    try:
        preparation = PathPreparation(tuple(probabilities), tuple(phases))
        interaction = WhichPathInteraction(mats, int(config.get("initial_detector_index", 0)))
        return SwitchScenario(
            preparation, interaction, interference, order_weight, order_phase, offdiag
        )
    except ValueError as exc:
        raise ConfigError(f"invalid scenario in {path!r}: {exc}") from exc


def load_scenario(source: str, seed: int) -> SwitchScenario:
    """Resolve a built-in name or a config file path to a scenario."""
    if source == "explicit-realization":
        return explicit_realization()
    if source == "no-marking":
        return no_marking()
    if source == "full-marking":
        return full_marking()
    if source == "generic":
        return relations.random_scenario(seed)
    return parse_config(source)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows(rows: list[dict], fieldnames: list[str], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_cell(row[name]) for name in fieldnames])
        text = buffer.getvalue()
    else:
        text = json.dumps(
            [{name: row[name] for name in fieldnames} for row in rows], indent=2
        )
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _parse_axis(spec: str, allowed: tuple[str, ...]) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"axis {spec!r}: expected name:start:stop:steps")
    name = parts[0]
    if name not in allowed:
        raise ConfigError(f"unknown axis name {name!r}; choose from {', '.join(allowed)}")
    try:
        start, stop = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"axis {spec!r}: {exc}") from exc
    if steps < 1:
        raise ConfigError(f"axis {spec!r}: steps must be positive")
    return name, np.linspace(start, stop, steps)


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario, args.seed)
    checks = relations.verify_scenario(scenario, seed=args.seed, tol=args.tol, alpha=args.alpha)
    master = np.random.default_rng(args.seed)
    for _ in range(args.samples):
        child = int(master.integers(0, 2**63))
        sample = relations.random_scenario(child)
        checks.extend(
            relations.verify_scenario(sample, seed=child, tol=args.tol, alpha=args.alpha)
        )
    rows = [
        {
            "check": c.name,
            "kind": c.kind,
            "lhs": c.lhs,
            "rhs": c.rhs,
            "tol": c.tol,
            "holds": c.holds,
            "fingerprint": c.context,
        }
        for c in checks
    ]
    rows.sort(key=lambda r: (r["check"], r["fingerprint"]))
    write_rows(
        rows,
        ["check", "kind", "lhs", "rhs", "tol", "holds", "fingerprint"],
        args.format,
        args.out,
    )
    failures = sorted({c.context for c in checks if not c.holds})
    if failures:
        print(
            "relation failures in scenarios: " + ", ".join(failures), file=sys.stderr
        )
        return 1
    return 0


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, args.seed)
    fingerprint = relations.scenario_fingerprint(scenario, args.seed)
    quantities = relations.scenario_quantities(scenario)
    rows = [
        {"quantity": name, "value": float(value), "fingerprint": fingerprint}
        for name, value in quantities.items()
    ]
    counterexample = relations.nogo_counterexample(
        scenario.order_weight if 0.0 < scenario.order_weight < 1.0 else 0.5
    )
    rows.append(
        {
            "quantity": "nogo_margin",
            "value": counterexample.margin(args.alpha),
            "fingerprint": fingerprint,
        }
    )
    write_rows(rows, ["quantity", "value", "fingerprint"], args.format, args.out)
    return 0


def _apply_axes(scenario: SwitchScenario, assignment: dict[str, float]) -> tuple[SwitchScenario, float]:
    basis_phase = assignment.get("phi", 0.0)
    updates = {}
    if "p" in assignment:
        updates["order_weight"] = assignment["p"]
    if "theta" in assignment:
        updates["order_phase"] = assignment["theta"]
    if updates:
        try:
            scenario = replace(scenario, **updates)
        except ValueError as exc:
            raise ConfigError(f"axis value rejected: {exc}") from exc
    return scenario, basis_phase


def cmd_sweep(args) -> int:
    if not args.axis:
        raise ConfigError("sweep needs at least one --axis name:start:stop:steps")
    if len(args.axis) > 2:
        raise ConfigError("sweep supports at most two axes")
    axes = [_parse_axis(spec, SWEEP_AXES) for spec in args.axis]
    names = [name for name, _ in axes]
    if len(set(names)) != len(names):
        raise ConfigError("sweep axes must be distinct")
    base = load_scenario(args.scenario, args.seed)
    grids = [values for _, values in axes]
    mesh = [g.ravel() for g in np.meshgrid(*grids, indexing="ij")]
    rows = []
    for values in zip(*mesh):
        assignment = dict(zip(names, (float(v) for v in values)))
        scenario, basis_phase = _apply_axes(base, assignment)
        quantities = relations.scenario_quantities(scenario, basis_phase)
        row = {name: assignment[name] for name in names}
        row.update({col: float(quantities[col]) for col in SWEEP_COLUMNS})
        row["fingerprint"] = relations.scenario_fingerprint(scenario, args.seed)
        rows.append(row)
    rows.sort(key=lambda r: tuple(r[name] for name in names) + (r["fingerprint"],))
    write_rows(rows, names + list(SWEEP_COLUMNS) + ["fingerprint"], args.format, args.out)
    return 0


def cmd_region(args) -> int:
    p_values: np.ndarray | int = 21
    overlap_values: np.ndarray | int = 21
    for spec in args.axis or []:
        name, values = _parse_axis(spec, REGION_AXES)
        if name == "p":
            p_values = values
        else:
            overlap_values = values
    try:
        points = relations.region_sweep(p_values, overlap_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [
        {
            "p": point.order_weight,
            "overlap": point.detector_overlap,
            "duality_sum": point.x,
            "causal_coherence": point.y,
            "fingerprint": point.fingerprint,
        }
        for point in points
    ]
    rows.sort(key=lambda r: (r["p"], r["overlap"], r["fingerprint"]))
    write_rows(
        rows,
        ["p", "overlap", "duality_sum", "causal_coherence", "fingerprint"],
        args.format,
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlab",
        description="verify and tabulate complementarity measures of order-controlled processes",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario",
        default="explicit-realization",
        help="built-in name (%s) or path to a JSON scenario file"
        % ", ".join(BUILTIN_SCENARIOS),
    )
    common.add_argument("--seed", type=int, default=0, help="64-bit seed for derived randomness")
    common.add_argument("--samples", type=int, default=100, help="random scenarios to add (verify)")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=float, default=1e-9, help="relation tolerance")
    common.add_argument("--alpha", type=float, default=1.0, help="weight of causal coherence in the no-go margin")
    common.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="NAME:START:STOP:STEPS",
        help="sweep axis (repeatable, max 2); sweep: p, theta, phi; region: p, overlap",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="run every relation check").set_defaults(
        func=cmd_verify
    )
    sub.add_parser("run", parents=[common], help="report all measures for one scenario").set_defaults(
        func=cmd_run
    )
    sub.add_parser("sweep", parents=[common], help="tabulate measures over parameter axes").set_defaults(
        func=cmd_sweep
    )
    sub.add_parser(
        "region", parents=[common], help="sweep the duality-sum vs causal-coherence region"
    ).set_defaults(func=cmd_region)
    return parser


def _check_flags(args) -> None:
    if args.samples < 0:
        raise ConfigError("--samples must be nonnegative")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    if not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {args.seed}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        # flags and scenario files are validated before this point
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
