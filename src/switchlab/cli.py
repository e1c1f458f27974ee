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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, after the usage of the (sub)command at fault."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    """A JSON number: int or float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value, field: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"field {field!r}: expected a number, got {value!r}")
    return float(value)


def _as_integer(value, field: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"field {field!r}: expected an integer >= {minimum}, got {value!r}")
    return value


def _as_numbers(values, count: int, field: str) -> tuple[float, ...]:
    if not isinstance(values, list) or len(values) != count:
        raise ConfigError(f"field {field!r}: expected {count} numbers")
    return tuple(_as_number(v, f"{field}[{i}]") for i, v in enumerate(values))


def _as_complex(value, field: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
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
    probabilities = _as_numbers(probabilities, n, "probabilities")
    phases = _as_numbers(config.get("phases", [0.0] * n), n, "phases")
    detector_dim = _as_integer(_require(config, "detector_dim"), "detector_dim", 1)
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
    order_weight = _as_number(_require(config, "order_weight"), "order_weight")
    order_phase = _as_number(config.get("order_phase", 0.0), "order_phase")
    initial_index = _as_integer(
        config.get("initial_detector_index", 0), "initial_detector_index", 0
    )
    offdiag = None
    if config.get("order_offdiag") is not None:
        offdiag = _as_complex(config["order_offdiag"], "order_offdiag")

    try:
        preparation = PathPreparation(probabilities, phases)
        interaction = WhichPathInteraction(mats, initial_index)
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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"--axis {spec!r}: start and stop must be finite")
    if steps < 1:
        raise ConfigError(f"axis {spec!r}: steps must be positive")
    return name, np.linspace(start, stop, steps)


def _parse_axes(specs, allowed: tuple[str, ...], command: str) -> dict[str, np.ndarray]:
    axes = [_parse_axis(spec, allowed) for spec in specs or []]
    if len({name for name, _ in axes}) != len(axes):
        raise ConfigError(f"{command} axes must be distinct")
    return dict(axes)


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
    axes = _parse_axes(args.axis, SWEEP_AXES, "sweep")
    names = list(axes)
    base = load_scenario(args.scenario, args.seed)
    if "theta" in names and base.order_offdiag is not None:
        raise ConfigError(
            "axis 'theta' has no effect: the scenario sets order_offdiag, "
            "which fixes the order-qubit off-diagonal"
        )
    mesh = [g.ravel() for g in np.meshgrid(*axes.values(), indexing="ij")]
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
    axes = _parse_axes(args.axis, REGION_AXES, "region")
    try:
        points = relations.region_sweep(axes.get("p", 21), axes.get("overlap", 21))
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


#: the flags each command reads, besides --out and --format
COMMAND_FLAGS = {
    "verify": ("scenario", "seed", "samples", "tol", "alpha"),
    "run": ("scenario", "seed", "alpha"),
    "sweep": ("scenario", "seed", "axis"),
    "region": ("axis",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="switchlab",
        description="verify and tabulate complementarity measures of order-controlled processes",
    )
    flags = {
        "scenario": dict(
            default="explicit-realization",
            help="built-in name (%s) or path to a JSON scenario file"
            % ", ".join(BUILTIN_SCENARIOS),
        ),
        "seed": dict(type=int, default=0, help="64-bit seed for derived randomness"),
        "samples": dict(type=int, default=100, help="random scenarios to add"),
        "tol": dict(type=float, default=1e-9, help="relation tolerance"),
        "alpha": dict(type=float, default=1.0, help="weight of causal coherence in the no-go margin"),
        "axis": dict(
            action="append",
            default=None,
            metavar="NAME:START:STOP:STEPS",
            help="parameter axis (repeatable, names distinct); sweep: p, theta, phi; region: p, overlap",
        ),
        "out": dict(default=None, help="output path (default stdout)"),
        "format": dict(choices=("csv", "json"), default="csv"),
    }
    commands = (
        ("verify", cmd_verify, "run every relation check"),
        ("run", cmd_run, "report all measures for one scenario"),
        ("sweep", cmd_sweep, "tabulate measures over parameter axes"),
        ("region", cmd_region, "sweep the duality-sum vs causal-coherence region"),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in commands:
        command = sub.add_parser(name, help=help_text)
        for flag in COMMAND_FLAGS[name] + ("out", "format"):
            command.add_argument(f"--{flag}", **flags[flag])
        command.set_defaults(func=func, parser=command)
    return parser


def _check_flags(args) -> None:
    """Range checks of the numeric flags the command accepts."""
    flags = vars(args)
    if "samples" in flags and args.samples < 0:
        raise ConfigError("--samples must be nonnegative")
    if "tol" in flags and not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    if "alpha" in flags and not math.isfinite(args.alpha):
        raise ConfigError(f"--alpha must be finite, got {args.alpha}")
    if "seed" in flags and not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {args.seed}")


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
