#!/usr/bin/env python3
"""switchlab benchmark: closed-loop CLI workloads with independent output checks.

Run from the repository root:

    python3 bench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0

One single-threaded process (BLAS and OpenMP pinned to one thread) drives
`switchlab.cli.main` in-process, one command after another, until the
commands' own wall time reaches --seconds.  Warm-up runs before the timed
region; output checks run between commands, outside it.  Every command's
stdout is checked against the benchmark's reference route (reference.py),
never against stored output.

--trace 0 prints the end-to-end metrics; --trace 1 wraps switchlab's public
functions (tracing.py) and prints the per-layer metrics instead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import os

# before numpy is imported anywhere: with two BLAS threads on a 2-core host,
# single evaluations spiked to over ten times their median
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

TOL = 1e-9  # the CLI's default relation tolerance, which every command uses
SETUP_REPEATS = 21  # fresh interpreters per run, spread over it; setup_s is their median

VERIFY_SAMPLES = 10  # random scenarios per verify-small command
SWEEP_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3))  # (n, d) of each round's sweep-grid files
SWEEP_AXES = (("p", 0.0, 1.0, 7), ("phi", 0.0, 2.0 * math.pi, 8))
DENSE_DIMS = (14, 14)  # n, d of verify-dense scenarios
WARMUP_SEED = 12345  # warm-up inputs never depend on --seed

#: median time of host_probe() on the host where the bounds were set; the
#: timings are reported as if every run had that host speed (see README)
PROBE_REFERENCE_S = 0.025
#: after each command the probe repeats until it has run for this share of
#: the command's time, so that long commands are gauged as closely as short ones
PROBE_SHARE = 0.1

PER_LAYER = [
    "measures.causal_visibility.ms",
    "measures.order_interference.calls",
    "measures.order_interference.ms",
    "measures.conditional_entropy_after_measurement.ms",
    "measures.dephase_order.ms",
    "model.evolve_switch.calls",
    "model.evolve_switch.ms",
    "model.fixed_order_vector.calls",
    "model.fixed_order_vector.ms",
    "model.post_select.ms",
    "model.reduce_state.ms",
    "linalg.DensityOperator.calls",
    "linalg.DensityOperator.ms",
    "linalg.eigvalsh.calls",
    "linalg.partial_trace.ms",
    "linalg.von_neumann_entropy.ms",
    "relations.verify_scenario.self_ms",
    "relations.scenario_quantities.self_ms",
    "relations.spatial_summary.ms",
    "relations.check_fixed_order_duality.ms",
    "relations.check_ico_duality.ms",
    "relations.check_post_selection_mixture.ms",
    "relations.check_post_selected_duality.ms",
    "relations.check_entropic_bound.ms",
    "relations.check_overlap_lemma.ms",
    "relations.nogo_counterexample.calls",
    "relations.nogo_counterexample.ms",
    "relations.scenario_fingerprint.ms",
    "discrimination.helstrom_guess.ms",
    "discrimination.causal_duality.ms",
    "cli.load_scenario.ms",
    "cli.write_rows.ms",
]


class Command(NamedTuple):
    """One CLI invocation, the evaluations it performs and its output check."""

    argv: list
    evals: int
    check: Callable[[str], list]  # stdout text -> problems found, none if correct


# ---------------------------------------------------------------------------
# workloads: endless streams of rounds, each drawn from its own seeded generator;
# the commands of a round have the same make-up in every round and every run
# ---------------------------------------------------------------------------


def verify_small(seed, workdir):
    """`verify --seed S --samples K`; switchlab draws the pure-order scenarios."""
    rng = np.random.default_rng([seed, 1])
    scenarios = VERIFY_SAMPLES + 1  # the default scenario plus the samples
    while True:
        argv = ["verify", "--seed", str(int(rng.integers(0, 2**63))),
                "--samples", str(VERIFY_SAMPLES)]
        yield [Command(argv, scenarios,
                       lambda text: reference.check_verify_output(text, scenarios, TOL)[0])]


def sweep_grid(seed, workdir):
    """`sweep` over p and phi on fresh pure-order scenario files, one per size."""
    rng = np.random.default_rng([seed, 2])
    axes = {name: np.linspace(start, stop, steps) for name, start, stop, steps in SWEEP_AXES}
    specs = []
    for name, start, stop, steps in SWEEP_AXES:
        specs += ["--axis", f"{name}:{start!r}:{stop!r}:{steps}"]
    points = math.prod(steps for *_, steps in SWEEP_AXES)
    for i in itertools.count():
        paths, commands = [], []
        for n, d in SWEEP_SIZES:
            config = reference.make_scenario(rng, n, d, mixed=False)
            paths.append(workdir / f"sweep-{i}-{n}x{d}.json")
            reference.write_scenario(config, paths[-1])
            commands.append(Command(
                ["sweep", "--scenario", str(paths[-1]), *specs], points,
                lambda text, c=config: reference.check_sweep_output(text, c, axes, TOL)))
        yield commands
        for path in paths:
            path.unlink()


def verify_dense(seed, workdir):
    """`verify --samples 0` on a fresh mixed-order scenario file per command."""
    rng = np.random.default_rng([seed, 3])
    for i in itertools.count():
        config = reference.make_scenario(rng, *DENSE_DIMS, mixed=True)
        path = workdir / f"dense-{i}.json"
        reference.write_scenario(config, path)
        yield [Command(["verify", "--scenario", str(path), "--samples", "0"], 1,
                       lambda text, c=config: reference.check_dense_verify_output(text, c, TOL))]
        path.unlink()


WORKLOADS = {"verify-small": verify_small, "sweep-grid": sweep_grid, "verify-dense": verify_dense}


def warmup_argv(workload, workdir):
    """A small command on the workload's code path, for set-up and warm-up."""
    rng = np.random.default_rng(WARMUP_SEED)
    if workload == "verify-small":
        return ["verify", "--seed", str(WARMUP_SEED), "--samples", "0"]
    path = workdir / "warmup.json"
    if workload == "sweep-grid":
        reference.write_scenario(reference.make_scenario(rng, 2, 2, mixed=False), path)
        return ["sweep", "--scenario", str(path), "--axis", "p:0.5:0.5:1", "--axis", "phi:0:0:1"]
    reference.write_scenario(reference.make_scenario(rng, 4, 4, mixed=True), path)
    return ["verify", "--scenario", str(path), "--samples", "0"]


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def host_probe():
    """A fixed computation of the benchmark's own, timed to gauge host speed.

    It shares no code with switchlab, so a change to the program cannot move
    it; it mixes small-array numpy calls in Python loops with dense complex
    BLAS work, as the workloads do.
    """
    rng = np.random.default_rng(0)
    branches = reference.Branches(reference.make_scenario(rng, 3, 3, mixed=False))
    m = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    h = m + m.conj().T

    def probe() -> float:
        start = time.perf_counter()
        for i in range(30):
            reference.quantities(branches, 0.3, 0.1 * i)
        np.linalg.eigvalsh(h @ h)
        return time.perf_counter() - start

    return probe


SETUP_CODE = """\
import contextlib, io, sys, time
start = time.perf_counter()
import switchlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = switchlab.cli.main(sys.argv[1:])
print(repr(time.perf_counter() - start), code)
"""


def measure_setup(argv) -> float:
    """Seconds to import switchlab and run one command in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *argv],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0 or proc.stdout.split()[-1:] != ["0"]:
        raise RuntimeError(f"set-up command {argv} failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[0])


def call(main, argv, runner):
    """Run one CLI command in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = runner(main, argv)
    except (Exception, SystemExit) as exc:  # the command failed, the run goes on
        code = f"{type(exc).__name__}: {exc}"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def direct(main, argv):
    return main(argv)


def attempt(command, cli_main, runner):
    """Run and check one command: (failure or None, stdout, seconds).

    A non-zero exit, an exception and an output that fails its check are
    all failures.  `verify` exits 1 when a relation fails, so an exit code
    is as much a wrong result as a wrong number.
    """
    code, out, err, elapsed = call(cli_main, command.argv, runner)
    if code != 0:
        print(f"{command.argv}: exit {code}: {err.strip()}", file=sys.stderr)
        return f"exit {code}", out, elapsed
    problems = command.check(out)
    if problems:
        print(f"{command.argv}: " + "; ".join(problems[:5]), file=sys.stderr)
        return "wrong output", out, elapsed
    return None, out, elapsed


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


class Terminated(BaseException):
    """SIGTERM, raised past the per-command handler so that clean-up runs."""


def terminate(signum, frame):
    raise Terminated(signum)


def main() -> int:
    args = parse_args()
    # subprocess.run kills its child when an exception passes through it
    signal.signal(signal.SIGTERM, terminate)
    if not (SRC / "switchlab" / "__init__.py").is_file():
        print(f"no switchlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import switchlab
    from switchlab.cli import main as cli_main

    if Path(switchlab.__file__).resolve().parent != SRC / "switchlab":
        print(f"switchlab imported from {switchlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir, cli_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


def run(args, workdir, cli_main) -> int:
    probe = host_probe()
    warm = warmup_argv(args.workload, workdir)
    code, _, err, _ = call(cli_main, warm, direct)
    if code != 0:
        print(f"in-process warm-up {warm} failed: {code} {err}", file=sys.stderr)
        return 2
    probe()

    runner, tracer = direct, None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        runner = tracer.run

    rounds = WORKLOADS[args.workload](args.seed, workdir)
    setup = [] if not args.trace else [None] * SETUP_REPEATS
    attempted = failed = evals = 0
    timed = probed = 0.0
    probes = 0
    first = None
    try:
        while attempted == 0 or timed < args.seconds:  # whole rounds only
            for command in next(rounds):
                # set-up samples are spread evenly over the timed region, so
                # that they see the same host as the commands
                if len(setup) <= SETUP_REPEATS * timed / args.seconds < SETUP_REPEATS:
                    setup.append(measure_setup(warm))
                failure, out, elapsed = attempt(command, cli_main, runner)
                timed += elapsed
                attempted += 1
                spent = 0.0
                while spent == 0.0 or spent < PROBE_SHARE * elapsed:
                    spent += probe()
                    probes += 1
                probed += spent
                first = first or (command, out)
                if failure is None:
                    evals += command.evals
                else:
                    failed += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(warm))

    if args.workload == "verify-small":
        # the README promises byte-identical reruns of the same command
        code, out, _, _ = call(cli_main, first[0].argv, direct)
        if code != 0 or out != first[1]:
            print(f"{first[0].argv}: rerun output differs", file=sys.stderr)
            failed += 1

    # no command of any workload fails on a correct program
    correct = failed == 0
    # the host probe's mean time over the run, relative to the reference host
    host_slowness = (probed / probes) / PROBE_REFERENCE_S
    wall_rate = evals / timed
    print(f"{args.workload} seed {args.seed}: {attempted} commands, {evals} evaluations in "
          f"{timed:.3f} s of command time ({wall_rate:.4f}/s); host probe at "
          f"{host_slowness:.4f} x reference time", file=sys.stderr)
    if tracer is None:
        metrics = {
            "evals_per_s": {"value": wall_rate * host_slowness, "unit": "1/s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "setup_s": {"value": statistics.median(setup) / host_slowness, "unit": "s"},
        }
    else:
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"trace-{args.workload}.npz")
        metrics = layer_metrics(tracer.layer_totals(), max(evals, 1))
        metrics["trace.evals_per_s"] = {"value": wall_rate * host_slowness, "unit": "1/s"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(totals, evals):
    """Per-evaluation calls and self milliseconds of each traced function."""
    metrics = {}
    for name in PER_LAYER:
        label, field = name.rsplit(".", 1)
        calls, seconds = totals[label]
        if field == "calls":
            metrics[name] = {"value": calls / evals, "unit": "count"}
        else:
            metrics[name] = {"value": 1000.0 * seconds / evals, "unit": "ms"}
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
