"""Each output check can fail: a perturbed value or a dropped check is caught.

Run from the repository root:  python3 -m pytest bench/test_checks.py -q
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from switchlab.cli import main as cli_main  # noqa: E402

PERTURBATION = 1e-6


def cli_output(argv) -> str:
    code, out, err, _ = run.call(cli_main, argv, run.direct)
    assert code == 0, err
    return out


def edit_rows(text: str, edit) -> str:
    """Apply edit(row) -> row or None (drop) to every data row of a CSV text."""
    header, *rows = list(csv.reader(io.StringIO(text)))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        row = edit(dict(zip(header, row)))
        if row is not None:
            writer.writerow([row[name] for name in header])
    return buffer.getvalue()


def shifted(row: dict, *fields) -> dict:
    row = dict(row)
    for field in fields:
        row[field] = format(float(row[field]) + PERTURBATION, ".17g")
    return row


def once(predicate, edit):
    """An edit applied to the first row that satisfies predicate only."""
    done = []

    def apply(row):
        if not done and predicate(row):
            done.append(True)
            return edit(row)
        return row

    return apply


@pytest.fixture(scope="module")
def verify_text():
    return cli_output(["verify", "--seed", "5", "--samples", "2"])


@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "scenario.json"
    config = reference.make_scenario(np.random.default_rng(7), 3, 2, mixed=False)
    reference.write_scenario(config, path)
    axes = {"p": np.linspace(0.0, 1.0, 3), "phi": np.linspace(0.0, 2.0 * math.pi, 3)}
    argv = ["sweep", "--scenario", str(path), "--axis", "p:0.0:1.0:3",
            "--axis", f"phi:0.0:{2.0 * math.pi!r}:3"]
    return cli_output(argv), config, axes


@pytest.fixture(scope="module")
def dense_case(tmp_path_factory):
    path = tmp_path_factory.mktemp("dense") / "scenario.json"
    config = reference.make_scenario(np.random.default_rng(8), 4, 3, mixed=True)
    reference.write_scenario(config, path)
    return cli_output(["verify", "--scenario", str(path), "--samples", "0"]), config


def test_unmodified_outputs_pass(verify_text, sweep_case, dense_case):
    assert reference.check_verify_output(verify_text, 3, run.TOL)[0] == []
    assert reference.check_sweep_output(*sweep_case, run.TOL) == []
    assert reference.check_dense_verify_output(*dense_case, run.TOL) == []


@pytest.mark.parametrize("field", ["lhs", "rhs"])
def test_verify_perturbed_row_fails(verify_text, field):
    edit = once(lambda row: row["kind"] == "eq", lambda row: shifted(row, field))
    assert reference.check_verify_output(edit_rows(verify_text, edit), 3, run.TOL)[0]


@pytest.mark.parametrize("name", sorted(reference.UNCONDITIONAL_CHECKS))
def test_verify_dropped_check_fails(verify_text, name):
    edit = once(lambda row: row["check"] == name, lambda row: None)
    assert reference.check_verify_output(edit_rows(verify_text, edit), 3, run.TOL)[0]


@pytest.mark.parametrize("column", reference.SWEEP_COLUMNS)
def test_sweep_perturbed_value_fails(sweep_case, column):
    text, config, axes = sweep_case
    edit = once(lambda row: True, lambda row: shifted(row, column))
    assert reference.check_sweep_output(edit_rows(text, edit), config, axes, run.TOL)


@pytest.mark.parametrize("name", ["causal-visibility", "entropic-uncertainty"])
def test_dense_reference_catches_consistent_perturbation(dense_case, name):
    # both sides move together, so only the reference route can notice
    text, config = dense_case
    edit = once(lambda row: row["check"] == name, lambda row: shifted(row, "lhs", "rhs"))
    assert reference.check_dense_verify_output(edit_rows(text, edit), config, run.TOL)


def test_dense_dropped_check_fails(dense_case):
    text, config = dense_case
    edit = once(lambda row: row["check"] == "nogo-margin", lambda row: None)
    assert reference.check_dense_verify_output(edit_rows(text, edit), config, run.TOL)


def test_perturbed_output_is_a_failed_command(sweep_case):
    text, config, axes = sweep_case
    command = run.Command(["unused"], 9, lambda out: reference.check_sweep_output(out, config, axes, run.TOL))
    perturbed = edit_rows(text, once(lambda row: True, lambda row: shifted(row, "p_plus")))

    def fake_main(argv):
        sys.stdout.write(perturbed)
        return 0

    failure, _, _ = run.attempt(command, fake_main, run.direct)
    assert failure == "wrong output"


@pytest.mark.parametrize("failure", ["exit 1", "exception"])
def test_failing_command_makes_the_run_incorrect(failure, tmp_path, monkeypatch, capsys):
    # `verify` exits 1 when a relation fails; a crash is no better
    warmup = run.warmup_argv("verify-small", tmp_path)

    def fake_main(argv):
        if argv == warmup:
            return 0
        if failure == "exception":
            raise ValueError("broken")
        return 1

    monkeypatch.setattr(run, "measure_setup", lambda argv: 0.2)
    args = argparse.Namespace(workload="verify-small", seed=1, seconds=1e-6, trace=0)
    assert run.run(args, tmp_path, fake_main) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
