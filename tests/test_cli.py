import csv
import json
import math

import numpy as np
import pytest

import switchlab.relations as relations
from switchlab.cli import ConfigError, load_scenario, main, parse_config
from switchlab.model import SwitchScenario


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


ORTHOGONAL_BRANCH_CONFIG = {
    "probabilities": [1.0, 0.0],
    "phases": [0.0, 0.0],
    "detector_dim": 2,
    "initial_detector_index": 0,
    "detector_unitaries": [
        [[1, 0], [0, 0], [0, 0], [1, 0]],
        [[-1, 0], [0, 0], [0, 0], [-1, 0]],
    ],
    "interference_unitary": [
        [math.sqrt(0.5), 0],
        [-math.sqrt(0.5), 0],
        [math.sqrt(0.5), 0],
        [math.sqrt(0.5), 0],
    ],
    "order_weight": 0.5,
    "order_phase": 0.0,
}


@pytest.fixture
def orthogonal_config(tmp_path):
    path = tmp_path / "orthogonal.json"
    path.write_text(json.dumps(ORTHOGONAL_BRANCH_CONFIG))
    return str(path)


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


def test_builtin_scenarios_load():
    flagship = load_scenario("explicit-realization", 0)
    assert flagship.order_weight == 0.5
    assert flagship.order_phase == 0.0
    np.testing.assert_allclose(flagship.interference, np.eye(2), atol=1e-15)
    unmarked = load_scenario("no-marking", 0)
    for v in unmarked.interaction.detector_unitaries:
        np.testing.assert_allclose(v, np.eye(2))
    assert isinstance(load_scenario("full-marking", 0), SwitchScenario)
    generic_a = load_scenario("generic", 7)
    generic_b = load_scenario("generic", 7)
    np.testing.assert_allclose(generic_a.interference, generic_b.interference)


def test_parse_config_round_trip(orthogonal_config):
    scn = parse_config(orthogonal_config)
    assert scn.n == 2
    assert scn.detector_dim == 2
    assert scn.order_weight == 0.5


def test_parse_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"probabilities": [0.5, 0.5],')
    with pytest.raises(ConfigError, match="line"):
        parse_config(str(path))
    assert main(["verify", "--scenario", str(path), "--samples", "0"]) == 2


def test_parse_config_missing_field(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"probabilities": [0.5, 0.5]}))
    with pytest.raises(ConfigError, match="detector_dim"):
        parse_config(str(path))


def test_parse_config_rejects_positivity_violation(tmp_path, capsys):
    config = dict(ORTHOGONAL_BRANCH_CONFIG)
    config["order_weight"] = 0.3
    config["order_offdiag"] = [0.5, 0.0]  # |k|^2 = 0.25 > 0.21
    path = tmp_path / "bad_offdiag.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "order_offdiag" in err


def test_parse_config_rejects_nan_probability(tmp_path, capsys):
    path = tmp_path / "nan.json"
    text = json.dumps(ORTHOGONAL_BRANCH_CONFIG).replace("[1.0, 0.0]", "[NaN, 1.0]", 1)
    path.write_text(text)
    assert main(["run", "--scenario", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("order_weight", [0.5]),
        ("order_weight", "0.5"),
        ("order_weight", True),
        ("order_phase", None),
        ("initial_detector_index", [0]),
        ("initial_detector_index", 0.5),
        ("probabilities", [[1.0], 0.0]),
        ("phases", [0.0, "0"]),
        ("detector_dim", True),
        ("order_offdiag", [False, 0.0]),
    ],
)
def test_parse_config_rejects_wrongly_typed_values(tmp_path, capsys, field, value):
    config = dict(ORTHOGONAL_BRANCH_CONFIG, **{field: value})
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=field):
        parse_config(str(path))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


# ---------------------------------------------------------------------------
# flag validation and exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
        ("--samples", "-1"),
        ("--alpha", "nan"),
        ("--alpha", "inf"),
    ],
)
def test_invalid_flag_is_config_error(flag, value, capsys):
    assert main(["verify", "--samples", "0", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--scenario", "no-marking"],
        ["region", "--seed", "5"],
        ["region", "--tol", "1"],
        ["region", "--alpha", "3"],
        ["region", "--samples", "2"],
        ["run", "--axis", "p:0:1:3"],
        ["run", "--samples", "2"],
        ["run", "--tol", "1"],
        ["verify", "--samples", "0", "--axis", "p:0:1:3"],
        ["sweep", "--axis", "p:0:1:3", "--alpha", "2"],
        ["sweep", "--axis", "p:0:1:3", "--tol", "1"],
        ["sweep", "--axis", "p:0:1:3", "--samples", "2"],
        ["verify", "--samples", "0", "--overlap", "0.5"],
        ["run", "--scenario", "no-marking", "extra"],
        ["sweep", "--axis", "p:0:1:3", "--seed", "1", "--format", "csv", "--theta", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_command_rejects_flags_it_does_not_read(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: switchlab {argv[0]} ")
    assert "config error: unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["verify", "--format", "xml"], "usage: switchlab verify "),
        (["run", "--seed", "abc"], "usage: switchlab run "),
        (["region", "--axis"], "usage: switchlab region "),
        (["bogus"], "usage: switchlab [-h]"),
        ([], "usage: switchlab [-h]"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_usage_error_returns_2_with_the_command_usage(argv, usage, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(usage) and "config error:" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["region", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: switchlab region ")


def test_largest_seed_is_accepted(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", "--seed", str(2**64 - 1), "--out", str(out)]) == 0


def test_internal_arithmetic_failure_exits_3(monkeypatch, capsys):
    def broken_scan(rho_o):
        raise ArithmeticError("visibility scan disagrees")

    monkeypatch.setattr(relations, "causal_visibility", broken_scan)
    assert main(["verify", "--samples", "0"]) == 3
    assert capsys.readouterr().err.startswith("internal error: visibility scan")


def test_internal_validation_failure_exits_3(monkeypatch, capsys):
    def broken_quantities(scenario, basis_phase=0.0):
        raise ValueError("density matrix has negative eigenvalue -3.7e-10")

    monkeypatch.setattr(relations, "scenario_quantities", broken_quantities)
    assert main(["run"]) == 3
    assert capsys.readouterr().err.startswith("internal error: density matrix")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_flagship_no_samples(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(
        ["verify", "--scenario", "explicit-realization", "--samples", "0", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out)
    assert rows and all(row["holds"] == "true" for row in rows)
    visibility = [r for r in rows if r["check"] == "causal-visibility"]
    assert visibility and float(visibility[0]["lhs"]) == pytest.approx(1.0, abs=1e-12)


def test_verify_byte_identical_reruns(tmp_path):
    args = ["verify", "--seed", "42", "--samples", "25"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_verify_json_matches_csv(tmp_path):
    out_csv, out_json = tmp_path / "v.csv", tmp_path / "v.json"
    base = ["verify", "--seed", "3", "--samples", "2"]
    assert main(base + ["--out", str(out_csv)]) == 0
    assert main(base + ["--out", str(out_json), "--format", "json"]) == 0
    csv_rows = _read_csv(out_csv)
    json_rows = json.loads(out_json.read_text())
    assert len(csv_rows) == len(json_rows)
    for left, right in zip(csv_rows, json_rows):
        assert left["check"] == right["check"]
        assert float(left["lhs"]) == pytest.approx(right["lhs"], abs=1e-15)
        assert right["holds"] is True


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_reports_flagship_quantities(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", "--out", str(out), "--alpha", "0.1"]) == 0
    values = {row["quantity"]: float(row["value"]) for row in _read_csv(out)}
    assert values["spatial_coherence"] == pytest.approx(0.0, abs=1e-12)
    assert values["distinguishability_bound"] == pytest.approx(1.0, abs=1e-12)
    assert values["causal_coherence"] == pytest.approx(1.0, abs=1e-12)
    assert values["nogo_margin"] == pytest.approx(0.1, abs=1e-12)


def test_run_keeps_unit_range_values_exact(tmp_path):
    out = tmp_path / "no_marking.csv"
    assert main(["run", "--scenario", "no-marking", "--out", str(out)]) == 0
    values = {row["quantity"]: row["value"] for row in _read_csv(out)}
    for name in (
        "spatial_coherence",
        "coherence_a_then_b",
        "coherence_b_then_a",
        "causal_coherence",
    ):
        assert values[name] == "1", name
    for name in (
        "distinguishability_a_then_b",
        "distinguishability_b_then_a",
        "distinguishability_bound",
    ):
        assert values[name] == "0", name


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_interference_fringes(tmp_path):
    out = tmp_path / "fringes.csv"
    code = main(
        [
            "sweep",
            "--axis",
            f"phi:0:{2 * math.pi}:360",
            "--scenario",
            "explicit-realization",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 360
    worst = max(
        abs(float(r["p_plus"]) - 0.5 * (1 + math.cos(float(r["phi"])))) for r in rows
    )
    assert worst < 1e-9


def test_sweep_order_weight_with_orthogonal_branches(tmp_path, orthogonal_config):
    out = tmp_path / "psweep.csv"
    code = main(
        ["sweep", "--axis", "p:0:1:11", "--scenario", orthogonal_config, "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 11
    assert all(abs(float(r["causal_coherence"])) < 1e-12 for r in rows)


def test_sweep_two_axes_and_errors(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "sweep",
            "--axis",
            "p:0.2:0.8:3",
            "--axis",
            "theta:0:1:2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(_read_csv(out)) == 6
    assert main(["sweep", "--axis", "voltage:0:1:5"]) == 2
    assert (
        main(
            [
                "sweep",
                "--axis",
                "p:0:1:2",
                "--axis",
                "theta:0:1:2",
                "--axis",
                "phi:0:1:2",
            ]
        )
        == 2
    )
    assert main(["sweep"]) == 2


@pytest.mark.parametrize(
    "command, axis",
    [
        ("sweep", "phi:0:nan:3"),
        ("sweep", "p:inf:1:3"),
        ("region", "p:nan:1:3"),
        ("region", "overlap:-1:inf:3"),
    ],
)
def test_non_finite_axis_endpoint_is_config_error(capsys, command, axis):
    assert main([command, "--axis", axis]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--axis" in err


def test_theta_axis_with_order_offdiag_is_config_error(tmp_path, capsys):
    config = dict(ORTHOGONAL_BRANCH_CONFIG, order_offdiag=[0.25, 0.0])
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--scenario", str(path), "--axis", "theta:0:1:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "theta" in err and "order_offdiag" in err
    out = tmp_path / "p.csv"
    code = main(["sweep", "--scenario", str(path), "--axis", "p:0.4:0.6:3", "--out", str(out)])
    assert code == 0


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def test_region_attains_corner(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 441
    xs = [float(r["duality_sum"]) for r in rows]
    ys = [float(r["causal_coherence"]) for r in rows]
    assert any(abs(x - 1) < 1e-9 and abs(y - 1) < 1e-9 for x, y in zip(xs, ys))
    assert min(xs) <= 0.05 and min(ys) <= 0.05


def test_region_axis_override(tmp_path):
    out = tmp_path / "region_small.csv"
    code = main(
        ["region", "--axis", "p:0:1:3", "--axis", "overlap:-1:1:5", "--out", str(out)]
    )
    assert code == 0
    assert len(_read_csv(out)) == 15
    assert main(["region", "--axis", "overlap:-2:2:5"]) == 2


def test_near_degenerate_order_outcome_runs(tmp_path):
    """run, sweep and verify pass where an x outcome has probability 1e-10 to 1e-8."""
    config = dict(
        ORTHOGONAL_BRANCH_CONFIG,
        probabilities=[0.5, 0.5],
        detector_unitaries=[
            [[1, 0], [0, 0], [0, 0], [1, 0]],
            [[0, 0], [1, 0], [1, 0], [0, 0]],
        ],
        interference_unitary=[[1, 0], [0, 0], [0, 0], [0.5, math.sqrt(0.75)]],
        order_weight=0.50001,
    )
    path = tmp_path / "near_degenerate.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "run.csv")]) == 0
    verified = tmp_path / "verify.csv"
    assert main(["verify", "--scenario", str(path), "--samples", "0", "--out", str(verified)]) == 0
    assert {"post-selected-duality:+", "post-selected-duality:-"} <= {
        row["check"] for row in _read_csv(verified)
    }
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", "full-marking", "--axis", "p:0.4999:0.5001:41", "--out", str(out)]) == 0
    assert len(_read_csv(out)) == 41


def test_region_rejects_repeated_axis(capsys):
    assert main(["region", "--axis", "p:0:1:2", "--axis", "p:0:0.5:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "distinct" in err
