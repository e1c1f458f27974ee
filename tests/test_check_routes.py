"""Each relation check can fail: one route perturbed by 1e-6 flips its holds flag.

Every case runs the battery on a scenario where the check holds (and, for
an inequality, is saturated to well below 1e-6), then swaps one of the
check's two routes for the same value shifted by PERTURBATION and runs the
battery again.
"""

import dataclasses
import math

import numpy as np
import pytest

import switchlab.discrimination as discrimination
import switchlab.relations as relations
from switchlab.discrimination import UnambiguousOptimum
from switchlab.linalg import DensityOperator
from switchlab.model import PostSelectionResult, explicit_realization
from switchlab.relations import (
    random_scenario,
    random_symmetric_scenario,
    region_scenario,
    verify_scenario,
)

PERTURBATION = 1e-6


def _row(scenario, name):
    (row,) = [check for check in verify_scenario(scenario, seed=3) if check.name == name]
    return row


def _shift(monkeypatch, owner, attr, edit):
    """Replace owner.attr by a wrapper that passes its result through edit."""
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args, **kwargs: edit(original(*args, **kwargs)))


def _shift_reduction(target):
    def patch(monkeypatch):
        # the dense route's reduced state, with every off-diagonal entry moved
        def edit_reduction(rho_tot, which):
            reduced = original(rho_tot, which)
            if which != target:
                return reduced
            off = PERTURBATION * (1.0 - np.eye(reduced.dim))
            return DensityOperator(reduced.matrix + off, reduced.dims)

        original = relations.reduce_state
        monkeypatch.setattr(relations, "reduce_state", edit_reduction)

    return patch


def _shift_entry(key, shift=PERTURBATION):
    return lambda monkeypatch: _shift(
        monkeypatch, relations, "spatial_summary", lambda q: {**q, key: q[key] + shift}
    )


def _shift_report(field):
    return lambda monkeypatch: _shift(
        monkeypatch,
        relations,
        "_entropic_report",
        lambda report: dataclasses.replace(report, **{field: getattr(report, field) + PERTURBATION}),
    )


def _shift_unambiguous(monkeypatch):
    _shift(
        monkeypatch,
        discrimination,
        "uqsd_two_pure",
        lambda opt: UnambiguousOptimum(opt.probability + PERTURBATION, opt.idp_regime),
    )


def _shift_post_selection(monkeypatch):
    _shift(
        monkeypatch,
        relations,
        "post_select",
        lambda results: tuple(
            PostSelectionResult(r.outcome, r.probability + PERTURBATION, r.conditional_qd)
            for r in results
        ),
    )


def _shift_closed_form(monkeypatch):
    _shift(
        monkeypatch,
        relations,
        "_post_selected_closed_form",
        lambda closed: {**closed, "norm+": closed["norm+"] + PERTURBATION,
                        "norm-": closed["norm-"] + PERTURBATION},
    )


def _shift_rotated_helstrom(monkeypatch):
    calls = []

    def second_call_shifted(value):
        calls.append(value)
        return value + (PERTURBATION if len(calls) % 2 == 0 else 0.0)

    _shift(monkeypatch, relations, "_helstrom_guess", second_call_shifted)


def _window_edge_scenario():
    """Overlap s = (1 + 1e-3)/3 at p = 0.9: just outside the IDP window, slack 1e-7."""
    s = (1.0 + 1e-3) / 3.0
    return region_scenario(0.9, 2.0 * s - 1.0)


CASES = [
    # (check, scenario, route swapped, patch)
    ("fixed-order-duality:a-then-b", explicit_realization, "coherence", lambda monkeypatch: _shift(
        monkeypatch, relations, "_branch_duality", lambda r: (r[0], r[1] + PERTURBATION, r[2]))),
    ("fixed-order-duality:b-then-a", explicit_realization, "distinguishability",
     lambda monkeypatch: _shift(
         monkeypatch, relations, "path_distinguishability", lambda v: v + PERTURBATION)),
    ("ico-coherence-convexity", explicit_realization, "dense", _shift_reduction("q")),
    ("ico-coherence-convexity", explicit_realization, "branch",
     _shift_entry("coherence_convex_bound", -PERTURBATION)),
    ("ico-duality-sum", explicit_realization, "dense", _shift_reduction("q")),
    ("ico-duality-sum", explicit_realization, "branch", _shift_entry("distinguishability_bound")),
    ("causal-visibility", explicit_realization, "dense", lambda monkeypatch: _shift(
        monkeypatch, relations, "causal_visibility", lambda v: v + PERTURBATION)),
    ("causal-visibility", explicit_realization, "branch", lambda monkeypatch: _shift(
        monkeypatch, relations, "branch_overlap", lambda v: v + PERTURBATION)),
    ("causal-duality-sum", explicit_realization, "unambiguous", _shift_unambiguous),
    ("causal-duality-sum", explicit_realization, "coherence", lambda monkeypatch: _shift(
        monkeypatch, discrimination, "causal_coherence", lambda v: v + PERTURBATION)),
    ("causal-duality-sum", _window_edge_scenario, "unambiguous", _shift_unambiguous),
    ("post-selection-mixture", lambda: random_scenario(4, mixed_order=True), "dense",
     lambda monkeypatch: _shift(monkeypatch, relations, "contract_order",
                                lambda blocks: blocks + PERTURBATION)),
    ("post-selection-mixture", lambda: random_scenario(4, mixed_order=True), "branch",
     lambda monkeypatch: _shift(monkeypatch, relations, "_weighted_branch_states",
                                lambda states: (states[0] + PERTURBATION, states[1]))),
    ("post-selected-duality:+", lambda: random_symmetric_scenario(0), "branch", _shift_post_selection),
    ("post-selected-duality:-", lambda: random_symmetric_scenario(0), "branch", _shift_post_selection),
    ("post-selected-duality:+", lambda: random_symmetric_scenario(0), "closed form", _shift_closed_form),
    ("post-selected-duality:-", lambda: random_symmetric_scenario(0), "closed form", _shift_closed_form),
    ("entropic-uncertainty", explicit_realization, "dense", lambda monkeypatch: _shift(
        monkeypatch, relations, "conditional_entropy_after_measurement",
        lambda v: v - PERTURBATION)),
    ("entropic-uncertainty", explicit_realization, "branch", _shift_report("bound")),
    ("order-entropy-consistency", lambda: random_scenario(1), "dense", _shift_reduction("o")),
    ("order-entropy-consistency", lambda: random_scenario(1), "branch", _shift_report("order_entropy")),
    ("helstrom-overlap-invariance", lambda: random_scenario(2, mixed_order=True), "dense",
     lambda monkeypatch: _shift(monkeypatch, relations, "contract_order",
                                lambda blocks: blocks + PERTURBATION)),
    ("helstrom-overlap-invariance", lambda: random_scenario(2, mixed_order=True), "branch",
     _shift_rotated_helstrom),
    ("nogo-margin", explicit_realization, "branch", lambda monkeypatch: _shift(
        monkeypatch, relations, "_duality_point", lambda x: (x[0], x[1], x[2] + PERTURBATION))),
]


@pytest.mark.parametrize(
    "name, make_scenario, route, patch", CASES, ids=[f"{c[0]} {c[2]}" for c in CASES]
)
def test_perturbed_route_fails_the_check(monkeypatch, name, make_scenario, route, patch):
    scenario = make_scenario()
    assert _row(scenario, name).holds
    patch(monkeypatch)
    row = _row(scenario, name)
    assert not row.holds, row


def test_window_edge_row_is_an_inequality_with_small_slack():
    row = _row(_window_edge_scenario(), "causal-duality-sum")
    assert row.kind == "le" and 0.0 < 1.0 - row.lhs < PERTURBATION / 2
    p, s = 0.9, (1.0 + 1e-3) / 3.0
    assert 1.0 - row.lhs == pytest.approx((math.sqrt(1 - p) - s * math.sqrt(p)) ** 2, abs=1e-14)
