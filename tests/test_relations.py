import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchlab.linalg as linalg
import switchlab.model as model
import switchlab.relations as relations
from switchlab.discrimination import DiscriminationProblem, helstrom_guess
from switchlab.linalg import partial_trace, pure_state_density, von_neumann_entropy
from switchlab.measures import binary_entropy, conditional_entropy_after_measurement, l1_coherence
from switchlab.model import (
    CausalOrder,
    PathPreparation,
    SwitchScenario,
    WhichPathInteraction,
    explicit_realization,
    evolve_switch,
    no_marking,
    post_select,
    reduce_state,
)
from switchlab.relations import (
    check_entropic_bound,
    check_fixed_order_duality,
    check_ico_duality,
    check_overlap_lemma,
    check_post_selected_duality,
    check_post_selection_mixture,
    nogo_counterexample,
    post_selection_symmetry_holds,
    random_scenario,
    random_symmetric_scenario,
    region_scenario,
    region_sweep,
    scenario_fingerprint,
    scenario_quantities,
    verify_scenario,
)

from conftest import random_unitary


# ---------------------------------------------------------------------------
# fixed-order and reduced-state duality
# ---------------------------------------------------------------------------


def test_fixed_order_duality_full_marking():
    scn = explicit_realization()
    for order in CausalOrder:
        check = check_fixed_order_duality(scn, order)
        assert check.holds
        assert check.lhs == pytest.approx(1.0, abs=1e-12)


def test_fixed_order_duality_no_marking():
    scn = no_marking()
    check = check_fixed_order_duality(scn, CausalOrder.A_THEN_B)
    assert check.holds


def test_fixed_order_duality_random_scenarios():
    for seed in range(40):
        scn = random_scenario(seed)
        for order in CausalOrder:
            check = check_fixed_order_duality(scn, order)
            assert check.holds, (seed, order, check)


def test_ico_duality_definite_order_reduces_to_fixed():
    scn = random_scenario(3, n_paths=2)
    definite = SwitchScenario(
        scn.preparation, scn.interaction, scn.interference, 1.0, 0.0
    )
    convexity, duality = check_ico_duality(definite)
    assert convexity.holds and duality.holds
    assert duality.lhs == pytest.approx(1.0, abs=1e-9)


def test_ico_duality_flagship_values():
    convexity, duality = check_ico_duality(explicit_realization())
    assert convexity.holds and duality.holds
    assert convexity.lhs == pytest.approx(0.0, abs=1e-12)  # reduced coherence
    assert duality.lhs == pytest.approx(1.0, abs=1e-12)  # coherence + bound


def test_ico_duality_random_scenarios():
    for seed in range(60):
        scn = random_scenario(seed, mixed_order=(seed % 3 == 0))
        for check in check_ico_duality(scn):
            assert check.holds, (seed, check)


# ---------------------------------------------------------------------------
# post-selected duality
# ---------------------------------------------------------------------------


def test_post_selected_duality_without_causal_coherence():
    # bit-flip marking with swapped paths: the two branches are orthogonal,
    # both outcomes are equally likely, and post-selection restores coherence
    prep = PathPreparation((0.5, 0.5), (0.0, 0.0))
    eye = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    wp = WhichPathInteraction((eye, flip), 0)
    scn = SwitchScenario(prep, wp, flip.copy(), 0.5, 0.0)
    rho_o = reduce_state(evolve_switch(scn), "o")
    assert abs(rho_o.matrix[0, 1]) < 1e-12
    plus, minus = post_select(scn, 0.0)
    assert plus.probability == pytest.approx(0.5, abs=1e-12)
    assert minus.probability == pytest.approx(0.5, abs=1e-12)
    assert abs(plus.gamma) == pytest.approx(0.5, abs=1e-12)  # eraser: C = 1
    plus_check, minus_check = check_post_selected_duality(scn, 0.0)
    assert plus_check.holds and minus_check.holds


def test_post_selected_duality_flagship_degenerate_branch():
    plus_check, minus_check = check_post_selected_duality(explicit_realization(), 0.0)
    assert plus_check.holds and minus_check.holds


def test_post_selected_duality_random_symmetric():
    for seed in range(30):
        scn = random_symmetric_scenario(seed)
        assert post_selection_symmetry_holds(scn, 0.0)
        for check in check_post_selected_duality(scn, 0.0):
            assert check.holds, (seed, check)


def test_post_selected_duality_diagonal_interference_any_phase(rng):
    scn = random_symmetric_scenario(5)
    phi = float(rng.uniform(0, 2 * np.pi))
    if post_selection_symmetry_holds(scn, phi):
        for check in check_post_selected_duality(scn, phi):
            assert check.holds


def test_post_selected_duality_rejects_asymmetric():
    scn = random_scenario(12, n_paths=2)  # generic interference breaks the symmetry
    with pytest.raises(
        ValueError, match="path probabilities|balanced-branch|symmetry"
    ):
        check_post_selected_duality(scn, 0.0)
    assert not post_selection_symmetry_holds(scn, 0.0)


def test_post_selection_mixture_always_recovers_reduction(rng):
    for seed in range(20):
        scn = random_scenario(seed, mixed_order=(seed % 2 == 0))
        check = check_post_selection_mixture(scn, float(rng.uniform(0, 2 * np.pi)))
        assert check.holds, (seed, check)


# ---------------------------------------------------------------------------
# no-go counterexample
# ---------------------------------------------------------------------------


def test_nogo_flagship_point():
    result = nogo_counterexample(0.5)
    assert result.spatial_coherence == pytest.approx(0.0, abs=1e-12)
    assert result.distinguishability_bound == pytest.approx(1.0, abs=1e-12)
    assert result.causal_coherence == pytest.approx(1.0, abs=1e-12)
    for alpha in (0.01, 0.1, 1.0):
        assert result.margin(alpha) == pytest.approx(alpha, abs=1e-12)


def test_nogo_pipeline_matches_closed_form():
    for p in (0.1, 0.25, 0.5, 0.8):
        result = nogo_counterexample(p)
        assert result.causal_coherence == pytest.approx(
            2 * np.sqrt(p * (1 - p)), abs=1e-9
        )
        assert result.margin(0.01) > 0.0
    assert nogo_counterexample(0.25).causal_coherence == pytest.approx(
        2 * np.sqrt(0.1875), abs=1e-9
    )


def test_nogo_rejects_definite_order():
    with pytest.raises(ValueError):
        nogo_counterexample(0.0)
    with pytest.raises(ValueError):
        nogo_counterexample(1.0)


# ---------------------------------------------------------------------------
# region sweep
# ---------------------------------------------------------------------------


def test_region_sweep_covers_unit_square():
    points = region_sweep(21, 21)
    assert len(points) == 441
    xs = np.array([pt.x for pt in points])
    ys = np.array([pt.y for pt in points])
    assert xs.min() <= 0.05 and xs.max() >= 0.95
    assert ys.min() <= 0.05 and ys.max() >= 0.95
    assert np.all(xs <= 1 + 1e-9) and np.all(ys <= 1 + 1e-9)
    corner = any(abs(pt.x - 1) < 1e-9 and abs(pt.y - 1) < 1e-9 for pt in points)
    assert corner


def test_region_commuting_full_marking_corner():
    scn = region_scenario(0.5, 0.0)  # orthogonal detectors, commuting interference
    q = scenario_quantities(scn)
    assert q["spatial_coherence"] + q["distinguishability_bound"] == pytest.approx(1.0)
    assert q["causal_coherence"] == pytest.approx(1.0)


def test_region_definite_order_column():
    for w in (-1.0, -0.3, 0.4, 1.0):
        scn = region_scenario(1.0, w)
        q = scenario_quantities(scn)
        assert q["causal_coherence"] == pytest.approx(0.0, abs=1e-12)


def test_region_scenario_rejects_bad_overlap():
    with pytest.raises(ValueError):
        region_scenario(0.5, 1.2)


# ---------------------------------------------------------------------------
# entropic bound
# ---------------------------------------------------------------------------


def test_entropic_bound_flagship_is_tight():
    report, check = check_entropic_bound(explicit_realization())
    assert check.holds
    assert report.bloch_norm == pytest.approx(1.0, abs=1e-12)
    assert report.bound == pytest.approx(1.0, abs=1e-9)
    assert report.slack >= -1e-9
    assert report.slack == pytest.approx(0.0, abs=1e-9)


def test_entropic_bound_orthogonal_branches_trivial():
    prep = PathPreparation((1.0, 0.0), (0.0, 0.0))
    eye = np.eye(2, dtype=complex)
    wp = WhichPathInteraction((eye, -eye), 0)
    uq = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    scn = SwitchScenario(prep, wp, uq, 0.5, 0.0)
    report, check = check_entropic_bound(scn)
    assert check.holds
    assert report.bloch_norm == pytest.approx(0.0, abs=1e-12)
    assert report.order_entropy == pytest.approx(1.0, abs=1e-12)
    assert report.bound == pytest.approx(0.0, abs=1e-9)


def test_entropic_bound_random_pure_and_mixed():
    for seed in range(30):
        scn = random_scenario(seed, mixed_order=(seed % 2 == 0))
        report, check = check_entropic_bound(scn)
        assert check.holds, (seed, report)
        assert report.order_entropy == pytest.approx(
            binary_entropy((1 + report.bloch_norm) / 2), abs=1e-9
        )


def test_entropic_bound_uncorrelated_mixed_order():
    scn = random_scenario(8, n_paths=2, detector_dim=2)
    flat = SwitchScenario(
        scn.preparation, scn.interaction, scn.interference, 0.5, 0.0, order_offdiag=0j
    )
    report, check = check_entropic_bound(flat)
    assert check.holds
    # kappa0 = 0 keeps the order qubit maximally mixed
    assert report.order_entropy == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# overlap lemma
# ---------------------------------------------------------------------------


def test_overlap_lemma_identity_and_permutation(rng):
    scn = random_scenario(14, detector_dim=3)
    check = check_overlap_lemma(scn, np.eye(3))
    assert check.holds and check.lhs < 1e-12
    permutation = np.eye(3)[[2, 0, 1]]
    assert check_overlap_lemma(scn, permutation).holds


def test_overlap_lemma_random_unitaries(rng):
    for seed in range(20):
        scn = random_scenario(seed)
        w = random_unitary(scn.detector_dim, rng)
        check = check_overlap_lemma(scn, w)
        assert check.holds, (seed, check)


def test_overlap_lemma_ensemble_half_can_fail(monkeypatch):
    scn = random_scenario(31, n_paths=3, detector_dim=3, mixed_order=True)
    assert check_overlap_lemma(scn, np.eye(3)).holds
    other = dataclasses.replace(scn, order_weight=scn.order_weight / 2.0, order_offdiag=0.0)
    monkeypatch.setattr(relations, "evolve_switch", lambda s: model.evolve_switch(other))
    check = check_overlap_lemma(scn, np.eye(3))
    assert check.name == "helstrom-overlap-invariance"
    assert not check.holds and check.lhs > 1e-3


def test_overlap_lemma_rejects_non_unitary():
    scn = random_scenario(2, detector_dim=2)
    with pytest.raises(ValueError):
        check_overlap_lemma(scn, np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# battery, fingerprints, determinism
# ---------------------------------------------------------------------------


def test_verify_battery_all_hold():
    for seed in (0, 1, 2):
        checks = verify_scenario(random_scenario(seed), seed=seed)
        assert all(c.holds for c in checks), [c for c in checks if not c.holds]
        assert all(c.context == checks[0].context for c in checks)


def test_verify_scenario_evolves_each_scenario_once(monkeypatch):
    builds = []
    build = model.build_which_path_unitary

    def counted(preparation, interaction):
        builds.append(interaction.n)
        return build(preparation, interaction)

    monkeypatch.setattr(model, "build_which_path_unitary", counted)
    for scn in (
        random_scenario(5),
        random_scenario(6, mixed_order=True),
        random_symmetric_scenario(7),
    ):
        builds.clear()
        checks = verify_scenario(scn, seed=1)
        assert all(c.holds for c in checks)
        # once for the scenario, once for the no-go counterexample
        assert len(builds) <= 2


@pytest.mark.parametrize("mixed", [True, False])
def test_verify_scenario_decomposes_each_state_once(monkeypatch, mixed):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    def forbidden(*args):
        raise AssertionError("switch unitary built")

    scn = random_scenario(11, 4, 4, mixed_order=mixed)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(model, "build_switch_unitary", forbidden)
    checks = verify_scenario(scn, seed=1)
    assert all(c.holds for c in checks)
    # one per distinct validated state plus two Helstrom trace norms
    assert len(calls) <= 25
    # the joint state is the only 2nd-dimensional matrix decomposed
    assert calls.count((32, 32)) == 1 and max(calls) == (32, 32)


def test_post_selected_closed_form_uses_order_offdiag_phase():
    for seed in range(6):
        base = random_symmetric_scenario(seed)
        p, theta = base.order_weight, base.order_phase
        offdiag = np.sqrt(p * (1 - p)) * np.exp(-1j * (theta + 1.0))
        scn = dataclasses.replace(base, order_offdiag=offdiag)
        assert scn.has_pure_order()
        checks = verify_scenario(scn, seed=seed)
        names = [c.name for c in checks]
        assert "post-selected-duality:+" in names and "post-selected-duality:-" in names
        assert all(c.holds for c in checks), [c for c in checks if not c.holds]


def test_relation_check_holds_is_recomputed():
    checks = verify_scenario(explicit_realization(), seed=0)
    sample = checks[0]
    assert sample.holds
    worse = type(sample)(sample.name, sample.lhs + 1.0, sample.rhs, sample.kind, sample.tol, sample.context)
    assert not worse.holds


def test_fingerprint_is_deterministic_and_sensitive():
    scn_a = random_scenario(99)
    scn_b = random_scenario(99)
    assert scenario_fingerprint(scn_a, 99) == scenario_fingerprint(scn_b, 99)
    assert scenario_fingerprint(scn_a, 99) != scenario_fingerprint(scn_a, 100)
    other = random_scenario(100)
    assert scenario_fingerprint(scn_a) != scenario_fingerprint(other)


def test_battery_deterministic_values():
    first = verify_scenario(random_scenario(7), seed=7)
    second = verify_scenario(random_scenario(7), seed=7)
    assert [(c.name, c.lhs, c.rhs) for c in first] == [
        (c.name, c.lhs, c.rhs) for c in second
    ]


# ---------------------------------------------------------------------------
# the library quantities come from the branch pair and K alone
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(2, 5),
    st.booleans(),
    st.floats(0.0, 2 * np.pi),
)
def test_scenario_quantities_match_dense_route(seed, n, d, mixed, phi):
    scn = random_scenario(seed, n_paths=n, detector_dim=d, mixed_order=mixed)
    q = scenario_quantities(scn, phi)
    rho_tot = evolve_switch(scn)
    rho_o = reduce_state(rho_tot, "o")
    rho_qd = reduce_state(rho_tot, "qd")
    p = scn.order_weight
    branches = [pure_state_density(model.fixed_order_vector(scn, o), (n, d)) for o in CausalOrder]
    dense = {
        "spatial_coherence": l1_coherence(reduce_state(rho_tot, "q").matrix, n),
        "causal_coherence": l1_coherence(rho_o),
        "p_plus": model.order_basis(phi)[0].conj() @ rho_o.matrix @ model.order_basis(phi)[0],
        "order_entropy": von_neumann_entropy(rho_o),
        "entropy_z": conditional_entropy_after_measurement(rho_tot, "z"),
        "entropy_x": conditional_entropy_after_measurement(rho_tot, "x"),
        "entropic_bound": 1 + von_neumann_entropy(rho_tot) - von_neumann_entropy(rho_qd),
        "helstrom_guess": helstrom_guess(DiscriminationProblem(p, *branches)),
    }
    for name, value in dense.items():
        assert abs(q[name] - value) <= 1e-12, name
    for o, state in zip(CausalOrder, branches):
        coherence = l1_coherence(partial_trace(state, (0,)), n)
        assert abs(q[f"coherence_{o.value.replace('-', '_')}"] - coherence) <= 1e-12


def test_library_path_forms_nothing_larger_than_n_by_n(monkeypatch):
    eigen = []

    def small_only(decompose):
        def checked(m, *args, **kwargs):
            assert np.shape(m)[-2:] <= (2, 2), np.shape(m)
            eigen.append(np.shape(m))
            return decompose(m, *args, **kwargs)

        return checked

    def forbidden(*args, **kwargs):
        raise AssertionError("dense route used")

    monkeypatch.setattr(np.linalg, "eigvalsh", small_only(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", small_only(np.linalg.eigh))
    monkeypatch.setattr(linalg.DensityOperator, "__post_init__", forbidden)
    for owner in (model, relations):
        monkeypatch.setattr(owner, "evolve_switch", forbidden)
    monkeypatch.setattr(model, "build_which_path_unitary", forbidden)
    q = scenario_quantities(random_scenario(11, 4, 4, mixed_order=True), 0.3)
    assert 0.0 <= q["causal_coherence"] <= 1.0
    assert len(region_sweep(3, 3)) == 9
    assert nogo_counterexample(0.3).causal_coherence > 0.0
    assert eigen and all(shape[-2:] == (2, 2) for shape in eigen)


def test_scenario_quantities_reach_sizes_the_dense_route_cannot():
    # the joint state here would be 8192 x 8192 complex entries (1 GiB)
    q = scenario_quantities(random_scenario(0, 64, 64, mixed_order=True))
    assert q["entropic_slack"] >= -1e-9
    assert 0.0 <= q["spatial_coherence"] <= q["coherence_convex_bound"] + 1e-9
