import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import switchlab.model as model

from switchlab.linalg import is_unitary, trace_norm
from switchlab.model import (
    CausalOrder,
    PathPreparation,
    SwitchScenario,
    WhichPathInteraction,
    branch_overlap,
    build_switch_unitary,
    build_which_path_unitary,
    contract_order,
    evolve_switch,
    explicit_realization,
    fixed_order_state,
    fixed_order_vector,
    full_marking,
    gram_spectrum,
    initial_state,
    interference_unitary,
    measure_order,
    no_marking,
    order_basis,
    order_marginal,
    post_select,
    reduce_state,
)
from switchlab.relations import random_scenario

from conftest import random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _branch_state(scn, order):
    """Pure (n, d) density operator of one definite-order branch."""
    return fixed_order_state(scn, order)


def _commuting_scenario(rng, order_weight=0.4, order_phase=0.9):
    """Random marking with a path-diagonal interference: the orders commute."""
    prep = PathPreparation((0.5, 0.5), tuple(rng.uniform(0, 2 * np.pi, 2)))
    wp = WhichPathInteraction((random_unitary(3, rng), random_unitary(3, rng)), 1)
    uq = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
    return SwitchScenario(prep, wp, uq, order_weight, order_phase)


def _orthogonal_branch_scenario(order_weight=0.5):
    """Quarter-rotation interference with a pi phase mark: branch overlap 0."""
    prep = PathPreparation((1.0, 0.0), (0.0, 0.0))
    eye = np.eye(2, dtype=complex)
    wp = WhichPathInteraction((eye, -eye), 0)
    uq = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    return SwitchScenario(prep, wp, uq, order_weight, 0.0)


# ---------------------------------------------------------------------------
# which-path unitary
# ---------------------------------------------------------------------------


def test_which_path_identity_marking():
    prep = PathPreparation((0.5, 0.5), (0.0, 0.0))
    wp = WhichPathInteraction((np.eye(2, dtype=complex), np.eye(2, dtype=complex)), 0)
    assert_allclose(build_which_path_unitary(prep, wp), np.eye(4))


def test_which_path_controlled_flip():
    scn = explicit_realization()
    u = build_which_path_unitary(scn.preparation, scn.interaction)
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(2)) + np.kron(
        np.diag([0.0, 1.0]), PAULI_X
    )
    assert_allclose(u, expected)


def test_which_path_detector_overlaps(rng):
    prep = PathPreparation((0.2, 0.5, 0.3), (0.0, 0.0, 0.0))
    vs = tuple(random_unitary(3, rng) for _ in range(3))
    wp = WhichPathInteraction(vs, 2)
    u = build_which_path_unitary(prep, wp)
    assert is_unitary(u)
    e0 = np.zeros(3, dtype=complex)
    e0[2] = 1.0
    states = wp.detector_states()
    for i in range(3):
        path = np.zeros(3, dtype=complex)
        path[i] = 1.0
        image = u @ np.kron(path, e0)
        assert_allclose(image, np.kron(path, states[i]), atol=1e-12)
    for i in range(3):
        for j in range(3):
            want = np.vdot(e0, vs[j].conj().T @ vs[i] @ e0)
            assert np.vdot(states[j], states[i]) == pytest.approx(want, abs=1e-12)


def test_which_path_dimension_mismatch(rng):
    prep = PathPreparation((0.5, 0.5), (0.0, 0.0))
    wp = WhichPathInteraction(tuple(random_unitary(2, rng) for _ in range(3)), 0)
    with pytest.raises(ValueError):
        build_which_path_unitary(prep, wp)


# ---------------------------------------------------------------------------
# switch unitary
# ---------------------------------------------------------------------------


def test_switch_unitary_identity():
    assert_allclose(build_switch_unitary(np.eye(3), np.eye(3)), np.eye(6))


def test_switch_unitary_commuting_blocks(rng):
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    u_a = np.diag(phases)
    u_b = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    u_sw = build_switch_unitary(u_a, u_b)
    block0 = u_sw[0::2, 0::2]
    block1 = u_sw[1::2, 1::2]
    assert_allclose(block0, block1, atol=1e-12)


def test_switch_unitary_builds_superposed_orders():
    scn = explicit_realization()
    u_a = build_which_path_unitary(scn.preparation, scn.interaction)
    u_b = np.kron(scn.interference, np.eye(2))
    u_sw = build_switch_unitary(u_a, u_b)
    assert is_unitary(u_sw)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    evolved = u_sw @ np.kron(initial_state(scn), plus)
    want = (
        np.kron(fixed_order_vector(scn, CausalOrder.A_THEN_B), [1.0, 0.0])
        + np.kron(fixed_order_vector(scn, CausalOrder.B_THEN_A), [0.0, 1.0])
    ) / np.sqrt(2)
    assert_allclose(evolved, want, atol=1e-12)


def test_switch_unitary_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_switch_unitary(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        build_switch_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


def test_switch_unitary_is_unitary_for_random_scenarios():
    for seed in range(20):
        scn = random_scenario(seed)
        u_a = build_which_path_unitary(scn.preparation, scn.interaction)
        u_b = np.kron(scn.interference, np.eye(scn.detector_dim))
        assert is_unitary(build_switch_unitary(u_a, u_b))


# ---------------------------------------------------------------------------
# branch pair against the dense unitaries
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(2, 5),
    st.booleans(),
)
def test_branch_pair_matches_dense_route(seed, n, d, mixed):
    scn = random_scenario(seed, n_paths=n, detector_dim=d, mixed_order=mixed)
    u_a = build_which_path_unitary(scn.preparation, scn.interaction)
    u_b = interference_unitary(scn)
    psi0 = initial_state(scn)
    va = fixed_order_vector(scn, CausalOrder.A_THEN_B)
    vb = fixed_order_vector(scn, CausalOrder.B_THEN_A)
    assert np.abs(va - u_b @ u_a @ psi0).max() <= 1e-12
    assert np.abs(vb - u_a @ u_b @ psi0).max() <= 1e-12
    # rho = A K A^dagger with A = [Psi_ab (x) |0>, Psi_ba (x) |1>]
    a = np.stack([np.kron(va, [1.0, 0.0]), np.kron(vb, [0.0, 1.0])], axis=1)
    want = a @ scn.order_state() @ a.conj().T
    assert np.abs(evolve_switch(scn).matrix - want).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(2, 5),
    st.booleans(),
)
def test_evolve_switch_matches_switch_unitary_conjugation(seed, n, d, mixed):
    scn = random_scenario(seed, n_paths=n, detector_dim=d, mixed_order=mixed)
    u_sw = build_switch_unitary(
        build_which_path_unitary(scn.preparation, scn.interaction), interference_unitary(scn)
    )
    psi0 = initial_state(scn)
    rho_in = np.kron(np.outer(psi0, psi0.conj()), scn.order_state())
    want = u_sw @ rho_in @ u_sw.conj().T
    assert np.abs(evolve_switch(scn).matrix - want).max() <= 1e-12


def _padded(spectrum, dim):
    """A 2x2 Gram spectrum, padded with the zeros of the (n d)-dim operator."""
    return np.sort(np.concatenate([spectrum, np.zeros(dim - 2)]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(2, 5),
    st.booleans(),
    st.floats(0.0, 2 * np.pi),
)
def test_gram_core_matches_dense_route(seed, n, d, mixed, phi):
    scn = random_scenario(seed, n_paths=n, detector_dim=d, mixed_order=mixed)
    p, k = scn.order_weight, scn.order_state()
    rho_tot = evolve_switch(scn)
    rho_qd = reduce_state(rho_tot, "qd")
    # spec rho = spec K: the joint state is K on the span of its two columns
    assert np.abs(_padded(np.linalg.eigvalsh(k), 2 * n * d) - rho_tot.spectrum).max() <= 1e-12
    assert np.abs(order_marginal(scn) - reduce_state(rho_tot, "o").matrix).max() <= 1e-12
    qd = gram_spectrum(scn, np.diag([p, 1 - p]))
    assert np.abs(_padded(qd, n * d) - rho_qd.spectrum).max() <= 1e-12
    ab, ba = (fixed_order_vector(scn, order) for order in CausalOrder)
    helstrom = p * np.outer(ab, ab.conj()) - (1 - p) * np.outer(ba, ba.conj())
    spectrum = _padded(gram_spectrum(scn, np.diag([p, p - 1])), n * d)
    assert np.abs(spectrum - np.linalg.eigvalsh(helstrom)).max() <= 1e-12
    vectors = order_basis(phi)
    blocks = contract_order(rho_tot, vectors)
    weights = np.conj(vectors)[:, :, None] * k * vectors[:, None, :]
    for block, spectrum, result in zip(blocks, gram_spectrum(scn, weights), post_select(scn, phi)):
        assert np.abs(_padded(spectrum, n * d) - np.linalg.eigvalsh(block)).max() <= 1e-12
        assert abs(result.probability - np.trace(block).real) <= 1e-12
        if not result.degenerate:
            state = result.probability * result.conditional_qd.matrix
            assert np.abs(state - block).max() <= 1e-12


def test_outcome_states_are_built_from_the_branch_pair(monkeypatch):
    """A near-degenerate outcome is a valid state: W W^dagger / p_u, no dense block."""

    def forbidden(*args):
        raise AssertionError("dense joint state used")

    monkeypatch.setattr(model, "contract_order", forbidden)
    monkeypatch.setattr(model, "build_which_path_unitary", forbidden)
    for weight in (0.50001, 0.4999, 0.5001):
        plus, minus = post_select(full_marking(weight), 0.0)
        assert 1e-12 < minus.probability < 1e-7 and not minus.degenerate
        for result in (plus, minus):
            assert np.trace(result.conditional_qd.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert result.conditional_qd.spectrum.min() >= -1e-15


def test_fixed_order_vector_builds_no_joint_unitary(monkeypatch):
    def forbidden(*args):
        raise AssertionError("joint-space unitary built")

    monkeypatch.setattr(model, "build_which_path_unitary", forbidden)
    monkeypatch.setattr(model, "interference_unitary", forbidden)
    scn = random_scenario(8, n_paths=4, detector_dim=3)
    for order in CausalOrder:
        assert fixed_order_vector(scn, order).shape == (12,)


def test_scenario_memo_is_read_only_and_per_instance():
    scn = random_scenario(19)
    assert evolve_switch(scn) is evolve_switch(scn)
    for order in CausalOrder:
        vec = fixed_order_vector(scn, order)
        assert vec is fixed_order_vector(scn, order)
        assert not vec.flags.writeable
    assert not evolve_switch(scn).matrix.flags.writeable
    moved = dataclasses.replace(scn, order_weight=0.25)
    rho_o = reduce_state(evolve_switch(moved), "o")
    assert rho_o.matrix[0, 0].real == pytest.approx(0.25, abs=1e-12)
    assert reduce_state(evolve_switch(scn), "o").matrix[0, 0].real == pytest.approx(
        scn.order_weight, abs=1e-12
    )


def test_fixed_order_states_are_memoized_per_instance():
    scn = random_scenario(23, mixed_order=True)
    states = [fixed_order_state(scn, order) for order in CausalOrder]
    for order, state in zip(CausalOrder, states):
        assert fixed_order_state(scn, order) is state
        assert fixed_order_state(scn, order.value) is state
        vec = fixed_order_vector(scn, order)
        assert_allclose(state.matrix, np.outer(vec, vec.conj()), atol=1e-15)
    moved = dataclasses.replace(scn, order_phase=0.5)
    for order, state in zip(CausalOrder, states):
        assert fixed_order_state(moved, order) is not state


def test_gram_core_is_memoized_per_instance():
    scn = random_scenario(23, mixed_order=True)
    gram, root = scn._gram
    assert scn._gram[0] is gram and scn._gram[1] is root
    assert not gram.flags.writeable and not root.flags.writeable
    branches = np.stack([fixed_order_vector(scn, order) for order in CausalOrder], axis=1)
    assert_allclose(gram, branches.conj().T @ branches, atol=1e-15)
    assert_allclose(root @ root, gram, atol=1e-15)
    for order in CausalOrder:
        assert fixed_order_vector(scn, order.value) is fixed_order_vector(scn, order)
    moved = dataclasses.replace(scn, order_phase=0.5)
    assert moved._gram[0] is not gram


# ---------------------------------------------------------------------------
# evolution and reductions
# ---------------------------------------------------------------------------


def test_evolve_definite_orders(rng):
    scn = random_scenario(5, n_paths=2, detector_dim=2)
    for p, order, slot in ((1.0, CausalOrder.A_THEN_B, 0), (0.0, CausalOrder.B_THEN_A, 1)):
        definite = SwitchScenario(
            scn.preparation, scn.interaction, scn.interference, p, scn.order_phase
        )
        rho_tot = evolve_switch(definite)
        branch = _branch_state(definite, order)
        pointer = np.zeros((2, 2))
        pointer[slot, slot] = 1.0
        assert_allclose(
            rho_tot.matrix, np.kron(branch.matrix, pointer), atol=1e-12
        )


def test_evolve_pure_preparation_stays_pure():
    for seed in range(10):
        rho_tot = evolve_switch(random_scenario(seed))
        assert rho_tot.purity() == pytest.approx(1.0, abs=1e-10)


def test_evolve_matches_branch_superposition(rng):
    scn = random_scenario(11)
    rho_tot = evolve_switch(scn)
    p, theta = scn.order_weight, scn.order_phase
    va = fixed_order_vector(scn, CausalOrder.A_THEN_B)
    vb = fixed_order_vector(scn, CausalOrder.B_THEN_A)
    psi = np.kron(va, [1.0, 0.0]) * np.sqrt(p) + np.kron(vb, [0.0, 1.0]) * np.sqrt(
        1 - p
    ) * np.exp(1j * theta)
    assert_allclose(rho_tot.matrix, np.outer(psi, psi.conj()), atol=1e-12)


def test_fixed_order_commuting_sector_agrees(rng):
    scn = _commuting_scenario(rng)
    rho_ab = _branch_state(scn, CausalOrder.A_THEN_B)
    rho_ba = _branch_state(scn, CausalOrder.B_THEN_A)
    assert trace_norm(rho_ab.matrix - rho_ba.matrix) < 1e-9


def test_fixed_order_marked_then_phased():
    phases = (0.3, 1.2)
    scn = explicit_realization(interference_phases=phases)
    vec = fixed_order_vector(scn, CausalOrder.A_THEN_B)
    want = np.zeros(4, dtype=complex)
    want[0] = np.exp(1j * phases[0]) / np.sqrt(2)  # |0>|d0>
    want[3] = np.exp(1j * phases[1]) / np.sqrt(2)  # |1>|d1>
    assert_allclose(vec, want, atol=1e-12)


def test_fixed_order_overlap_rearrangement(rng):
    scn = random_scenario(23)
    va = fixed_order_vector(scn, CausalOrder.A_THEN_B)
    vb = fixed_order_vector(scn, CausalOrder.B_THEN_A)
    u_a = build_which_path_unitary(scn.preparation, scn.interaction)
    u_b = np.kron(scn.interference, np.eye(scn.detector_dim))
    psi0 = initial_state(scn)
    rearranged = np.vdot(psi0, u_a.conj().T @ u_b.conj().T @ u_a @ u_b @ psi0)
    assert np.vdot(va, vb) == pytest.approx(rearranged, abs=1e-12)


def test_reduce_commuting_kappa(rng):
    scn = _commuting_scenario(rng, order_weight=0.5, order_phase=0.7)
    rho_o = reduce_state(evolve_switch(scn), "o")
    assert rho_o.matrix[0, 1] == pytest.approx(0.5 * np.exp(-0.7j), abs=1e-12)


def test_reduce_orthogonal_branches_kill_kappa():
    rho_o = reduce_state(evolve_switch(_orthogonal_branch_scenario()), "o")
    assert abs(rho_o.matrix[0, 1]) < 1e-12


def test_reduce_kappa_matches_branch_overlap():
    for seed in (2, 9, 31):
        scn = random_scenario(seed)
        rho_o = reduce_state(evolve_switch(scn), "o")
        want = scn.order_offdiagonal() * np.conj(branch_overlap(scn))
        assert rho_o.matrix[0, 1] == pytest.approx(want, abs=1e-12)
        assert abs(rho_o.matrix[0, 1]) <= np.sqrt(
            scn.order_weight * (1 - scn.order_weight)
        ) + 1e-12


def test_reduce_qd_is_convex_mixture():
    for seed in (4, 17):
        scn = random_scenario(seed, mixed_order=(seed == 17))
        rho_qd = reduce_state(evolve_switch(scn), "qd")
        p = scn.order_weight
        mix = (
            p * _branch_state(scn, CausalOrder.A_THEN_B).matrix
            + (1 - p) * _branch_state(scn, CausalOrder.B_THEN_A).matrix
        )
        assert np.abs(rho_qd.matrix - mix).max() < 1e-10


def test_reduce_rejects_bad_input(rng):
    scn = random_scenario(3)
    rho_tot = evolve_switch(scn)
    with pytest.raises(ValueError):
        reduce_state(rho_tot, "detector")
    bad = reduce_state(rho_tot, "qd")
    with pytest.raises(ValueError):
        reduce_state(bad, "qd")


# ---------------------------------------------------------------------------
# post-selection
# ---------------------------------------------------------------------------


def test_post_select_without_causal_coherence_is_even():
    plus, minus = post_select(_orthogonal_branch_scenario(), 0.0)
    assert plus.probability == pytest.approx(0.5, abs=1e-12)
    assert minus.probability == pytest.approx(0.5, abs=1e-12)


def test_post_select_flagship_degenerate_minus():
    plus, minus = post_select(explicit_realization(), 0.0)
    assert plus.probability == pytest.approx(1.0, abs=1e-12)
    assert minus.degenerate and minus.conditional_qd is None and minus.gamma is None
    assert not plus.degenerate


def test_post_select_outcome_average_recovers_reduction():
    for seed in (7, 13):
        scn = random_scenario(seed)
        rho_tot = evolve_switch(scn)
        rho_qd = reduce_state(rho_tot, "qd")
        plus, minus = post_select(scn, 1.3)
        mixture = np.zeros_like(rho_qd.matrix)
        for res in (plus, minus):
            if not res.degenerate:
                mixture += res.probability * res.conditional_qd.matrix
        assert np.abs(mixture - rho_qd.matrix).max() < 1e-10


def test_post_select_probabilities_sum_to_one(rng):
    scn = random_scenario(41)
    for phi in rng.uniform(0, 2 * np.pi, 12):
        plus, minus = post_select(scn, phi)
        assert plus.probability + minus.probability == pytest.approx(1.0, abs=1e-10)


def test_post_select_near_degenerate_outcome_stays_valid():
    # p_minus is about 1.6e-8 here: small enough that forming P rho P in
    # one contraction once left a conditional eigenvalue below -PSD_TOL
    plus, minus = post_select(explicit_realization(), 2.5292014667599753e-4)
    for result in (plus, minus):
        assert not result.degenerate
        assert np.trace(result.conditional_qd.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(result.conditional_qd.matrix).min() >= -1e-10
        assert np.linalg.eigvalsh(result.conditional_q.matrix).min() >= -1e-10
    assert minus.probability == pytest.approx(1.6e-8, rel=0.01)


def test_post_select_reduces_quanton_state_on_first_read(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    scn = random_scenario(37, n_paths=3, detector_dim=4, mixed_order=True)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    plus, minus = post_select(scn, 0.8)
    assert calls == [(12, 12), (12, 12)]
    assert not plus.degenerate and not minus.degenerate
    gamma = plus.gamma
    assert calls[2:] == [(3, 3)]
    assert plus.conditional_q is plus.conditional_q
    assert gamma == plus.conditional_q.matrix[0, 1]
    assert len(calls) == 3
    assert minus.conditional_q.dims == (3,)
    assert calls[3:] == [(3, 3)]


def test_order_factor_is_contracted_without_kronecker_projectors(monkeypatch):
    scn = random_scenario(29, mixed_order=True)
    p = scn.order_weight
    rho_ab = _branch_state(scn, CausalOrder.A_THEN_B).matrix
    rho_ba = _branch_state(scn, CausalOrder.B_THEN_A).matrix

    def forbidden(*args):
        raise AssertionError("Kronecker product formed")

    monkeypatch.setattr(np, "kron", forbidden)
    plus, minus = post_select(scn, 0.4)
    zero, one = measure_order(scn, np.eye(2, dtype=complex))
    monkeypatch.undo()
    assert (plus.outcome, minus.outcome) == ("+", "-")
    assert plus.probability + minus.probability == pytest.approx(1.0, abs=1e-12)
    assert (zero.outcome, one.outcome) == ("0", "1")
    assert zero.probability == pytest.approx(p, abs=1e-12)
    assert one.probability == pytest.approx(1 - p, abs=1e-12)
    assert np.abs(zero.conditional_qd.matrix - rho_ab).max() < 1e-12
    assert np.abs(one.conditional_qd.matrix - rho_ba).max() < 1e-12


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValueError):
        PathPreparation((0.6, 0.6), (0.0, 0.0))
    with pytest.raises(ValueError):
        PathPreparation((1.2, -0.2), (0.0, 0.0))
    with pytest.raises(ValueError):
        WhichPathInteraction((np.array([[1.0, 1.0], [0.0, 1.0]]),) * 2, 0)
    base = no_marking()
    with pytest.raises(ValueError):
        SwitchScenario(
            base.preparation,
            base.interaction,
            base.interference,
            0.3,
            0.0,
            order_offdiag=0.5 + 0.0j,  # |k|^2 > p(1-p) = 0.21
        )
    with pytest.raises(ValueError):
        SwitchScenario(
            base.preparation, base.interaction, base.interference, 1.7, 0.0
        )
    with pytest.raises(ValueError, match="finite"):
        PathPreparation((float("nan"), 1.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        PathPreparation((0.5, 0.5), (0.0, float("inf")))
    with pytest.raises(ValueError, match="finite"):
        SwitchScenario(
            base.preparation, base.interaction, base.interference, 0.5, float("nan")
        )
    with pytest.raises(ValueError, match="order_offdiag"):
        SwitchScenario(
            base.preparation,
            base.interaction,
            base.interference,
            0.5,
            0.0,
            order_offdiag=complex("nan"),
        )
