import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from switchlab.linalg import DensityOperator, partial_trace, pure_state_density, von_neumann_entropy
from switchlab.measures import (
    binary_entropy,
    causal_coherence,
    causal_visibility,
    conditional_entropy_after_measurement,
    l1_coherence,
    order_bloch_norm,
    order_interference,
    path_distinguishability,
)
from switchlab.model import (
    PathPreparation,
    SwitchScenario,
    WhichPathInteraction,
    branch_overlap,
    contract_order,
    evolve_switch,
    explicit_realization,
    full_marking,
    order_basis,
    post_select,
    reduce_state,
)
from switchlab.relations import random_scenario
import switchlab.measures as measures

from conftest import random_density, random_pure_vector

_QUARTER_TURN = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)


def _phase_marked_scenario(order_weight, marking_phase, order_phase=0.0):
    """Single occupied path, pure phase mark: branch overlap (1 + e^{i delta})/2."""
    prep = PathPreparation((1.0, 0.0), (0.0, 0.0))
    eye = np.eye(2, dtype=complex)
    wp = WhichPathInteraction((eye, np.exp(1j * marking_phase) * eye), 0)
    return SwitchScenario(prep, wp, _QUARTER_TURN.copy(), order_weight, order_phase)


# ---------------------------------------------------------------------------
# l1 coherence
# ---------------------------------------------------------------------------


def test_l1_coherence_diagonal_is_zero():
    assert l1_coherence(np.diag([0.2, 0.3, 0.5])) == 0.0


def test_l1_coherence_equal_superposition_is_one():
    for n in (2, 3, 5):
        vec = np.ones(n) / np.sqrt(n)
        rho = np.outer(vec, vec)
        assert l1_coherence(rho, n) == pytest.approx(1.0)


def test_l1_coherence_two_path_offdiagonal():
    rho = np.array([[0.5, 0.3], [0.3, 0.5]])
    assert l1_coherence(rho, 2) == pytest.approx(0.6)


def test_l1_coherence_rejects_trivial_basis():
    with pytest.raises(ValueError):
        l1_coherence(np.array([[1.0]]), 1)
    with pytest.raises(ValueError):
        l1_coherence(np.eye(2), 3)


def test_l1_coherence_is_convex(rng):
    for _ in range(40):
        rho = random_density((3,), rng)
        sigma = random_density((3,), rng)
        lam = rng.uniform()
        mixed = DensityOperator(
            lam * rho.matrix + (1 - lam) * sigma.matrix, (3,)
        )
        bound = lam * l1_coherence(rho.matrix) + (1 - lam) * l1_coherence(sigma.matrix)
        assert l1_coherence(mixed.matrix) <= bound + 1e-10


# ---------------------------------------------------------------------------
# path distinguishability
# ---------------------------------------------------------------------------


def test_distinguishability_orthogonal_detectors():
    states = [np.array([1, 0, 0]), np.array([0, 1, 0]), np.array([0, 0, 1])]
    assert path_distinguishability((0.2, 0.3, 0.5), states) == pytest.approx(1.0)


def test_distinguishability_identical_detectors():
    state = np.array([1.0, 0.0])
    assert path_distinguishability((0.5, 0.5), [state, state]) == pytest.approx(0.0)


def test_distinguishability_partial_overlap():
    d0 = np.array([1.0, 0.0])
    d1 = np.array([0.6, 0.8])
    assert path_distinguishability((0.5, 0.5), [d0, d1]) == pytest.approx(0.4)


def test_distinguishability_rejects_unnormalized():
    with pytest.raises(ValueError):
        path_distinguishability((0.5, 0.6), [np.array([1, 0]), np.array([0, 1])])
    with pytest.raises(ValueError):
        path_distinguishability((0.5, 0.5), [np.array([2.0, 0]), np.array([0, 1.0])])


def test_unit_range_round_off_is_snapped_and_violations_kept():
    assert l1_coherence(np.full((2, 2), 0.5 + 4e-13)) == 1.0
    assert l1_coherence(np.full((2, 2), 0.5 + 1e-9)) == pytest.approx(1 + 2e-9, abs=1e-15)
    d0 = np.array([1.0, 0.0])
    assert path_distinguishability((0.5, 0.5), [d0, d0 * (1 + 1e-13)]) == 0.0
    assert path_distinguishability((0.5, 0.5), [d0, d0 * (1 + 1e-10)]) == pytest.approx(
        -1e-10, abs=1e-15
    )


# ---------------------------------------------------------------------------
# causal coherence
# ---------------------------------------------------------------------------


def test_causal_coherence_extremes():
    assert causal_coherence(0.5, 1.0) == pytest.approx(1.0)
    assert causal_coherence(0.0, 1.0) == 0.0
    assert causal_coherence(1.0, 0.3) == 0.0


def test_causal_coherence_matches_constructed_overlap():
    # phase mark of 2 pi / 3 gives branch overlap cos(pi/3) = 1/2
    scn = _phase_marked_scenario(0.3, 2 * np.pi / 3)
    overlap = branch_overlap(scn)
    assert abs(overlap) == pytest.approx(0.5, abs=1e-12)
    rho_o = reduce_state(evolve_switch(scn), "o")
    assert 2 * abs(rho_o.matrix[0, 1]) == pytest.approx(
        causal_coherence(0.3, overlap), abs=1e-12
    )
    assert causal_coherence(0.3, 0.5) == pytest.approx(2 * np.sqrt(0.21) * 0.5)


def test_causal_coherence_bounded(rng):
    for _ in range(50):
        p = rng.uniform()
        ov = rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        value = causal_coherence(p, ov)
        assert value <= 2 * np.sqrt(p * (1 - p)) + 1e-12
        assert value <= 1 + 1e-12
    with pytest.raises(ValueError):
        causal_coherence(0.5, 1.5)


# ---------------------------------------------------------------------------
# order-qubit interference and visibility
# ---------------------------------------------------------------------------


def test_order_interference_incoherent_is_flat():
    rho = np.diag([0.7, 0.3])
    for phi in np.linspace(0, 2 * np.pi, 7):
        p_plus, p_minus = order_interference(rho, phi)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)


def test_order_interference_constructive_maximum():
    kappa = 0.5 * np.exp(0.8j)
    rho = np.array([[0.5, kappa], [np.conj(kappa), 0.5]])
    p_plus, p_minus = order_interference(rho, -0.8)
    assert p_plus == pytest.approx(1.0, abs=1e-12)
    assert p_minus == pytest.approx(0.0, abs=1e-12)


def test_order_interference_cosine_law(rng):
    rho = random_density((2,), rng)
    kappa = rho.matrix[0, 1]
    for phi in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        p_plus, p_minus = order_interference(rho, phi)
        want = 0.5 * (1 + 2 * abs(kappa) * np.cos(phi + np.angle(kappa)))
        assert p_plus == pytest.approx(want, abs=1e-10)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_causal_visibility_extremes():
    assert causal_visibility(np.diag([0.4, 0.6])) == pytest.approx(0.0, abs=1e-12)
    plus = np.full((2, 2), 0.5)
    assert causal_visibility(plus) == pytest.approx(1.0)


def test_causal_visibility_matches_offdiagonal():
    scn = random_scenario(77)
    rho_o = reduce_state(evolve_switch(scn), "o")
    assert causal_visibility(rho_o) == pytest.approx(
        2 * abs(rho_o.matrix[0, 1]), abs=1e-9
    )


def test_causal_visibility_scans_all_phases_at_once(monkeypatch):
    calls = []

    def counted_basis(phase):
        calls.append(np.shape(phase))
        return basis(phase)

    def forbidden(*args):
        raise AssertionError("per-phase order_interference call")

    basis = measures.order_basis
    monkeypatch.setattr(measures, "order_basis", counted_basis)
    monkeypatch.setattr(measures, "order_interference", forbidden)
    rho_o = reduce_state(evolve_switch(random_scenario(78)), "o")
    assert causal_visibility(rho_o) == pytest.approx(2 * abs(rho_o.matrix[0, 1]), abs=1e-10)
    assert calls == [(722,)]


def test_visibility_equals_causal_coherence_for_pure_preparations():
    for seed in range(12):
        scn = random_scenario(seed)
        rho_o = reduce_state(evolve_switch(scn), "o")
        want = causal_coherence(scn.order_weight, branch_overlap(scn))
        assert causal_visibility(rho_o) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# binary entropy and the order-qubit Bloch norm
# ---------------------------------------------------------------------------


def test_binary_entropy_reference_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    rho = DensityOperator(np.diag([0.75, 0.25]), (2,))
    assert binary_entropy(0.75) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric_and_bounded(x):
    value = binary_entropy(x)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert value == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_bloch_norm_reference_points():
    assert order_bloch_norm(0.5, 1.0) == pytest.approx(1.0)
    assert binary_entropy((1 + 1.0) / 2) == 0.0  # pure order qubit
    assert order_bloch_norm(0.5, 0.0) == pytest.approx(0.0)
    assert binary_entropy((1 + 0.0) / 2) == pytest.approx(1.0)
    assert order_bloch_norm(0.7, 0.3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        order_bloch_norm(1.0, 0.5)


def test_bloch_norm_matches_order_spectrum():
    # engineer causal coherence 0.3 at order weight 0.7
    target_overlap = 0.3 / (2 * np.sqrt(0.21))
    delta = 2 * np.arccos(target_overlap)
    scn = _phase_marked_scenario(0.7, delta)
    rho_o = reduce_state(evolve_switch(scn), "o")
    coherence = 2 * abs(rho_o.matrix[0, 1])
    assert coherence == pytest.approx(0.3, abs=1e-12)
    norm = order_bloch_norm(0.7, coherence)
    assert norm == pytest.approx(0.5, abs=1e-12)
    assert_allclose(
        np.linalg.eigvalsh(rho_o.matrix), [(1 - norm) / 2, (1 + norm) / 2], atol=1e-10
    )


# ---------------------------------------------------------------------------
# conditional entropies
# ---------------------------------------------------------------------------


def _product_with_order(rho_qd, order_matrix):
    return DensityOperator(
        np.kron(rho_qd.matrix, order_matrix), rho_qd.dims + (2,)
    )


def test_conditional_entropy_definite_order(rng):
    rho_qd = random_density((2, 2), rng)
    state = _product_with_order(rho_qd, np.diag([1.0, 0.0]))
    assert conditional_entropy_after_measurement(state, "z") == pytest.approx(
        0.0, abs=1e-10
    )
    assert conditional_entropy_after_measurement(state, "x") == pytest.approx(
        1.0, abs=1e-10
    )


def test_conditional_entropy_flagship_sum():
    rho_tot = evolve_switch(explicit_realization())
    h_z = conditional_entropy_after_measurement(rho_tot, "z")
    h_x = conditional_entropy_after_measurement(rho_tot, "x")
    assert h_z + h_x >= 1.0 - 1e-9


def test_conditional_entropy_rejects_bad_dims(rng):
    rho = random_density((2, 2), rng)
    with pytest.raises(ValueError):
        conditional_entropy_after_measurement(rho, "z")
    rho_tot = evolve_switch(explicit_realization())
    with pytest.raises(ValueError):
        conditional_entropy_after_measurement(rho_tot, "y")


def _entropy_via_dephased_state(rho, basis):
    """Reference: S(sum_u P_u rho P_u) - S(QD) with P_u = I (x) |u><u| built explicitly."""
    vectors = np.eye(2) if basis == "z" else np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    front = np.eye(rho.dim // 2)
    dephased = sum(
        proj @ rho.matrix @ proj
        for proj in (np.kron(front, np.outer(u, u.conj())) for u in vectors)
    )
    marginal = partial_trace(rho, (0, 1))
    return von_neumann_entropy(DensityOperator(dephased, rho.dims)) - von_neumann_entropy(
        marginal
    )


@pytest.mark.parametrize("rank", range(1, 9))
def test_conditional_entropy_matches_explicit_dephased_state(rng, rank):
    for _ in range(5):
        rho = random_density((2, 2, 2), rng, rank=rank)
        for basis in ("z", "x"):
            want = max(_entropy_via_dephased_state(rho, basis), 0.0)
            got = conditional_entropy_after_measurement(rho, basis)
            assert abs(got - want) <= 1e-12


def test_conditional_entropy_matches_dephased_state_with_degenerate_outcome():
    for scn in (explicit_realization(), random_scenario(3, mixed_order=True)):
        rho_tot = evolve_switch(scn)
        for basis in ("z", "x"):
            want = max(_entropy_via_dephased_state(rho_tot, basis), 0.0)
            got = conditional_entropy_after_measurement(rho_tot, basis)
            assert abs(got - want) <= 1e-12
    # the x outcome '-' of the flagship state has probability zero
    assert post_select(explicit_realization(), 0.0)[1].degenerate


@pytest.mark.parametrize("order_weight", [0.50001, 0.4999, 0.5001])
def test_conditional_entropy_with_near_degenerate_outcome(order_weight):
    """An x outcome of probability 1e-10 to 1e-8 is checked on the joint state's scale.

    Its normalized block carries round-off of about 1e-17 / p, which fails
    the relative tolerance of a DensityOperator; the unnormalized block is
    checked, as the dephased state was.
    """
    rho_tot = evolve_switch(full_marking(order_weight))
    blocks = contract_order(rho_tot, order_basis(0.0))
    probability = min(np.trace(block).real for block in blocks)
    assert 1e-12 < probability < 1e-7
    for basis in ("z", "x"):
        want = max(_entropy_via_dephased_state(rho_tot, basis), 0.0)
        got = conditional_entropy_after_measurement(rho_tot, basis)
        assert abs(got - want) <= 1e-12


def test_memory_assisted_uncertainty_on_mixed_states(rng):
    """The two conditional entropies always clear 1 + H(O|QD)."""
    for _ in range(25):
        rho = random_density((2, 2, 2), rng, rank=int(rng.integers(1, 9)))
        h_z = conditional_entropy_after_measurement(rho, "z")
        h_x = conditional_entropy_after_measurement(rho, "x")
        marginal = partial_trace(rho, (0, 1))
        conditional = von_neumann_entropy(rho) - von_neumann_entropy(marginal)
        assert h_z + h_x >= 1.0 + conditional - 1e-9


def test_pure_state_conditional_entropy_is_minus_order_entropy(rng):
    for _ in range(10):
        vec = random_pure_vector(8, rng)
        rho = pure_state_density(vec, (2, 2, 2))
        marginal_qd = partial_trace(rho, (0, 1))
        marginal_o = partial_trace(rho, (2,))
        conditional = von_neumann_entropy(rho) - von_neumann_entropy(marginal_qd)
        assert conditional == pytest.approx(
            -von_neumann_entropy(marginal_o), abs=1e-9
        )
