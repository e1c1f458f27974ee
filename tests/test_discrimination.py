import numpy as np
import pytest

from switchlab.discrimination import (
    DiscriminationProblem,
    causal_duality,
    helstrom_guess,
    uqsd_numeric_oracle,
    uqsd_two_pure,
)
from switchlab.linalg import DensityOperator, kron, pure_state_density, trace_norm
from switchlab.model import CausalOrder, fixed_order_vector
from switchlab.relations import random_scenario

from conftest import random_density, random_pure_vector, random_unitary


def _pure(vec):
    return pure_state_density(vec, (len(vec),))


def _pair_with_overlap(overlap):
    a = np.array([1.0, 0.0])
    b = np.array([overlap, np.sqrt(1 - overlap**2)])
    return a, b


# ---------------------------------------------------------------------------
# Helstrom bound
# ---------------------------------------------------------------------------


def test_helstrom_identical_states(rng):
    rho = random_density((2,), rng)
    problem = DiscriminationProblem(0.5, rho, rho)
    assert helstrom_guess(problem) == pytest.approx(0.5)


def test_helstrom_orthogonal_pure_states():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    problem = DiscriminationProblem(0.5, _pure(a), _pure(b))
    assert helstrom_guess(problem) == pytest.approx(1.0)


def test_helstrom_equal_prior_closed_form():
    a, b = _pair_with_overlap(0.6)
    problem = DiscriminationProblem(0.5, _pure(a), _pure(b))
    value = helstrom_guess(problem)
    assert value == pytest.approx(0.5 * (1 + np.sqrt(1 - 0.36)))
    assert value == pytest.approx(0.9)
    # closed form double-checked against the eigenvalue sum
    weighted = 0.5 * _pure(a).matrix - 0.5 * _pure(b).matrix
    assert value == pytest.approx(0.5 * (1 + trace_norm(weighted)))


def test_helstrom_bounds(rng):
    for _ in range(25):
        p = rng.uniform()
        rho_a = random_density((3,), rng)
        rho_b = random_density((3,), rng)
        value = helstrom_guess(DiscriminationProblem(p, rho_a, rho_b))
        assert max(p, 1 - p) - 1e-12 <= value <= 1 + 1e-12
        assert value >= 0.5 * (1 + abs(2 * p - 1)) - 1e-12


def test_helstrom_joint_unitary_invariance(rng):
    p = 0.35
    rho_a = random_density((4,), rng)
    rho_b = random_density((4,), rng)
    u = random_unitary(4, rng)
    before = helstrom_guess(DiscriminationProblem(p, rho_a, rho_b))
    after = helstrom_guess(
        DiscriminationProblem(
            p,
            DensityOperator(u @ rho_a.matrix @ u.conj().T, (4,)),
            DensityOperator(u @ rho_b.matrix @ u.conj().T, (4,)),
        )
    )
    assert after == pytest.approx(before, abs=1e-10)


def test_helstrom_detector_local_invariance(rng):
    scn = random_scenario(19, n_paths=2, detector_dim=3)
    dims = (2, 3)
    rho_a, rho_b = (pure_state_density(fixed_order_vector(scn, order), dims) for order in CausalOrder)
    w = kron(np.eye(2), random_unitary(3, rng))
    before = helstrom_guess(DiscriminationProblem(scn.order_weight, rho_a, rho_b))
    after = helstrom_guess(
        DiscriminationProblem(
            scn.order_weight,
            DensityOperator(w @ rho_a.matrix @ w.conj().T, dims),
            DensityOperator(w @ rho_b.matrix @ w.conj().T, dims),
        )
    )
    assert after == pytest.approx(before, abs=1e-10)


def test_discrimination_problem_validation(rng):
    rho_a = random_density((2,), rng)
    rho_b = random_density((3,), rng)
    with pytest.raises(ValueError):
        DiscriminationProblem(0.5, rho_a, rho_b)
    with pytest.raises(ValueError):
        DiscriminationProblem(1.5, rho_a, rho_a)


# ---------------------------------------------------------------------------
# unambiguous discrimination
# ---------------------------------------------------------------------------


def test_uqsd_orthogonal_states():
    a, b = _pair_with_overlap(0.0)
    result = uqsd_two_pure(0.5, a, b)
    assert result.probability == pytest.approx(1.0)
    assert result.idp_regime


def test_uqsd_identical_states():
    a = np.array([1.0, 0.0])
    result = uqsd_two_pure(0.5, a, a)
    assert result.probability == pytest.approx(0.0)


def test_uqsd_symmetric_overlap():
    a, b = _pair_with_overlap(0.6)
    result = uqsd_two_pure(0.5, a, b)
    assert result.probability == pytest.approx(0.4)
    assert result.idp_regime


def test_uqsd_out_of_regime_is_clamped_and_flagged():
    a, b = _pair_with_overlap(0.9)
    result = uqsd_two_pure(0.05, a, b)
    assert not result.idp_regime
    assert result.probability == pytest.approx(0.95 * (1 - 0.81))
    # the symmetric expression would overstate what any POVM can achieve
    naive = 1 - 2 * np.sqrt(0.05 * 0.95) * 0.9
    assert result.probability < naive


def test_oracle_orthogonal_and_parallel():
    a, b = _pair_with_overlap(0.0)
    assert uqsd_numeric_oracle(0.5, a, b) == pytest.approx(1.0)
    assert uqsd_numeric_oracle(0.3, a, a) == 0.0


def test_oracle_validates_symmetric_optimum():
    a, b = _pair_with_overlap(0.6)
    assert uqsd_numeric_oracle(0.5, a, b) == pytest.approx(0.4, abs=1e-6)


def test_oracle_tracks_regime_boundary():
    a, b = _pair_with_overlap(0.9)
    oracle = uqsd_numeric_oracle(0.05, a, b)
    flagged = uqsd_two_pure(0.05, a, b)
    assert oracle == pytest.approx(flagged.probability, abs=1e-6)
    assert oracle < 1 - 2 * np.sqrt(0.05 * 0.95) * 0.9


def test_oracle_never_beaten_by_closed_form(rng):
    for _ in range(50):
        p = rng.uniform(0.02, 0.98)
        a = random_pure_vector(3, rng)
        b = random_pure_vector(3, rng)
        oracle = uqsd_numeric_oracle(p, a, b)
        closed = uqsd_two_pure(p, a, b)
        assert oracle >= closed.probability - 1e-6
        if closed.idp_regime:
            assert oracle == pytest.approx(closed.probability, abs=1e-6)


# ---------------------------------------------------------------------------
# causal duality
# ---------------------------------------------------------------------------


def test_causal_duality_commuting_sector():
    scn = random_scenario(101, n_paths=2, detector_dim=2)
    vec = fixed_order_vector(scn, CausalOrder.A_THEN_B)
    report = causal_duality(0.5, vec, vec)
    assert report.coherence == pytest.approx(1.0)
    assert report.distinguishability == pytest.approx(0.0)
    assert report.saturated


def test_causal_duality_orthogonal_branches():
    a = np.array([1.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0, 0.0])
    report = causal_duality(0.5, a, b)
    assert report.coherence == pytest.approx(0.0)
    assert report.distinguishability == pytest.approx(1.0)
    assert report.saturated


def test_causal_duality_sums_to_one(rng):
    for _ in range(200):
        a = random_pure_vector(4, rng)
        b = random_pure_vector(4, rng)
        overlap = abs(np.vdot(a, b))
        # stay inside the window where the symmetric optimum is attainable
        lo = overlap**2 / (1 + overlap**2)
        p = rng.uniform(lo + 1e-6, 1 - lo - 1e-6)
        report = causal_duality(p, a, b)
        assert abs(report.total - 1.0) <= 1e-10


def test_causal_duality_falls_short_of_one_outside_the_window(rng):
    outside = 0
    for _ in range(200):
        a = random_pure_vector(3, rng)
        b = random_pure_vector(3, rng)
        p = rng.uniform(0.01, 0.99)
        s = abs(np.vdot(a, b))
        report = causal_duality(p, a, b)
        # the numeric POVM search is a third route to the distinguishability
        assert report.distinguishability == pytest.approx(uqsd_numeric_oracle(p, a, b), abs=1e-6)
        if uqsd_two_pure(p, a, b).idp_regime:
            assert abs(report.total - 1.0) <= 1e-12 and report.saturated
            continue
        outside += 1
        likely, unlikely = max(p, 1 - p), min(p, 1 - p)
        shortfall = (np.sqrt(unlikely) - s * np.sqrt(likely)) ** 2
        assert 1.0 - report.total == pytest.approx(shortfall, abs=1e-12)
        assert report.total <= 1.0 + 1e-12
    assert outside > 20
