"""Machine-checkable verification of every complementarity relation.

Each check_* function evaluates one relation through at least two
computation routes (closed form vs. the full matrix pipeline, or a measure
vs. its convex bound) and returns a RelationCheck whose holds flag is
recomputed from the stored numbers.  Randomized coverage is driven by
64-bit seeds; every check carries the fingerprint of the scenario it ran
on so failures are replayable.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .discrimination import DiscriminationProblem, causal_duality, helstrom_guess
from .linalg import DensityOperator, dagger, is_unitary, kron, partial_trace, von_neumann_entropy
from .measures import (
    EntropicReport,
    binary_entropy,
    causal_visibility,
    conditional_entropy_after_measurement,
    dephase_order,
    l1_coherence,
    order_bloch_norm,
    order_interference,
    path_distinguishability,
)
from .model import (
    CausalOrder,
    PathPreparation,
    SwitchScenario,
    WhichPathInteraction,
    branch_overlap,
    evolve_switch,
    explicit_realization,
    fixed_order_state,
    fixed_order_vector,
    path_ensemble,
    post_select,
    reduce_state,
)

DEFAULT_TOL = 1e-9

#: preconditions of the post-selected closed form are enforced to this
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class RelationCheck:
    """One verified (in)equality: lhs <= rhs or lhs == rhs within tol.

    holds is always recomputed from the stored numbers, never cached.
    """

    name: str
    lhs: float
    rhs: float
    kind: str  # "le" or "eq"
    tol: float
    context: str  # scenario fingerprint

    def __post_init__(self):
        if self.kind not in ("le", "eq"):
            raise ValueError(f"unknown relation kind {self.kind!r}")
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def holds(self) -> bool:
        if self.kind == "le":
            return self.lhs <= self.rhs + self.tol
        return abs(self.lhs - self.rhs) <= self.tol


@dataclass(frozen=True)
class RegionPoint:
    """One point of the (spatial duality sum, causal coherence) region."""

    x: float
    y: float
    order_weight: float
    detector_overlap: float
    fingerprint: str

    def __post_init__(self):
        for field in ("x", "y", "order_weight", "detector_overlap"):
            object.__setattr__(self, field, float(getattr(self, field)))
        for label, value in (("x", self.x), ("y", self.y)):
            if not 0.0 <= value <= 1.0 + 1e-9:
                raise ValueError(f"region point {label} = {value} outside [0, 1]")


@dataclass(frozen=True)
class NoGoCounterexample:
    """Pipeline output of the commuting-sector counterexample construction."""

    spatial_coherence: float
    distinguishability_bound: float
    causal_coherence: float
    fingerprint: str

    def margin(self, alpha: float) -> float:
        """How far C + D + alpha * C_causal exceeds 1 (positive for alpha > 0)."""
        return (
            self.spatial_coherence
            + self.distinguishability_bound
            + alpha * self.causal_coherence
            - 1.0
        )


# ---------------------------------------------------------------------------
# fingerprints and seeded scenario sampling
# ---------------------------------------------------------------------------


def scenario_fingerprint(scenario: SwitchScenario, seed: int | None = None) -> str:
    """Canonical hash of every scenario field plus the driving seed."""
    h = hashlib.sha256()
    prep = scenario.preparation
    h.update(np.asarray(prep.probabilities, dtype=np.float64).tobytes())
    h.update(np.asarray(prep.phases, dtype=np.float64).tobytes())
    h.update(struct.pack("<q", scenario.interaction.initial_index))
    for v in scenario.interaction.detector_unitaries:
        h.update(np.ascontiguousarray(v).tobytes())
    h.update(np.ascontiguousarray(scenario.interference).tobytes())
    h.update(struct.pack("<dd", scenario.order_weight, scenario.order_phase))
    if scenario.order_offdiag is None:
        h.update(b"pure")
    else:
        h.update(struct.pack("<dd", scenario.order_offdiag.real, scenario.order_offdiag.imag))
    h.update(b"unseeded" if seed is None else struct.pack("<Q", seed & (2**64 - 1)))
    return h.hexdigest()[:16]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from QR of a complex Gaussian matrix."""
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_scenario(
    seed: int,
    n_paths: int | None = None,
    detector_dim: int | None = None,
    mixed_order: bool = False,
) -> SwitchScenario:
    """Seeded random scenario: Dirichlet path weights, Haar unitaries.

    With mixed_order the order-qubit off-diagonal is shrunk below the pure
    value by a uniform factor (possibly all the way to zero).
    """
    rng = np.random.default_rng(seed)
    n = int(n_paths) if n_paths is not None else int(rng.integers(2, 4))
    d = int(detector_dim) if detector_dim is not None else int(rng.integers(2, 4))
    prep = PathPreparation(
        tuple(rng.dirichlet(np.ones(n))), tuple(rng.uniform(0.0, 2.0 * math.pi, n))
    )
    interaction = WhichPathInteraction(
        tuple(haar_unitary(d, rng) for _ in range(n)), int(rng.integers(0, d))
    )
    interference = haar_unitary(n, rng)
    p = float(rng.uniform(0.0, 1.0))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    offdiag = None
    if mixed_order:
        shrink = float(rng.uniform(0.0, 1.0))
        offdiag = shrink * math.sqrt(p * (1.0 - p)) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
    return SwitchScenario(prep, interaction, interference, p, theta, offdiag)


def random_symmetric_scenario(seed: int) -> SwitchScenario:
    """Seeded random scenario satisfying the post-selection symmetry conditions.

    Draws either a path-diagonal interference (any order phase) or a path
    swap with zero order phase; both keep the two post-selected path
    populations balanced.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    prep = PathPreparation((0.5, 0.5), tuple(rng.uniform(0.0, 2.0 * math.pi, 2)))
    interaction = WhichPathInteraction(
        (haar_unitary(d, rng), haar_unitary(d, rng)), int(rng.integers(0, d))
    )
    beta = rng.uniform(0.0, 2.0 * math.pi, 2)
    if rng.integers(0, 2) == 0:
        interference = np.diag(np.exp(1j * beta))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
    else:
        interference = np.array(
            [[0.0, cmath.exp(1j * beta[1])], [cmath.exp(1j * beta[0]), 0.0]],
            dtype=np.complex128,
        )
        theta = 0.0
    p = float(rng.uniform(0.05, 0.95))
    return SwitchScenario(prep, interaction, interference, p, theta)


# ---------------------------------------------------------------------------
# spatial (quanton-detector) quantities through the matrix pipeline
# ---------------------------------------------------------------------------


def _branch_duality(scenario: SwitchScenario, order: CausalOrder) -> tuple[float, float]:
    """(coherence, distinguishability) of one definite-order branch."""
    n, d = scenario.n, scenario.detector_dim
    rho_q = partial_trace(fixed_order_state(scenario, order), (0,))
    coherence = l1_coherence(rho_q, n)
    priors, states = path_ensemble(fixed_order_vector(scenario, order), n, d)
    disting = path_distinguishability(priors, states)
    return coherence, disting


def spatial_summary(scenario: SwitchScenario) -> dict[str, float]:
    """Reduced-state coherence plus per-order duality pairs and the convex bound."""
    rho_tot = evolve_switch(scenario)
    rho_q = reduce_state(rho_tot, "q")
    c_q = l1_coherence(rho_q.matrix, scenario.n)
    c_ab, d_ab = _branch_duality(scenario, CausalOrder.A_THEN_B)
    c_ba, d_ba = _branch_duality(scenario, CausalOrder.B_THEN_A)
    p = scenario.order_weight
    return {
        "spatial_coherence": c_q,
        "coherence_a_then_b": c_ab,
        "coherence_b_then_a": c_ba,
        "distinguishability_a_then_b": d_ab,
        "distinguishability_b_then_a": d_ba,
        "distinguishability_bound": p * d_ab + (1.0 - p) * d_ba,
        "coherence_convex_bound": p * c_ab + (1.0 - p) * c_ba,
    }


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------


def check_fixed_order_duality(
    scenario: SwitchScenario,
    order: CausalOrder | str,
    tol: float = DEFAULT_TOL,
    fingerprint: str | None = None,
) -> RelationCheck:
    """Coherence plus distinguishability equals one for a pure definite order."""
    order = CausalOrder(order)
    coherence, disting = _branch_duality(scenario, order)
    return RelationCheck(
        f"fixed-order-duality:{order.value}",
        coherence + disting,
        1.0,
        "eq",
        tol,
        fingerprint or scenario_fingerprint(scenario),
    )


def check_ico_duality(
    scenario: SwitchScenario,
    tol: float = DEFAULT_TOL,
    fingerprint: str | None = None,
) -> tuple[RelationCheck, RelationCheck]:
    """Convexity of coherence under order mixing, and the bounded duality sum.

    Returns the coherence-convexity check and the check that reduced
    coherence plus the convex distinguishability bound stays below one.
    """
    fp = fingerprint or scenario_fingerprint(scenario)
    q = spatial_summary(scenario)
    convexity = RelationCheck(
        "ico-coherence-convexity",
        q["spatial_coherence"],
        q["coherence_convex_bound"],
        "le",
        tol,
        fp,
    )
    duality = RelationCheck(
        "ico-duality-sum",
        q["spatial_coherence"] + q["distinguishability_bound"],
        1.0,
        "le",
        tol,
        fp,
    )
    return convexity, duality


def _post_selected_closed_form(
    scenario: SwitchScenario, basis_phase: float
) -> dict[str, complex]:
    """Normalizations and conditional coherences from detector overlaps alone.

    Valid for balanced two-path scenarios with a pure order preparation;
    raises ValueError naming the violated condition otherwise.  The basis
    phase shifts the effective order phase.
    """
    if scenario.n != 2:
        raise ValueError("post-selected closed form requires exactly two paths")
    if any(abs(p - 0.5) > SYMMETRY_TOL for p in scenario.preparation.probabilities):
        raise ValueError("post-selected closed form requires equal path probabilities")
    if not scenario.has_pure_order():
        raise ValueError("post-selected closed form requires a pure order preparation")
    n, d = 2, scenario.detector_dim
    vec_ab = fixed_order_vector(scenario, CausalOrder.A_THEN_B)
    vec_ba = fixed_order_vector(scenario, CausalOrder.B_THEN_A)
    priors_ab, det_ab = path_ensemble(vec_ab, n, d)
    priors_ba, det_ba = path_ensemble(vec_ba, n, d)
    for label, priors in (("a-then-b", priors_ab), ("b-then-a", priors_ba)):
        if np.abs(priors - 0.5).max() > SYMMETRY_TOL:
            raise ValueError(
                f"balanced-branch condition violated for order {label}: "
                f"path populations {priors.tolist()} differ from 1/2"
            )
    theta_eff = scenario.order_phase - basis_phase
    rot = cmath.exp(1j * theta_eff)
    cross = np.array(
        [[np.vdot(det_ab[i], det_ba[j]) for j in range(2)] for i in range(2)]
    )
    sym_lhs = (rot * cross[0, 0]).real
    sym_rhs = (rot * cross[1, 1]).real
    if abs(sym_lhs - sym_rhs) > SYMMETRY_TOL:
        raise ValueError(
            "post-selection symmetry violated: the phase-rotated diagonal "
            f"detector overlaps have real parts {sym_lhs} and {sym_rhs}; "
            "they must coincide for the balanced closed form"
        )
    p = scenario.order_weight
    mix = p * np.vdot(det_ab[1], det_ab[0]) + (1.0 - p) * np.vdot(det_ba[1], det_ba[0])
    root = math.sqrt(p * (1.0 - p))
    out: dict[str, complex] = {}
    for sign, label in ((+1.0, "+"), (-1.0, "-")):
        norm = 0.5 * (1.0 + sign * root * (rot * (cross[0, 0] + cross[1, 1])).real)
        out[f"norm{label}"] = norm
        if norm > 1e-12:
            out[f"gamma{label}"] = (
                mix + sign * root * (rot * cross[1, 0] + np.conj(rot * cross[0, 1]))
            ) / (4.0 * norm)
        else:
            out[f"gamma{label}"] = complex("nan")
    return out


def post_selection_symmetry_holds(
    scenario: SwitchScenario, basis_phase: float = 0.0
) -> bool:
    """Whether the balanced post-selected closed form applies to this scenario."""
    try:
        _post_selected_closed_form(scenario, basis_phase)
    except ValueError:
        return False
    return True


def check_post_selected_duality(
    scenario: SwitchScenario,
    basis_phase: float = 0.0,
    tol: float = DEFAULT_TOL,
    fingerprint: str | None = None,
) -> tuple[RelationCheck, RelationCheck]:
    """Conditional duality saturation, checked through three routes.

    For each order-qubit outcome: the conditional coherence from the matrix
    pipeline, the conditional distinguishability from the post-selected
    detector ensemble, and the detector-overlap closed form must agree; the
    check records the largest discrepancy among (duality sum - 1), gamma
    and normalization mismatches.
    """
    fp = fingerprint or scenario_fingerprint(scenario)
    closed = _post_selected_closed_form(scenario, basis_phase)
    rho_tot = evolve_switch(scenario)
    plus, minus = post_select(rho_tot, basis_phase)
    n, d = scenario.n, scenario.detector_dim
    checks = []
    for result in (plus, minus):
        label = result.outcome
        discrepancy = abs(result.probability - closed[f"norm{label}"].real)
        if not result.degenerate:
            gamma_closed = closed[f"gamma{label}"]
            discrepancy = max(discrepancy, abs(result.gamma - gamma_closed))
            coherence = l1_coherence(result.conditional_q.matrix, 2)
            # independent distinguishability route: the conditional state is
            # pure, so its detector ensemble gives the two-path optimum
            eig = np.linalg.eigh(result.conditional_qd.matrix)
            vec = eig.eigenvectors[:, -1]
            priors, states = path_ensemble(vec, n, d)
            disting = path_distinguishability(priors, states)
            discrepancy = max(discrepancy, abs(coherence + disting - 1.0))
        checks.append(
            RelationCheck(
                f"post-selected-duality:{label}", discrepancy, 0.0, "eq", tol, fp
            )
        )
    return checks[0], checks[1]


def check_post_selection_mixture(
    scenario: SwitchScenario,
    basis_phase: float = 0.0,
    tol: float = 1e-10,
    fingerprint: str | None = None,
) -> RelationCheck:
    """Averaging the post-selected states over outcomes recovers the reduction.

    Interference between causal orders cancels in the unconditional
    average, so norm+ rho+ + norm- rho- must reproduce the order-traced
    state entrywise.
    """
    fp = fingerprint or scenario_fingerprint(scenario)
    rho_tot = evolve_switch(scenario)
    rho_qd = reduce_state(rho_tot, "qd")
    plus, minus = post_select(rho_tot, basis_phase)
    mixture = np.zeros_like(rho_qd.matrix)
    for result in (plus, minus):
        if not result.degenerate:
            mixture = mixture + result.probability * result.conditional_qd.matrix
    deviation = float(np.abs(mixture - rho_qd.matrix).max())
    return RelationCheck("post-selection-mixture", deviation, 0.0, "eq", tol, fp)


def nogo_counterexample(order_weight: float) -> NoGoCounterexample:
    """Commuting-sector process with saturated spatial duality, computed end to end.

    Full which-path marking with a path-diagonal interference operation:
    the reduced coherence vanishes, the distinguishability bound is one,
    and the causal coherence 2 sqrt(p(1-p)) survives in full.  Any linear
    penalty on causal coherence is therefore violated by the margin
    alpha * causal_coherence.
    """
    p = float(order_weight)
    if not 0.0 < p < 1.0:
        raise ValueError(
            f"order weight {p} admits no superposition of orders; need 0 < p < 1"
        )
    scenario = explicit_realization(order_weight=p)
    return NoGoCounterexample(*_duality_point(scenario), scenario_fingerprint(scenario))


def _duality_point(scenario: SwitchScenario) -> tuple[float, float, float]:
    """(spatial coherence, distinguishability bound, causal coherence) of one scenario."""
    q = spatial_summary(scenario)
    rho_o = reduce_state(evolve_switch(scenario), "o")
    return q["spatial_coherence"], q["distinguishability_bound"], l1_coherence(rho_o)


# ---------------------------------------------------------------------------
# region sweep
# ---------------------------------------------------------------------------

_HALF_ROTATION = np.array(
    [[1.0, -1.0], [1.0, 1.0]], dtype=np.complex128
) / math.sqrt(2.0)


def region_scenario(order_weight: float, detector_overlap: float) -> SwitchScenario:
    """Two-knob family whose image spans the duality-vs-causal-coherence square.

    For nonnegative overlap w the interference operation commutes with the
    marking (detector rotation with <d0|d1> = w), which pins the spatial
    duality sum at one while the causal coherence runs over [0, 1].  For
    negative w the interference is a quarter rotation and the two branch
    coherences interfere destructively, pulling the duality sum down to
    |2p - 1| at w = -1.
    """
    w = float(detector_overlap)
    if not -1.0 <= w <= 1.0:
        raise ValueError(f"detector overlap must lie in [-1, 1], got {w}")
    s = math.sqrt(max(1.0 - w * w, 0.0))
    rotation = np.array([[w, -s], [s, w]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    if w >= 0.0:
        prep = PathPreparation((0.5, 0.5), (0.0, 0.0))
        interference = eye.copy()
    else:
        prep = PathPreparation((1.0, 0.0), (0.0, 0.0))
        interference = _HALF_ROTATION.copy()
    interaction = WhichPathInteraction((eye.copy(), rotation), 0)
    return SwitchScenario(prep, interaction, interference, order_weight, 0.0)


def region_sweep(p_values=21, overlap_values=21) -> list[RegionPoint]:
    """Grid sweep of the accessible (duality sum, causal coherence) points.

    Each argument is either a step count over the canonical range (p over
    [0, 1], overlap over [-1, 1]) or an explicit sequence of values.
    """
    if isinstance(p_values, int):
        p_values = np.linspace(0.0, 1.0, p_values)
    if isinstance(overlap_values, int):
        overlap_values = np.linspace(-1.0, 1.0, overlap_values)
    points = []
    for p in p_values:
        for w in overlap_values:
            scenario = region_scenario(float(p), float(w))
            c_q, d_bound, y = _duality_point(scenario)
            fp = scenario_fingerprint(scenario)
            points.append(RegionPoint(c_q + d_bound, y, float(p), float(w), fp))
    return points


# ---------------------------------------------------------------------------
# entropic bound and the detector-overlap lemma
# ---------------------------------------------------------------------------


def check_entropic_bound(
    scenario: SwitchScenario,
    tol: float = DEFAULT_TOL,
    fingerprint: str | None = None,
) -> tuple[EntropicReport, RelationCheck]:
    """Conditional-entropy uncertainty bound for the two order measurements.

    For a pure global state the bound is 1 - H(O); otherwise the
    memory-assisted form 1 + H(O|QD) applies (H(O|QD) may be negative).
    """
    fp = fingerprint or scenario_fingerprint(scenario)
    rho_tot = evolve_switch(scenario)
    entropy_z = conditional_entropy_after_measurement(rho_tot, "z")
    entropy_x = conditional_entropy_after_measurement(rho_tot, "x")
    rho_o = reduce_state(rho_tot, "o")
    order_entropy = von_neumann_entropy(rho_o)
    bloch = order_bloch_norm(scenario.order_weight, l1_coherence(rho_o))
    if rho_tot.is_pure(1e-10):
        bound = 1.0 - order_entropy
    else:
        conditional = von_neumann_entropy(rho_tot) - von_neumann_entropy(
            reduce_state(rho_tot, "qd")
        )
        bound = 1.0 + conditional
    report = EntropicReport(entropy_z, entropy_x, bound, bloch, order_entropy)
    check = RelationCheck(
        "entropic-uncertainty", bound, entropy_z + entropy_x, "le", tol, fp
    )
    return report, check


def check_overlap_lemma(
    scenario: SwitchScenario,
    detector_unitary: np.ndarray,
    tol: float = 1e-10,
    fingerprint: str | None = None,
) -> RelationCheck:
    """Detector-local invariance of causal-order discrimination.

    Conjugating both fixed-order states by I (x) W preserves all detector
    overlaps, hence the minimum-error guessing probability.  The check also
    verifies that dephasing the order qubit leaves exactly the fixed-order
    states correlated with the order outcomes.
    """
    fp = fingerprint or scenario_fingerprint(scenario)
    w = np.asarray(detector_unitary, dtype=np.complex128)
    d = scenario.detector_dim
    if w.shape != (d, d) or not is_unitary(w):
        raise ValueError(f"detector unitary must be unitary of dimension {d}")
    n = scenario.n
    dims = (n, d)
    p = scenario.order_weight
    states = {order: fixed_order_state(scenario, order) for order in CausalOrder}
    baseline = helstrom_guess(
        DiscriminationProblem(p, states[CausalOrder.A_THEN_B], states[CausalOrder.B_THEN_A])
    )
    big_w = kron(np.eye(n), w)
    rotated = {
        order: DensityOperator(big_w @ rho.matrix @ dagger(big_w), dims)
        for order, rho in states.items()
    }
    conjugated = helstrom_guess(
        DiscriminationProblem(p, rotated[CausalOrder.A_THEN_B], rotated[CausalOrder.B_THEN_A])
    )
    # order-basis dephasing prepares the classical-quantum order ensemble
    rho_tot = evolve_switch(scenario)
    dephased = dephase_order(rho_tot, "z")
    proj0 = np.diag([1.0, 0.0]).astype(np.complex128)
    proj1 = np.diag([0.0, 1.0]).astype(np.complex128)
    expected = p * np.kron(states[CausalOrder.A_THEN_B].matrix, proj0) + (
        1.0 - p
    ) * np.kron(states[CausalOrder.B_THEN_A].matrix, proj1)
    ensemble_deviation = float(np.abs(dephased.matrix - expected).max())
    deviation = max(abs(baseline - conjugated), ensemble_deviation)
    return RelationCheck("helstrom-overlap-invariance", deviation, 0.0, "eq", tol, fp)


# ---------------------------------------------------------------------------
# scenario summaries and the full battery
# ---------------------------------------------------------------------------


def scenario_quantities(
    scenario: SwitchScenario, basis_phase: float = 0.0
) -> dict[str, float]:
    """Every scalar quantity of interest for one scenario, pipeline-computed."""
    quantities = dict(spatial_summary(scenario))
    rho_o = reduce_state(evolve_switch(scenario), "o")
    p_plus, p_minus = order_interference(rho_o, basis_phase)
    report, _ = check_entropic_bound(scenario)
    problem = DiscriminationProblem(
        scenario.order_weight,
        fixed_order_state(scenario, CausalOrder.A_THEN_B),
        fixed_order_state(scenario, CausalOrder.B_THEN_A),
    )
    quantities.update(
        {
            "causal_coherence": l1_coherence(rho_o),
            "causal_visibility": causal_visibility(rho_o),
            "p_plus": p_plus,
            "p_minus": p_minus,
            "order_bloch_norm": report.bloch_norm,
            "order_entropy": report.order_entropy,
            "entropy_z": report.entropy_z,
            "entropy_x": report.entropy_x,
            "entropic_bound": report.bound,
            "entropic_slack": report.slack,
            "helstrom_guess": helstrom_guess(problem),
        }
    )
    return quantities


def verify_scenario(
    scenario: SwitchScenario,
    seed: int | None = None,
    tol: float = DEFAULT_TOL,
    alpha: float = 1.0,
) -> list[RelationCheck]:
    """Run the full relation battery on one scenario.

    Identity-grade checks (mixture reconstruction, detector invariance,
    causal duality) run at tol/10; everything else at tol.  The detector
    unitary and the post-selection phase for the randomized checks are
    derived deterministically from the scenario fingerprint.
    """
    fp = scenario_fingerprint(scenario, seed)
    tight = tol / 10.0
    rng = np.random.default_rng(int(fp, 16))
    checks = [
        check_fixed_order_duality(scenario, CausalOrder.A_THEN_B, tol, fp),
        check_fixed_order_duality(scenario, CausalOrder.B_THEN_A, tol, fp),
    ]
    checks.extend(check_ico_duality(scenario, tol, fp))

    rho_o = reduce_state(evolve_switch(scenario), "o")
    checks.append(
        RelationCheck(
            "causal-visibility",
            causal_visibility(rho_o),
            2.0 * abs(scenario.order_offdiagonal()) * abs(branch_overlap(scenario)),
            "eq",
            tol,
            fp,
        )
    )
    if scenario.has_pure_order():
        duality = causal_duality(
            scenario.order_weight,
            fixed_order_vector(scenario, CausalOrder.A_THEN_B),
            fixed_order_vector(scenario, CausalOrder.B_THEN_A),
        )
        checks.append(
            RelationCheck("causal-duality-sum", duality.total, 1.0, "eq", tight, fp)
        )

    random_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    checks.append(check_post_selection_mixture(scenario, random_phase, tight, fp))
    if post_selection_symmetry_holds(scenario, 0.0):
        checks.extend(check_post_selected_duality(scenario, 0.0, tol, fp))

    report, entropic = check_entropic_bound(scenario, tol, fp)
    checks.append(entropic)
    checks.append(
        RelationCheck(
            "order-entropy-consistency",
            report.order_entropy,
            binary_entropy((1.0 + report.bloch_norm) / 2.0),
            "eq",
            tol,
            fp,
        )
    )

    checks.append(
        check_overlap_lemma(scenario, haar_unitary(scenario.detector_dim, rng), tight, fp)
    )

    p = scenario.order_weight
    margin_p = p if 0.0 < p < 1.0 else 0.5
    counterexample = nogo_counterexample(margin_p)
    checks.append(
        RelationCheck(
            "nogo-margin",
            counterexample.margin(alpha),
            alpha * 2.0 * math.sqrt(margin_p * (1.0 - margin_p)),
            "eq",
            tol,
            fp,
        )
    )
    return checks
