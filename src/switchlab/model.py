"""Construction of switched-interferometer processes.

A scenario couples an n-path quanton to a which-path detector (operation A),
applies an interference unitary on the quanton alone (operation B), and
routes the two operations through a coherently controlled order qubit.
Tensor ordering is fixed as quanton (x) detector (x) order qubit, with the
order qubit as the last factor throughout.
The branches are built on the (n, d)-shaped amplitudes and the joint state
by the dense switch unitary, an independent route the relation checks
compare them against; a scenario memoizes both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    DensityOperator,
    as_complex_matrix,
    dagger,
    is_unitary,
    kron,
    partial_trace,
    pure_state_density,
)

#: post-selection outcomes with probability below this are numerically
#: meaningless and the conditional state is flagged undefined
DEGENERATE_PROBABILITY = 1e-12

PROBABILITY_SUM_TOL = 1e-12


class CausalOrder(str, Enum):
    """Which operation acts first on the quanton-detector pair."""

    A_THEN_B = "a-then-b"  # which-path marking first, interference second
    B_THEN_A = "b-then-a"  # interference first, marking second


@dataclass(frozen=True)
class PathPreparation:
    """Pure n-path input: amplitudes sqrt(p_i) exp(i phi_i) on path i."""

    probabilities: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        phases = tuple(float(x) for x in self.phases)
        if len(probs) != len(phases):
            raise ValueError("probabilities and phases must have equal length")
        if len(probs) < 2:
            raise ValueError("need at least two paths")
        if not all(map(math.isfinite, probs + phases)):
            raise ValueError("path probabilities and phases must be finite")
        if any(p < 0 for p in probs):
            raise ValueError(f"path probabilities must be nonnegative, got {probs}")
        if abs(sum(probs) - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"path probabilities sum to {sum(probs)}, expected 1")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "phases", phases)

    @property
    def n(self) -> int:
        return len(self.probabilities)

    def amplitudes(self) -> np.ndarray:
        p = np.asarray(self.probabilities)
        return np.sqrt(p) * np.exp(1j * np.asarray(self.phases))


@dataclass(frozen=True, eq=False)
class WhichPathInteraction:
    """Per-path detector unitaries V_i and the initial detector basis index.

    Path i maps the initial detector state |d0> to |d_i> = V_i |d0>.
    Parameterizing by unitaries (not raw detector states) guarantees the
    joint which-path operation is unitary for any path count.
    """

    detector_unitaries: tuple[np.ndarray, ...]
    initial_index: int = 0

    def __post_init__(self):
        mats = tuple(as_complex_matrix(v) for v in self.detector_unitaries)
        if not mats:
            raise ValueError("need one detector unitary per path")
        d = mats[0].shape[0]
        for i, v in enumerate(mats):
            if v.shape != (d, d):
                raise ValueError(
                    f"detector unitary {i} has shape {v.shape}, expected {(d, d)}"
                )
            if not is_unitary(v):
                raise ValueError(f"detector unitary {i} is not unitary within tolerance")
            v.setflags(write=False)
        if not 0 <= int(self.initial_index) < d:
            raise ValueError(
                f"initial detector index {self.initial_index} out of range for dim {d}"
            )
        object.__setattr__(self, "detector_unitaries", mats)
        object.__setattr__(self, "initial_index", int(self.initial_index))

    @property
    def n(self) -> int:
        return len(self.detector_unitaries)

    @property
    def detector_dim(self) -> int:
        return self.detector_unitaries[0].shape[0]

    def detector_states(self) -> list[np.ndarray]:
        """The marked detector states |d_i| = V_i |d0>."""
        return [v[:, self.initial_index] for v in self.detector_unitaries]


@dataclass(frozen=True, eq=False)
class SwitchScenario:
    """Full specification of one order-controlled process.

    order_weight is the |0><0| weight p of the order qubit; order_phase
    the relative phase theta of the pure preparation.  order_offdiag
    overrides the order-qubit off-diagonal for mixed preparations; None
    selects the pure value sqrt(p(1-p)) exp(-i theta).
    """

    preparation: PathPreparation
    interaction: WhichPathInteraction
    interference: np.ndarray
    order_weight: float
    order_phase: float = 0.0
    order_offdiag: complex | None = None

    def __post_init__(self):
        uq = as_complex_matrix(self.interference)
        n = self.preparation.n
        if self.interaction.n != n:
            raise ValueError(
                f"{self.interaction.n} detector unitaries for {n} paths"
            )
        if uq.shape != (n, n):
            raise ValueError(
                f"interference unitary has shape {uq.shape}, expected {(n, n)}"
            )
        if not is_unitary(uq):
            raise ValueError("interference unitary is not unitary within tolerance")
        p = float(self.order_weight)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"order_weight must lie in [0, 1], got {p}")
        if not math.isfinite(float(self.order_phase)):
            raise ValueError(f"order_phase must be finite, got {self.order_phase}")
        if self.order_offdiag is not None:
            k0 = complex(self.order_offdiag)
            if not abs(k0) ** 2 <= p * (1.0 - p) + 1e-12:
                raise ValueError(
                    f"order_offdiag magnitude {abs(k0)} violates positivity: "
                    f"|k|^2 <= p(1-p) = {p * (1.0 - p)}"
                )
            object.__setattr__(self, "order_offdiag", k0)
        uq.setflags(write=False)
        object.__setattr__(self, "interference", uq)
        object.__setattr__(self, "order_weight", p)
        object.__setattr__(self, "order_phase", float(self.order_phase))

    @property
    def n(self) -> int:
        return self.preparation.n

    @property
    def detector_dim(self) -> int:
        return self.interaction.detector_dim

    def order_offdiagonal(self) -> complex:
        """The order-qubit off-diagonal actually used (pure value by default)."""
        if self.order_offdiag is not None:
            return complex(self.order_offdiag)
        p = self.order_weight
        return math.sqrt(p * (1.0 - p)) * cmath.exp(-1j * self.order_phase)

    def order_state(self) -> np.ndarray:
        p = self.order_weight
        k = self.order_offdiagonal()
        return np.array([[p, k], [np.conj(k), 1.0 - p]], dtype=np.complex128)

    def has_pure_order(self, tol: float = 1e-12) -> bool:
        p = self.order_weight
        return abs(abs(self.order_offdiagonal()) ** 2 - p * (1.0 - p)) <= tol

    @cached_property
    def _branches(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only Psi_ab = U_Q (a_i d_i)_i and Psi_ba = ((U_Q a)_i d_i)_i, flattened."""
        amps = self.preparation.amplitudes()
        marks = np.array(self.interaction.detector_states())
        ab = (self.interference @ (amps[:, None] * marks)).ravel()
        ba = ((self.interference @ amps)[:, None] * marks).ravel()
        for branch in (ab, ba):
            branch.setflags(write=False)
        return ab, ba

    @cached_property
    def _joint_state(self) -> DensityOperator:
        u_a = build_which_path_unitary(self.preparation, self.interaction)
        u_sw = build_switch_unitary(u_a, interference_unitary(self))
        psi0 = initial_state(self)
        rho_in = np.kron(np.outer(psi0, np.conj(psi0)), self.order_state())
        rho = u_sw @ rho_in @ dagger(u_sw)
        return DensityOperator(rho, (self.n, self.detector_dim, 2))


@dataclass(frozen=True, eq=False)
class PostSelectionResult:
    """Conditional quanton-detector description after an order-qubit outcome.

    For degenerate outcomes (probability below DEGENERATE_PROBABILITY) the
    conditional states and gamma are None and degenerate is set.
    """

    outcome: str
    probability: float
    conditional_qd: DensityOperator | None
    conditional_q: DensityOperator | None
    gamma: complex | None
    degenerate: bool = False


def initial_state(scenario: SwitchScenario) -> np.ndarray:
    """Joint quanton-detector input vector, before any operation acts."""
    e0 = np.zeros(scenario.detector_dim, dtype=np.complex128)
    e0[scenario.interaction.initial_index] = 1.0
    return np.kron(scenario.preparation.amplitudes(), e0)


def build_which_path_unitary(
    preparation: PathPreparation, interaction: WhichPathInteraction
) -> np.ndarray:
    """Which-path operation sum_i |i><i| (x) V_i on the joint space.

    Maps |i>|d0> to |i>|d_i>; block diagonal in the path basis, hence
    unitary whenever every V_i is.
    """
    if preparation.n != interaction.n:
        raise ValueError(
            f"{interaction.n} detector unitaries for {preparation.n} paths"
        )
    n, d = interaction.n, interaction.detector_dim
    u = np.zeros((n * d, n * d), dtype=np.complex128)
    for i, v in enumerate(interaction.detector_unitaries):
        u[i * d : (i + 1) * d, i * d : (i + 1) * d] = v
    return u


def interference_unitary(scenario: SwitchScenario) -> np.ndarray:
    """Interference operation U_Q (x) I_D on the joint space."""
    return kron(scenario.interference, np.eye(scenario.detector_dim))


def build_switch_unitary(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Order-controlled unitary: (U_B U_A) (x) |0><0| + (U_A U_B) (x) |1><1|.

    The order qubit is appended as the last tensor factor.
    """
    u_a = as_complex_matrix(u_a)
    u_b = as_complex_matrix(u_b)
    if u_a.shape != u_b.shape:
        raise ValueError(f"operand shapes differ: {u_a.shape} vs {u_b.shape}")
    if not is_unitary(u_a) or not is_unitary(u_b):
        raise ValueError("switch operands must be unitary within tolerance")
    proj0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    proj1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    return kron(u_b @ u_a, proj0) + kron(u_a @ u_b, proj1)


def fixed_order_vector(scenario: SwitchScenario, order: CausalOrder | str) -> np.ndarray:
    """Read-only state vector after both operations act in the given definite order.

    Built on the (n, d) amplitudes and memoized by the scenario; no
    joint-space unitary is formed.
    """
    ab, ba = scenario._branches
    return ab if CausalOrder(order) is CausalOrder.A_THEN_B else ba


def fixed_order_state(scenario: SwitchScenario, order: CausalOrder | str) -> DensityOperator:
    """Pure quanton-detector state of one definite causal order, dims (n, d)."""
    vec = fixed_order_vector(scenario, order)
    return pure_state_density(vec, (scenario.n, scenario.detector_dim))


def branch_overlap(scenario: SwitchScenario) -> complex:
    """Overlap <Psi_(a-then-b) | Psi_(b-then-a)> of the two order branches."""
    return complex(np.vdot(*scenario._branches))


def evolve_switch(scenario: SwitchScenario) -> DensityOperator:
    """Global state after the order-controlled evolution, dims (n, d, 2).

    Conjugates (input (x) order preparation) by the dense switch unitary,
    once per scenario: the result is memoized.  For a pure order
    preparation it is rank one.
    """
    return scenario._joint_state


def reduce_state(rho_tot: DensityOperator, target: str) -> DensityOperator:
    """Reduce the global (n, d, 2) state to 'qd', 'q' or 'o'.

    The 'qd' reduction is the convex mixture of the two fixed-order states;
    the 'o' reduction is the 2x2 order qubit whose off-diagonal carries the
    branch overlap.
    """
    if len(rho_tot.dims) != 3 or rho_tot.dims[2] != 2:
        raise ValueError(f"expected dims (n, d, 2), got {rho_tot.dims}")
    keep = {"qd": (0, 1), "q": (0,), "o": (2,)}.get(target)
    if keep is None:
        raise ValueError(f"unknown reduction target {target!r}; use 'qd', 'q' or 'o'")
    return partial_trace(rho_tot, keep)


def order_basis(basis_phase) -> np.ndarray:
    """Outcome vectors u_+/- = (|0> +/- e^{i phi}|1>)/sqrt(2) of the phase-phi basis.

    basis_phase may be an array; the result has shape phase.shape + (2, 2),
    with index -2 the outcome (+, -) and index -1 the order-qubit component.
    """
    rot = np.exp(1j * np.asarray(basis_phase, dtype=float))[..., None] * [1.0, -1.0]
    return np.stack(np.broadcast_arrays(1.0 + 0j, rot), axis=-1) / math.sqrt(2.0)


def contract_order(rho_tot: DensityOperator, vectors: np.ndarray) -> np.ndarray:
    """Blocks sigma_u = (I (x) <u|) rho (I (x) |u>), one per order-qubit vector u.

    vectors has shape (k, 2); the result has shape (k, n d, n d) and each
    block is the unnormalized quanton-detector state of outcome u.
    """
    if len(rho_tot.dims) != 3 or rho_tot.dims[2] != 2:
        raise ValueError(f"expected dims (n, d, 2), got {rho_tot.dims}")
    front = rho_tot.dim // 2
    ket = (rho_tot.matrix.reshape(-1, 2) @ vectors.T).reshape(front, 2, front, -1)
    return np.einsum("uk,akbu->uab", np.conj(vectors), ket)


def post_select(
    rho_tot: DensityOperator, basis_phase: float = 0.0
) -> tuple[PostSelectionResult, PostSelectionResult]:
    """Project the order qubit onto the phase-phi superposition basis.

    Returns the '+' and '-' results.  Outcome probabilities always sum to
    one; an outcome with probability below DEGENERATE_PROBABILITY carries
    no conditional state.
    """
    blocks = contract_order(rho_tot, order_basis(basis_phase))
    n, d, _ = rho_tot.dims
    results = []
    for outcome, selected in zip("+-", blocks):
        prob = max(float(np.real(np.trace(selected))), 0.0)
        if prob < DEGENERATE_PROBABILITY:
            results.append(
                PostSelectionResult(outcome, prob, None, None, None, degenerate=True)
            )
            continue
        cond_qd = DensityOperator(selected / prob, (n, d))
        cond_q = partial_trace(cond_qd, (0,))
        gamma = complex(cond_q.matrix[0, 1])
        results.append(PostSelectionResult(outcome, prob, cond_qd, cond_q, gamma))
    total = results[0].probability + results[1].probability
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"post-selection probabilities sum to {total}, expected 1")
    return results[0], results[1]


def path_ensemble(
    vector: np.ndarray, n: int, detector_dim: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split a pure joint state into path priors and conditional detector states.

    Returns (priors, states) with priors[i] = |amplitude on path i|^2 and
    states[i] the normalized detector state conditioned on path i.  Paths
    with exactly zero weight get a basis-vector placeholder; they cannot
    contribute to any prior-weighted overlap sum.
    """
    components = np.asarray(vector, dtype=np.complex128).reshape(n, detector_dim)
    priors = np.sum(np.abs(components) ** 2, axis=1)
    placeholder = np.eye(1, detector_dim, dtype=np.complex128)[0]
    states = [c / np.sqrt(w) if w > 0.0 else placeholder for c, w in zip(components, priors)]
    return priors, states


# ---------------------------------------------------------------------------
# Named scenario presets
# ---------------------------------------------------------------------------

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def explicit_realization(
    order_weight: float = 0.5,
    order_phase: float = 0.0,
    interference_phases: tuple[float, float] = (0.0, 0.0),
) -> SwitchScenario:
    """Two balanced paths, orthogonal detector marking, path-phase interference.

    The marking operation is a controlled bit flip on a qubit detector, the
    interference operation is diagonal in the path basis, so the two
    operations commute while which-path information is perfect.
    """
    prep = PathPreparation((0.5, 0.5), (0.0, 0.0))
    wp = WhichPathInteraction((np.eye(2, dtype=np.complex128), _PAULI_X.copy()), 0)
    uq = np.diag(np.exp(1j * np.asarray(interference_phases, dtype=float)))
    return SwitchScenario(prep, wp, uq, order_weight, order_phase)


def no_marking(order_weight: float = 0.5, order_phase: float = 0.0) -> SwitchScenario:
    """Balanced two-path scenario with inert detectors: full spatial coherence."""
    prep = PathPreparation((0.5, 0.5), (0.0, 0.0))
    eye = np.eye(2, dtype=np.complex128)
    wp = WhichPathInteraction((eye, eye.copy()), 0)
    return SwitchScenario(prep, wp, eye.copy(), order_weight, order_phase)


def full_marking(order_weight: float = 0.5, order_phase: float = 0.0) -> SwitchScenario:
    """Orthogonal detector marking with a commuting (path-diagonal) interference."""
    return explicit_realization(order_weight, order_phase, (0.0, math.pi / 3.0))
