"""Construction of switched-interferometer processes.

A scenario couples an n-path quanton to a which-path detector (operation A),
applies an interference unitary on the quanton alone (operation B), and
routes the two operations through a coherently controlled order qubit.
Tensor ordering is fixed as quanton (x) detector (x) order qubit, with the
order qubit as the last factor throughout.
A scenario memoizes its branch pair B = [Psi_ab, Psi_ba], built on the
(n, d)-shaped amplitudes, and its Gram core G = B^dagger B with G^(1/2):
every derived spectrum and the order qubit come from the core, each
measured outcome from B and the order state K.  The dense joint state, U_A
and U_B applied to the input in both orders, is the independent route the
relation checks compare against.
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

    def effective_order_phase(self) -> float:
        """The phase theta of the order state actually prepared, K_01 = |K_01| e^{-i theta}."""
        if self.order_offdiag is None:
            return self.order_phase
        return -cmath.phase(self.order_offdiag)

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
    def _fixed_order_states(self) -> tuple[DensityOperator, DensityOperator]:
        """The two branches as pure (n, d) density operators, validated once."""
        dims = (self.n, self.detector_dim)
        return tuple(pure_state_density(branch, dims) for branch in self._branches)

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only Gram matrix G_ij = <Psi_i|Psi_j> of the branch pair, and G^(1/2)."""
        ab, ba = self._branches
        gram = np.array([[np.vdot(ab, ab), np.vdot(ab, ba)], [np.vdot(ba, ab), np.vdot(ba, ba)]])
        root = _psd_root(gram)
        for matrix in (gram, root):
            matrix.setflags(write=False)
        return gram, root

    @cached_property
    def _joint_state(self) -> DensityOperator:
        u_a = build_which_path_unitary(self.preparation, self.interaction)
        u_b = interference_unitary(self)
        psi0 = initial_state(self)
        phi = np.stack([u_b @ (u_a @ psi0), u_a @ (u_b @ psi0)], axis=1)
        rho = np.einsum("ai,ij,bj->aibj", phi, self.order_state(), np.conj(phi))
        return DensityOperator(rho.reshape(2 * len(psi0), -1), (self.n, self.detector_dim, 2))


@dataclass(frozen=True, eq=False)
class PostSelectionResult:
    """Conditional quanton-detector state after one order-qubit outcome.

    conditional_q and gamma are derived from it on first read; all three are
    None for a degenerate outcome (probability below DEGENERATE_PROBABILITY).
    """

    outcome: str
    probability: float
    conditional_qd: DensityOperator | None

    @property
    def degenerate(self) -> bool:
        return self.conditional_qd is None

    @property
    def conditional_q(self) -> DensityOperator | None:
        return None if self.degenerate else partial_trace(self.conditional_qd, (0,))

    @property
    def gamma(self) -> complex | None:
        return None if self.degenerate else complex(self.conditional_q.matrix[0, 1])


def _psd_root(m: np.ndarray) -> np.ndarray:
    """(m + sqrt(det m) I) / sqrt(tr m + 2 sqrt(det m)), whose square is m for any nonzero
    2x2 positive semidefinite m, singular ones included (Cayley-Hamilton)."""
    root_det = math.sqrt(max((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real, 0.0))
    return (m + root_det * np.eye(2)) / math.sqrt(m[0, 0].real + m[1, 1].real + 2.0 * root_det)


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
    """Pure quanton-detector state of one definite causal order, dims (n, d).

    A dense reference: built only when asked for, memoized by the scenario
    next to the branch pair it is built from.  No library quantity uses it.
    """
    ab, ba = scenario._fixed_order_states
    return ab if CausalOrder(order) is CausalOrder.A_THEN_B else ba


def branch_overlap(scenario: SwitchScenario) -> complex:
    """Overlap <Psi_(a-then-b) | Psi_(b-then-a)> of the two order branches."""
    return complex(np.vdot(*scenario._branches))


def gram_spectrum(scenario: SwitchScenario, weights) -> np.ndarray:
    """Spectrum of G^(1/2) W G^(1/2), the nonzero spectrum of B W B^dagger, ascending.

    W is a Hermitian 2x2 matrix, or a stack of them: diag(p, 1 - p) gives
    rho_QD, conj(u) u^T o K the block of order outcome u, and diag(p, p - 1)
    the Helstrom operator p rho_ab - (1 - p) rho_ba.
    """
    _, root = scenario._gram
    return np.linalg.eigvalsh(root @ np.asarray(weights) @ root)


def order_marginal(scenario: SwitchScenario) -> np.ndarray:
    """Reduced order qubit K o G^T (entrywise): <i|rho_O|j> = K_ij <Psi_j|Psi_i>."""
    gram, _ = scenario._gram
    return scenario.order_state() * gram.T


def evolve_switch(scenario: SwitchScenario) -> DensityOperator:
    """Global state after the order-controlled evolution, dims (n, d, 2).

    sum_ij K_ij Phi_i Phi_j^dagger (x) |i><j|, with K the order state and
    Phi_0 = U_B U_A psi0, Phi_1 = U_A U_B psi0 from the dense U_A and U_B: what
    the switch unitary makes of psi0 (x) K, without forming it.  Memoized per
    scenario; rank one for a pure order preparation.  Only the relation
    checks use it, as their second route.
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


def measure_order(
    scenario: SwitchScenario, vectors: np.ndarray, outcomes: Sequence[str] = "01"
) -> list[PostSelectionResult]:
    """Measure the order qubit in the orthonormal basis of the rows of vectors.

    outcomes labels the rows, by index unless given.  Each outcome u carries
    its probability Tr sigma_u and, unless that is below DEGENERATE_PROBABILITY,
    its (n, d) state sigma_u / Tr sigma_u, with sigma_u = W W^dagger and
    W = B diag(conj(u)) K^(1/2): Hermitian and positive by construction.
    """
    branches = np.stack(scenario._branches, axis=1)
    k_root = _psd_root(scenario.order_state())
    dims = (scenario.n, scenario.detector_dim)
    results = []
    for outcome, u in zip(outcomes, vectors):
        w = branches @ (np.conj(u)[:, None] * k_root)
        prob = float(np.vdot(w, w).real)
        cond_qd = None if prob < DEGENERATE_PROBABILITY else DensityOperator(w @ w.conj().T / prob, dims)
        results.append(PostSelectionResult(outcome, prob, cond_qd))
    total = sum(result.probability for result in results)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"post-selection probabilities sum to {total}, expected 1")
    return results


def post_select(
    scenario: SwitchScenario, basis_phase: float = 0.0
) -> tuple[PostSelectionResult, PostSelectionResult]:
    """The '+' and '-' outcomes of measure_order in the phase-phi basis."""
    return tuple(measure_order(scenario, order_basis(basis_phase), "+-"))


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
