"""Scalar complementarity measures.

Spatial quantities (l1 coherence, path distinguishability) live on the
quanton-detector pair; causal quantities (causal coherence, interference
visibility, Bloch norm) live on the order qubit; the conditional entropies
connect the two through measurements on the order factor.  All entropies
are in bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DensityOperator,
    checked_spectrum,
    partial_trace,
    spectrum_entropy,
    von_neumann_entropy,
)
from .model import contract_order, order_basis


@dataclass(frozen=True)
class DualityReport:
    """Coherence/distinguishability pair for one level of description."""

    coherence: float
    distinguishability: float
    tol: float = 1e-9

    @property
    def total(self) -> float:
        return self.coherence + self.distinguishability

    @property
    def saturated(self) -> bool:
        return abs(self.total - 1.0) < self.tol


@dataclass(frozen=True)
class EntropicReport:
    """Conditional entropies of the order measurements and their lower bound.

    bloch_norm is the Bloch-vector length of the reduced order qubit, whose
    eigenvalues are (1 +/- bloch_norm)/2; order_entropy is its entropy.
    """

    entropy_z: float
    entropy_x: float
    bound: float
    bloch_norm: float
    order_entropy: float

    @property
    def slack(self) -> float:
        return self.entropy_z + self.entropy_x - self.bound


def _matrix_of(rho) -> np.ndarray:
    if isinstance(rho, DensityOperator):
        return rho.matrix
    return np.asarray(rho, dtype=np.complex128)


def _snap_unit(value: float) -> float:
    """Move round-off within 1e-12 outside [0, 1] onto the range; keep larger excursions."""
    if -1e-12 <= value <= 1.0 + 1e-12:
        return min(max(value, 0.0), 1.0)
    return value


def l1_coherence(rho, n: int | None = None) -> float:
    """Normalized l1 coherence: sum of off-diagonal magnitudes over (n - 1).

    n defaults to the matrix dimension and must match it when given.
    Round-off within 1e-12 outside [0, 1] is snapped into the range.
    """
    m = _matrix_of(rho)
    if n is None:
        n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {m.shape}")
    if n < 2:
        raise ValueError("coherence needs at least a two-dimensional basis")
    off = np.abs(m).sum() - np.abs(np.diag(m)).sum()
    return _snap_unit(float(off) / (n - 1))


def path_distinguishability(priors: Sequence[float], detector_states) -> float:
    """Optimal unambiguous identification probability of the marked path.

    Closed form for pure detector ensembles:
    1 - sum_{i != j} sqrt(p_i p_j) |<d_j|d_i>| / (n - 1).  Round-off within
    1e-12 outside [0, 1] is snapped into the range.
    """
    p = np.asarray(priors, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need at least two priors")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"priors must be nonnegative and sum to 1, got sum {p.sum()}")
    states = [np.asarray(s, dtype=np.complex128).ravel() for s in detector_states]
    if len(states) != p.size:
        raise ValueError(f"{len(states)} detector states for {p.size} priors")
    for i, s in enumerate(states):
        if p[i] > 0.0 and abs(np.linalg.norm(s) - 1.0) > 1e-9:
            raise ValueError(f"detector state {i} is not normalized")
    weighted = np.sqrt(np.clip(p, 0.0, None))[:, None] * np.array(states)
    overlaps = np.abs(weighted.conj() @ weighted.T)
    off_diagonal = overlaps.sum() - np.trace(overlaps)
    return _snap_unit(1.0 - off_diagonal / (p.size - 1))


def causal_coherence(order_weight: float, overlap: complex) -> float:
    """l1 coherence of the order qubit: 2 sqrt(p(1-p)) |overlap|.

    overlap is the inner product of the two causal-order branch states.
    """
    p = float(order_weight)
    mag = abs(overlap)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"order weight must lie in [0, 1], got {p}")
    if mag > 1.0 + 1e-12:
        raise ValueError(f"branch overlap magnitude {mag} exceeds 1")
    return 2.0 * math.sqrt(p * (1.0 - p)) * min(mag, 1.0)


def order_interference(rho_o, basis_phase: float) -> tuple[float, float]:
    """Outcome probabilities of the order qubit in the phase-phi basis.

    Evaluates <+-_phi| rho |+-_phi> directly; the result follows the cosine
    law (1 +/- 2|k| cos(phi + arg k))/2 with k the off-diagonal of rho.
    """
    m = _matrix_of(rho_o)
    if m.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {m.shape}")
    basis = order_basis(basis_phase)
    p_plus, p_minus = np.einsum("si,ij,sj->s", basis.conj(), m, basis).real
    return float(p_plus), float(p_minus)


def causal_visibility(rho_o, scan_points: int = 720) -> float:
    """Interference visibility of the order qubit from a phase scan.

    Scans the outcome probability over scan_points phases, refines at the
    analytically extremal phases, and cross-checks the result against the
    off-diagonal magnitude (the two must agree to 1e-10).
    """
    m = _matrix_of(rho_o)
    if m.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {m.shape}")
    kappa = complex(m[0, 1])
    # cosine extremes sit at -arg(kappa) and its antiphase
    extremes = [-cmath.phase(kappa), -cmath.phase(kappa) + math.pi]
    phases = np.append(2.0 * math.pi * np.arange(scan_points) / scan_points, extremes)
    plus = order_basis(phases)[:, 0]
    probs = np.einsum("ki,ij,kj->k", plus.conj(), m, plus).real
    p_max, p_min = float(probs.max()), float(probs.min())
    visibility = (p_max - p_min) / (p_max + p_min)
    direct = 2.0 * abs(kappa)
    if abs(visibility - direct) > 1e-10:
        raise ArithmeticError(
            f"visibility scan {visibility} disagrees with off-diagonal value {direct}"
        )
    return visibility


def binary_entropy(x: float) -> float:
    """Binary entropy in bits; endpoints map to 0."""
    x = _snap_unit(float(x))
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def order_bloch_norm(order_weight: float, causal_coherence_value: float) -> float:
    """Bloch-vector length of the order qubit: sqrt((2p-1)^2 + C^2).

    The order-qubit eigenvalues are (1 +/- result)/2, so its entropy is
    the binary entropy of (1 + result)/2.
    """
    p = float(order_weight)
    c = float(causal_coherence_value)
    value = math.sqrt((2.0 * p - 1.0) ** 2 + c * c)
    if value > 1.0 + 1e-10:
        raise ValueError(
            f"inconsistent inputs: Bloch norm {value} exceeds 1 "
            f"(order weight {p}, causal coherence {c})"
        )
    return min(value, 1.0)


def conditional_entropy_after_measurement(rho: DensityOperator, basis: str) -> float:
    """H(basis measurement on O | QD): entropy of the dephased state minus H(QD).

    This is the dense route, for any (n, d, 2) state.  The dephased state
    sum_u sigma_u (x) |u><u|, with sigma_u the contract_order blocks in the
    'z' or 'x' basis, is never built: its spectrum is the union of the
    blocks' spectra.  Each block is checked as it stands, unnormalized, with
    the absolute tolerances of the joint state, so an outcome of tiny
    probability is not judged on its round-off magnified by normalization.
    The result is nonnegative; round-off down to -1e-10 is clamped to zero.
    """
    if basis == "z":
        vectors = np.eye(2, dtype=np.complex128)
    elif basis == "x":
        vectors = order_basis(0.0)
    else:
        raise ValueError(f"unknown measurement basis {basis!r}; use 'z' or 'x'")
    blocks = contract_order(rho, vectors)
    spectrum = np.concatenate([checked_spectrum(block) for block in blocks])
    marginal = partial_trace(rho, tuple(range(len(rho.dims) - 1)))
    value = spectrum_entropy(spectrum) - von_neumann_entropy(marginal)
    if -1e-10 < value < 0.0:
        return 0.0
    return value
