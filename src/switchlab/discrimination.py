"""State-discrimination bounds for causal-order branches.

helstrom_guess gives the minimum-error guessing probability for a binary
ensemble; the unambiguous-discrimination routines give the zero-error
optimum for two pure hypotheses, once through the closed form and once
through a brute-force POVM search that serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityOperator, trace_norm
from .measures import DualityReport, causal_coherence

#: grid size and refinement count for the numeric POVM search
_ORACLE_GRID = 10_000
_ORACLE_BISECTIONS = 50


@dataclass(frozen=True, eq=False)
class DiscriminationProblem:
    """Binary ensemble: state_a with the given prior, state_b with the rest."""

    prior: float
    state_a: DensityOperator
    state_b: DensityOperator

    def __post_init__(self):
        p = float(self.prior)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"prior must lie in [0, 1], got {p}")
        if self.state_a.dims != self.state_b.dims:
            raise ValueError(
                f"hypothesis dims differ: {self.state_a.dims} vs {self.state_b.dims}"
            )
        object.__setattr__(self, "prior", p)


@dataclass(frozen=True)
class UnambiguousOptimum:
    """Zero-error discrimination optimum.

    idp_regime is False when the symmetric two-state expression is not
    attainable for the given prior; probability then carries the clamped
    (projective-measurement) optimum instead.
    """

    probability: float
    idp_regime: bool


def helstrom_guess(problem: DiscriminationProblem) -> float:
    """Minimum-error guessing probability (1 + ||p rho_a - (1-p) rho_b||_1)/2."""
    p = problem.prior
    weighted = p * problem.state_a.matrix - (1.0 - p) * problem.state_b.matrix
    return 0.5 * (1.0 + trace_norm(weighted))


def _normalized_vector(psi, label: str) -> np.ndarray:
    v = np.asarray(psi, dtype=np.complex128).ravel()
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{label} has norm {norm}, expected 1")
    return v / norm


def uqsd_two_pure(prior: float, psi_a, psi_b) -> UnambiguousOptimum:
    """Optimal unambiguous discrimination of two pure states.

    Inside the prior window s <= sqrt(p/(1-p)) <= 1/s (s the overlap
    magnitude) this is 1 - 2 sqrt(p(1-p)) s.  Outside the window that
    expression is not attainable; the optimum degrades to the projective
    strategy that only ever identifies the likelier state, and the result
    is flagged accordingly.
    """
    p = float(prior)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {p}")
    a = _normalized_vector(psi_a, "psi_a")
    b = _normalized_vector(psi_b, "psi_b")
    if a.size != b.size:
        raise ValueError("states live in different dimensions")
    s = min(abs(complex(np.vdot(a, b))), 1.0)
    if s == 0.0:
        return UnambiguousOptimum(1.0, True)
    ratio = math.sqrt(p / (1.0 - p)) if p < 1.0 else math.inf
    if s <= ratio <= 1.0 / s:
        return UnambiguousOptimum(1.0 - 2.0 * math.sqrt(p * (1.0 - p)) * s, True)
    # only the likelier hypothesis is ever identified
    clamped = max(p, 1.0 - p) * (1.0 - s * s)
    return UnambiguousOptimum(clamped, False)


def _span_coordinates(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Rotate two unit vectors into their common 2-d span.

    Returns (s, c): after fixing phases, psi_a = (1, 0) and psi_b = (s, c)
    with s = |<a|b>| >= 0 and c = sqrt(1 - s^2).
    """
    overlap = complex(np.vdot(a, b))
    s = min(abs(overlap), 1.0)
    c = math.sqrt(max(1.0 - s * s, 0.0))
    return s, c


def uqsd_numeric_oracle(prior: float, psi_a, psi_b) -> float:
    """Brute-force optimum over the one-parameter unambiguous POVM family.

    Works in the 2-d span of the two states, where every unambiguous POVM
    has the form Pi_a = eta_a |b_perp><b_perp|, Pi_b = eta_b |a_perp><a_perp|,
    Pi_? = I - Pi_a - Pi_b >= 0.  Parameterized by the failure probability
    q on the first hypothesis, feasibility is q * q' >= s^2 for the second
    failure probability q', so the search is one-dimensional: a dense grid
    followed by bisection on the (monotone) derivative.  The final value is
    recomputed from the explicit POVM elements.
    """
    p = float(prior)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {p}")
    a = _normalized_vector(psi_a, "psi_a")
    b = _normalized_vector(psi_b, "psi_b")
    s, c = _span_coordinates(a, b)
    if c == 0.0:
        return 0.0  # parallel states carry no unambiguous information
    s2 = s * s

    def success(q: np.ndarray) -> np.ndarray:
        return p * (1.0 - q) + (1.0 - p) * (1.0 - s2 / q)

    grid = np.linspace(max(s2, 1e-15), 1.0, _ORACLE_GRID)
    values = success(grid)
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, _ORACLE_GRID - 1)]

    def slope(q: float) -> float:
        return -p + (1.0 - p) * s2 / (q * q)

    if slope(lo) <= 0.0:
        q_best = lo
    elif slope(hi) >= 0.0:
        q_best = hi
    else:
        for _ in range(_ORACLE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        q_best = 0.5 * (lo + hi)

    # realize the optimum as explicit POVM elements in the span and
    # evaluate the success functional from them
    q_other = min(max(s2 / q_best, 0.0), 1.0)
    eta_a = (1.0 - q_best) / (c * c)
    eta_b = (1.0 - q_other) / (c * c)
    vec_a = np.array([1.0, 0.0])
    vec_b = np.array([s, c])
    perp_a = np.array([0.0, 1.0])
    perp_b = np.array([c, -s])
    pi_a = eta_a * np.outer(perp_b, perp_b)
    pi_b = eta_b * np.outer(perp_a, perp_a)
    pi_fail = np.eye(2) - pi_a - pi_b
    if float(np.linalg.eigvalsh(pi_fail).min()) < -1e-12:
        raise ArithmeticError("numeric oracle produced an infeasible POVM")
    return float(
        p * (vec_a @ pi_a @ vec_a) + (1.0 - p) * (vec_b @ pi_b @ vec_b)
    )


def causal_duality(prior: float, psi_a, psi_b, tol: float = 1e-9) -> DualityReport:
    """Causal coherence paired with unambiguous order distinguishability.

    The distinguishability is the uqsd_two_pure optimum.  Inside its prior
    window the pair sums to one; outside it the sum falls short by
    (sqrt(1 - p) - s sqrt(p))^2 for p >= 1/2 (s the overlap magnitude), and
    by the mirror expression for p < 1/2.  The report's saturation flag
    records which.
    """
    a = _normalized_vector(psi_a, "psi_a")
    b = _normalized_vector(psi_b, "psi_b")
    coherence = causal_coherence(prior, complex(np.vdot(a, b)))
    return DualityReport(coherence, uqsd_two_pure(prior, a, b).probability, tol)
