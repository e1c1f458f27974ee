"""The benchmark's own inputs and output checks, written apart from switchlab.

Scenario files are generated here from a numpy Generator.  The reference
route rebuilds the two causal-order branches directly from a file's data,

    Psi_ab = (U_Q (x) I)(+)V_i psi_0,    Psi_ba = (+)V_i (U_Q (x) I) psi_0,

by acting on the (n, d)-reshaped amplitudes, and derives every checked
quantity from B = [Psi_ab, Psi_ba] and the 2x2 order state K through Gram
algebra.  It never builds the 2nd-dimensional joint state that switchlab's
pipeline uses, so the two routes share no code and no algorithm.

Each ``check_*`` function takes one command's stdout and returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: agreement required between the program's value and the reference value
REF_TOL = 1e-9
#: round-off allowed outside a physical range such as [0, 1]
RANGE_TOL = 1e-12

VERIFY_HEADER = ["check", "kind", "lhs", "rhs", "tol", "holds", "fingerprint"]

#: checks the battery runs on every scenario, whatever its symmetry or order
#: purity; causal-duality-sum and post-selected-duality:+/- are conditional
UNCONDITIONAL_CHECKS = frozenset(
    {
        "fixed-order-duality:a-then-b",
        "fixed-order-duality:b-then-a",
        "ico-coherence-convexity",
        "ico-duality-sum",
        "causal-visibility",
        "post-selection-mixture",
        "entropic-uncertainty",
        "order-entropy-consistency",
        "helstrom-overlap-invariance",
        "nogo-margin",
    }
)

#: verify rows whose lhs and rhs are probabilities, coherences or entropies
UNIT_RANGE_CHECKS = frozenset(
    {"causal-visibility", "ico-coherence-convexity", "order-entropy-consistency"}
)

#: verify rows whose lhs is a deviation, hence nonnegative
DEVIATION_CHECKS = frozenset(
    {"post-selection-mixture", "helstrom-overlap-invariance", "post-selected-duality:+",
     "post-selected-duality:-"}
)

SWEEP_COLUMNS = [
    "spatial_coherence",
    "distinguishability_bound",
    "causal_coherence",
    "p_plus",
    "order_bloch_norm",
    "order_entropy",
    "entropic_slack",
]

# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _pairs(matrix: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in matrix.ravel()]


def make_scenario(rng: np.random.Generator, n: int, d: int, mixed: bool) -> dict:
    """A random scenario in switchlab's JSON file format.

    Pure order sets order_offdiag to null.  Mixed order shrinks the pure
    off-diagonal by a factor in [0.2, 0.8], well clear of both the pure and
    the fully dephased case.
    """
    probabilities = rng.dirichlet(np.ones(n))
    probabilities = probabilities / probabilities.sum()
    p = float(rng.uniform(0.05, 0.95))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    offdiag = None
    if mixed:
        k = float(rng.uniform(0.2, 0.8)) * math.sqrt(p * (1.0 - p))
        k *= complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        offdiag = [k.real, k.imag]
    return {
        "probabilities": [float(x) for x in probabilities],
        "phases": [float(x) for x in rng.uniform(0.0, 2.0 * math.pi, n)],
        "detector_dim": d,
        "initial_detector_index": int(rng.integers(0, d)),
        "detector_unitaries": [_pairs(_haar(d, rng)) for _ in range(n)],
        "interference_unitary": _pairs(_haar(n, rng)),
        "order_weight": p,
        "order_phase": theta,
        "order_offdiag": offdiag,
    }


def write_scenario(config: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


# ---------------------------------------------------------------------------
# the reference route
# ---------------------------------------------------------------------------


def _matrix(pairs, dim: int) -> np.ndarray:
    flat = np.array(pairs, dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim)


class Branches:
    """The two order branches of one scenario file, as (n, d) amplitude arrays."""

    def __init__(self, config: dict):
        n = len(config["probabilities"])
        d = config["detector_dim"]
        amp = np.sqrt(np.array(config["probabilities"])) * np.exp(
            1j * np.array(config["phases"])
        )
        column = config["initial_detector_index"]
        marks = np.array([_matrix(v, d)[:, column] for v in config["detector_unitaries"]])
        u_q = _matrix(config["interference_unitary"], n)
        self.n, self.d = n, d
        # marking first: row i is amp_i V_i|d0>, then U_Q mixes the rows
        self.ab = u_q @ (amp[:, None] * marks)
        # interference first: row i is (U_Q amp)_i, then V_i marks it
        self.ba = (u_q @ amp)[:, None] * marks
        self.phase = float(config["order_phase"])
        offdiag = config["order_offdiag"]
        self.offdiag = None if offdiag is None else complex(offdiag[0], offdiag[1])

    def order_state(self, p: float) -> np.ndarray:
        if self.offdiag is None:
            k = math.sqrt(p * (1.0 - p)) * complex(np.exp(-1j * self.phase))
        else:
            k = self.offdiag
        return np.array([[p, k], [np.conj(k), 1.0 - p]])

    def overlap(self) -> complex:
        """<Psi_ab|Psi_ba>."""
        return complex(np.vdot(self.ab, self.ba))


def _l1(gram: np.ndarray) -> float:
    n = gram.shape[0]
    return float(np.abs(gram).sum() - np.abs(np.diag(gram)).sum()) / (n - 1)


def _entropy(eigenvalues) -> float:
    ev = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    ev = ev[ev > 0.0]
    return float(-(ev * np.log2(ev)).sum())


def _spectrum(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Nonzero spectrum of B X B^dagger, given B = Q R with orthonormal Q."""
    return np.linalg.eigvalsh(r @ x @ r.conj().T)


def quantities(branches: Branches, p: float, basis_phase: float = 0.0) -> dict[str, float]:
    """Every sweep column, and the entropic bound, at order weight p."""
    k_mat = branches.order_state(p)
    ab, ba = branches.ab, branches.ba
    rho_q = p * ab @ ab.conj().T + (1.0 - p) * ba @ ba.conj().T
    disting = p * (1.0 - _l1(ab @ ab.conj().T)) + (1.0 - p) * (1.0 - _l1(ba @ ba.conj().T))
    kappa = k_mat[0, 1] * np.conj(branches.overlap())  # <0|rho_O|1>
    coherence = 2.0 * abs(kappa)
    bloch = math.sqrt((2.0 * p - 1.0) ** 2 + coherence**2)

    _, r = np.linalg.qr(np.stack([ab.ravel(), ba.ravel()], axis=1))
    h_qd = _entropy(_spectrum(r, np.diag([p, 1.0 - p])))
    h_z = _entropy([p, 1.0 - p])
    h_x = sum(
        _entropy(_spectrum(r, 0.5 * np.diag([1.0, s]) @ k_mat @ np.diag([1.0, s])))
        for s in (1.0, -1.0)
    )
    bound = 1.0 + _entropy(np.linalg.eigvalsh(k_mat)) - h_qd
    entropy_z = max(h_z - h_qd, 0.0)
    entropy_x = max(h_x - h_qd, 0.0)
    return {
        "spatial_coherence": _l1(rho_q),
        "distinguishability_bound": disting,
        "causal_coherence": coherence,
        "p_plus": 0.5 * (1.0 + 2.0 * (kappa * complex(np.exp(1j * basis_phase))).real),
        "order_bloch_norm": bloch,
        "order_entropy": _entropy([(1.0 + bloch) / 2.0, (1.0 - bloch) / 2.0]),
        "entropic_slack": entropy_z + entropy_x - bound,
        "entropic_bound": bound,
        "entropy_sum": entropy_z + entropy_x,
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _in_unit_range(value: float) -> bool:
    return -RANGE_TOL <= value <= 1.0 + RANGE_TOL


def check_verify_output(text: str, scenarios: int, tol: float) -> tuple[list[str], dict]:
    """Properties every `verify` CSV must have, for `scenarios` scenarios.

    Every row holds, and holds agrees with its own numbers; each scenario
    fingerprint carries each unconditional check exactly once; physical
    quantities stay in range.  Returns the problems found and the rows by
    fingerprint and check name, for callers that compare values further.
    """
    header, rows = _parse_csv(text)
    if header != VERIFY_HEADER:
        return [f"verify header {header!r}"], {}
    problems = []
    by_fp: dict[str, dict[str, tuple[float, float]]] = {}
    for row in rows:
        if len(row) != len(VERIFY_HEADER):
            problems.append(f"verify row {row!r}: wrong width")
            continue
        name, kind, lhs, rhs, row_tol, holds, fp = row
        try:
            lhs, rhs, row_tol = float(lhs), float(rhs), float(row_tol)
        except ValueError:
            problems.append(f"verify row {row!r}: not a number")
            continue
        if not all(math.isfinite(x) for x in (lhs, rhs, row_tol)):
            problems.append(f"{name} on {fp}: non-finite value")
        if kind == "le":
            recomputed = lhs <= rhs + row_tol
        elif kind == "eq":
            recomputed = abs(lhs - rhs) <= row_tol
        else:
            problems.append(f"{name} on {fp}: unknown kind {kind!r}")
            continue
        if holds != "true" or not recomputed:
            problems.append(f"{name} on {fp}: lhs {lhs!r} rhs {rhs!r} tol {row_tol!r} holds={holds}")
        if not 0.0 < row_tol <= tol:
            problems.append(f"{name} on {fp}: tolerance {row_tol!r} outside (0, {tol!r}]")
        if name in UNIT_RANGE_CHECKS and not (_in_unit_range(lhs) and _in_unit_range(rhs)):
            problems.append(f"{name} on {fp}: {lhs!r}, {rhs!r} outside [0, 1]")
        if name in DEVIATION_CHECKS and lhs < 0.0:
            problems.append(f"{name} on {fp}: negative deviation {lhs!r}")
        names = by_fp.setdefault(fp, {})
        if name in names:
            problems.append(f"{name} on {fp}: repeated")
        names[name] = (lhs, rhs)
    if len(by_fp) != scenarios:
        problems.append(f"{len(by_fp)} fingerprints, expected {scenarios}")
    for fp, names in by_fp.items():
        missing = UNCONDITIONAL_CHECKS - names.keys()
        if missing:
            problems.append(f"{fp}: missing checks {sorted(missing)}")
    return problems, by_fp


def check_dense_verify_output(text: str, config: dict, tol: float) -> list[str]:
    """`verify --samples 0` on one scenario file, against the reference route.

    Besides the verify properties: the causal-visibility sides must equal
    2|k| |<Psi_ab|Psi_ba>|, and the entropic-uncertainty sides must equal
    the reference bound and entropy sum.
    """
    problems, by_fp = check_verify_output(text, 1, tol)
    if problems:
        return problems
    (checks,) = by_fp.values()
    branches = Branches(config)
    p = float(config["order_weight"])
    ref = quantities(branches, p)
    expected = {
        "causal-visibility": (ref["causal_coherence"], ref["causal_coherence"]),
        "entropic-uncertainty": (ref["entropic_bound"], ref["entropy_sum"]),
    }
    for name, sides in expected.items():
        for side, got, want in zip(("lhs", "rhs"), checks[name], sides):
            if not abs(got - want) <= REF_TOL:
                problems.append(f"{name} {side} {got!r}, reference {want!r}")
    return problems


def check_sweep_output(
    text: str, config: dict, axes: dict[str, np.ndarray], tol: float
) -> list[str]:
    """`sweep` rows over p and phi, each recomputed by the reference route."""
    header, rows = _parse_csv(text)
    names = list(axes)
    if header != names + SWEEP_COLUMNS + ["fingerprint"]:
        return [f"sweep header {header!r}"]
    grid = sorted(
        (float(a), float(b)) for a in axes[names[0]] for b in axes[names[1]]
    )
    if len(rows) != len(grid):
        return [f"{len(rows)} sweep rows, expected {len(grid)}"]
    branches = Branches(config)
    problems = []
    for row, point in zip(rows, grid):
        try:
            values = [float(x) for x in row[:-1]]
        except ValueError:
            problems.append(f"sweep row {row!r}: not a number")
            continue
        if tuple(values[:2]) != point:
            problems.append(f"sweep row at {values[:2]}, expected {point}")
            continue
        assignment = dict(zip(names, point))
        got = dict(zip(SWEEP_COLUMNS, values[2:]))
        ref = quantities(branches, assignment["p"], assignment["phi"])
        for column in SWEEP_COLUMNS:
            if not abs(got[column] - ref[column]) <= REF_TOL:
                problems.append(
                    f"{column} at {point}: {got[column]!r}, reference {ref[column]!r}"
                )
        for column in ("spatial_coherence", "distinguishability_bound", "causal_coherence",
                       "p_plus", "order_bloch_norm"):
            if not _in_unit_range(got[column]):
                problems.append(f"{column} at {point}: {got[column]!r} outside [0, 1]")
        if got["entropic_slack"] < -tol:
            problems.append(f"entropic uncertainty violated at {point}: slack {got['entropic_slack']!r}")
    return problems
