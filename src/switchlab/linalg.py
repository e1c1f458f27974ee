"""Dense complex linear algebra for small multipartite quantum systems.

Everything operates on plain numpy arrays (complex128, row-major, 0-based).
Tensor factor 0 is always the leftmost Kronecker factor.  All routines are
dense, for joint states of dimension 2nd up to a few hundred (392 at
n = d = 14), and favour clarity and strict validation over cleverness.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: max-entry tolerance for Hermiticity / unitarity checks
HERMITIAN_TOL = 1e-10
#: tolerance on Tr(rho) = 1
TRACE_TOL = 1e-10
#: eigenvalues of a density operator may undershoot zero by this much;
#: anything in [-PSD_TOL, 1 + PSD_TOL] is clamped to [0, 1] before logs,
#: anything outside is treated as a real violation.
PSD_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-d complex128 array (always a copy)."""
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.abs(m - dagger(m)).max()) <= tol


def is_unitary(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    d = m.shape[0]
    return float(np.abs(dagger(m) @ m - np.eye(d)).max()) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product.

    Entry (i * rows_b + k, j * cols_b + l) of the result equals
    a[i, j] * b[k, l].
    """
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors is unitary with the
    i-th column the eigenvector of eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ValueError if the input deviates from Hermiticity by more than
    HERMITIAN_TOL in any entry.
    """
    h = as_complex_matrix(h)
    if not is_hermitian(h):
        raise ValueError("hermitian_eig: input is not Hermitian within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    return HermitianEigen(eigenvalues, eigenvectors)


def trace_norm(m) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    m = as_complex_matrix(m)
    if not is_hermitian(m):
        raise ValueError("trace_norm: input is not Hermitian within tolerance")
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated density matrix with subsystem dimension metadata.

    dims lists the tensor factor dimensions left to right; their product
    must equal the matrix dimension.  Construction checks Hermiticity,
    unit trace and positivity (up to the module tolerances), so any
    DensityOperator in flight is a physical state.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if int(np.prod(dims)) != m.shape[0]:
            raise ValueError(
                f"dims {dims} give dimension {int(np.prod(dims))}, "
                f"matrix has dimension {m.shape[0]}"
            )
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix has trace {tr}, expected 1")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, clamped to [0, 1]."""
        return np.clip(np.linalg.eigvalsh(self.matrix), 0.0, 1.0)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self, tol: float = PSD_TOL) -> bool:
        return self.purity() >= 1.0 - tol


def pure_state_density(vector, dims: Sequence[int]) -> DensityOperator:
    """Rank-1 density operator |v><v| from a state vector.

    The vector must be normalized within 1e-9; it is renormalized exactly
    so the resulting trace is 1 to machine precision.
    """
    v = np.asarray(vector, dtype=np.complex128).ravel()
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state vector has norm {norm}, expected 1")
    v = v / norm
    return DensityOperator(np.outer(v, np.conj(v)), tuple(dims))


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out all subsystems not listed in keep.

    Parameters
    ----------
    rho : DensityOperator
        State with len(rho.dims) tensor factors.
    keep : iterable of int
        Indices of the factors to retain.  The result carries the kept
        dimensions in their original order.

    Returns
    -------
    DensityOperator on the kept factors; the trace is preserved.
    """
    dims = rho.dims
    keep_sorted = sorted(set(int(k) for k in keep))
    if not keep_sorted:
        raise ValueError("partial_trace: keep must be a nonempty set of indices")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= len(dims):
        raise ValueError(
            f"partial_trace: invalid subsystem index in {keep_sorted} "
            f"for {len(dims)} factors"
        )
    n = len(dims)
    letters = string.ascii_lowercase
    if 2 * n > len(letters):
        raise ValueError("partial_trace: too many tensor factors")
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for i in range(n):
        if i not in keep_sorted:
            col[i] = row[i]  # repeated index: summed over
    out = "".join(row[i] for i in keep_sorted) + "".join(col[i] for i in keep_sorted)
    spec = "".join(row) + "".join(col) + "->" + out
    tensor = rho.matrix.reshape(dims + dims)
    kept_dim = int(np.prod([dims[i] for i in keep_sorted]))
    reduced = np.einsum(spec, tensor).reshape(kept_dim, kept_dim)
    return DensityOperator(reduced, tuple(dims[i] for i in keep_sorted))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy in bits, with 0 log 0 := 0.

    Eigenvalues are clamped to [0, 1] before taking logs; the clamping
    window is enforced by the DensityOperator invariants.
    """
    ev = rho.eigenvalues()
    nonzero = ev[ev > 0.0]
    return float(-(nonzero * np.log2(nonzero)).sum() + 0.0)
