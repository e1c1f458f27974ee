import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from switchlab.linalg import (
    DensityOperator,
    hermitian_eig,
    kron,
    partial_trace,
    pure_state_density,
    trace_norm,
    von_neumann_entropy,
)

from conftest import random_density, random_pure_vector, random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------


def test_kron_identities():
    assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_scalar_factor(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = 0.7 - 0.2j
    assert_allclose(kron([[s]], a), s * a)


def _kron_by_hand(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def test_kron_pauli_entries():
    m = kron(PAULI_X, PAULI_Z)
    assert m[0, 2] == 1.0
    assert m[1, 3] == -1.0
    assert_allclose(m, _kron_by_hand(PAULI_X, PAULI_Z))


@settings(max_examples=25, deadline=None)
@given(
    ra=st.integers(1, 3),
    ca=st.integers(1, 3),
    rb=st.integers(1, 3),
    cb=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kron_matches_index_formula(ra, ca, rb, cb, seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(ra, ca)) + 1j * gen.normal(size=(ra, ca))
    b = gen.normal(size=(rb, cb)) + 1j * gen.normal(size=(rb, cb))
    assert_allclose(kron(a, b), _kron_by_hand(a, b), atol=1e-14)


def test_kron_rejects_non_finite():
    with pytest.raises(ValueError):
        kron(np.array([[np.inf, 0], [0, 1]]), np.eye(2))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_bell_marginal():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = pure_state_density(bell, (2, 2))
    reduced = partial_trace(rho, (0,))
    assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state(rng):
    rho_a = random_density((3,), rng)
    rho_b = random_density((2,), rng)
    joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), (3, 2))
    assert_allclose(partial_trace(joint, (0,)).matrix, rho_a.matrix, atol=1e-12)
    assert_allclose(partial_trace(joint, (1,)).matrix, rho_b.matrix, atol=1e-12)


def _trace_out_by_hand(rho, dims, keep):
    """Independent index-summation oracle for the partial trace."""
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    out = np.zeros((int(np.prod(kept_dims)), int(np.prod(kept_dims))), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[t] != col[t] for t in traced):
                continue
            r = np.ravel_multi_index([row[k] for k in keep], kept_dims)
            c = np.ravel_multi_index([col[k] for k in keep], kept_dims)
            out[r, c] += rho[np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)]
    return out


def test_partial_trace_matches_summation_oracle(rng):
    rho = random_density((2, 2, 2), rng)
    for keep in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]:
        got = partial_trace(rho, keep)
        want = _trace_out_by_hand(rho.matrix, (2, 2, 2), keep)
        assert_allclose(got.matrix, want, atol=1e-12)
        assert got.dims == tuple(2 for _ in keep)


def test_partial_trace_preserves_density_invariants(rng):
    rho = random_density((2, 3, 2), rng)
    reduced = partial_trace(rho, (1,))
    assert abs(np.trace(reduced.matrix) - 1) < 1e-9
    assert np.abs(reduced.matrix - reduced.matrix.conj().T).max() < 1e-9
    assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-9


def test_partial_trace_rejects_bad_subsystem(rng):
    rho = random_density((2, 2), rng)
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))
    with pytest.raises(ValueError):
        partial_trace(rho, ())


# ---------------------------------------------------------------------------
# hermitian_eig
# ---------------------------------------------------------------------------


def test_hermitian_eig_diagonal():
    result = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(result.eigenvalues, [1.0, 2.0, 3.0])


def test_hermitian_eig_pauli_x():
    result = hermitian_eig(PAULI_X)
    assert_allclose(result.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_reconstruction(rng):
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = g + g.conj().T
    vals, vecs = hermitian_eig(h)
    assert np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h).max() < 1e-10
    assert np.abs(vecs.conj().T @ vecs - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(vals) >= 0)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_two_by_two_spectrum_matches_characteristic_roots(rng):
    for _ in range(50):
        a, d = rng.normal(size=2)
        b = rng.normal() + 1j * rng.normal()
        h = np.array([[a, b], [np.conj(b), d]])
        vals = hermitian_eig(h).eigenvalues
        disc = np.sqrt((a - d) ** 2 + 4 * abs(b) ** 2)
        roots = np.sort([(a + d - disc) / 2, (a + d + disc) / 2])
        assert_allclose(vals, roots, atol=1e-10)


# ---------------------------------------------------------------------------
# trace norm
# ---------------------------------------------------------------------------


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)


def test_trace_norm_of_density_operator(rng):
    rho = random_density((4,), rng)
    assert trace_norm(rho.matrix) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_pure_state_difference(rng):
    psi = random_pure_vector(2, rng)
    chi = random_pure_vector(2, rng)
    diff = 0.5 * np.outer(psi, psi.conj()) - 0.5 * np.outer(chi, chi.conj())
    overlap = abs(np.vdot(psi, chi))
    closed_form = np.sqrt(1 - overlap**2)
    assert trace_norm(diff) == pytest.approx(closed_form, abs=1e-12)
    # eigen-sum cross check
    assert trace_norm(diff) == pytest.approx(np.abs(np.linalg.eigvalsh(diff)).sum())


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_trace_norm_unitary_invariance(rng):
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = g + g.conj().T
    u = random_unitary(5, rng)
    assert trace_norm(u @ h @ u.conj().T) == pytest.approx(trace_norm(h), abs=1e-9)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_pure_state_is_zero(rng):
    rho = pure_state_density(random_pure_vector(4, rng), (4,))
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed_qubit():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    assert von_neumann_entropy(rho) == pytest.approx(1.0)


def test_entropy_matches_binary_entropy():
    rho = DensityOperator(np.diag([0.75, 0.25]), (2,))
    h2 = -0.75 * np.log2(0.75) - 0.25 * np.log2(0.25)
    assert von_neumann_entropy(rho) == pytest.approx(h2, abs=1e-14)


def test_entropy_unitary_invariance_and_additivity(rng):
    rho = random_density((3,), rng)
    sigma = random_density((2,), rng)
    u = random_unitary(3, rng)
    rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (3,))
    assert von_neumann_entropy(rotated) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-9
    )
    product = DensityOperator(np.kron(rho.matrix, sigma.matrix), (3, 2))
    assert von_neumann_entropy(product) == pytest.approx(
        von_neumann_entropy(rho) + von_neumann_entropy(sigma), abs=1e-9
    )


# ---------------------------------------------------------------------------
# DensityOperator validation
# ---------------------------------------------------------------------------


def test_density_operator_rejects_bad_inputs(rng):
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2), (2,))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]), (2,))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.eye(4) / 4, (2,))  # dims mismatch
    with pytest.raises(ValueError):
        pure_state_density(np.array([1.0, 1.0]), (2,))  # unnormalized


def test_validation_spectrum_is_reused_and_read_only(rng, monkeypatch):
    rho = random_density((3, 2), rng)
    spectrum = np.linalg.eigvalsh(rho.matrix)
    assert np.array_equal(rho.spectrum, spectrum)
    assert not rho.spectrum.flags.writeable
    with pytest.raises(ValueError):
        rho.spectrum[0] = 0.5

    def forbidden(m):
        raise AssertionError("eigvalsh called after construction")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert np.array_equal(rho.eigenvalues(), np.clip(spectrum, 0.0, 1.0))
    h = -(spectrum * np.log2(spectrum)).sum()
    assert von_neumann_entropy(rho) == pytest.approx(h, abs=1e-12)


def test_purity_is_trace_of_square(rng):
    for rank in (1, 2, 6):
        rho = random_density((3, 2), rng, rank=rank)
        want = np.trace(rho.matrix @ rho.matrix).real
        assert rho.purity() == pytest.approx(want, abs=1e-14)
    assert pure_state_density(random_pure_vector(6, rng), (6,)).is_pure()


def test_partial_trace_is_memoized_per_state(rng):
    rho = random_density((2, 3, 2), rng)
    reduced = partial_trace(rho, (0, 1))
    assert partial_trace(rho, (1, 0)) is reduced
    assert partial_trace(rho, [0, 1, 1]) is reduced
    assert partial_trace(rho, (2,)) is not reduced
    fresh = DensityOperator(rho.matrix, rho.dims)
    assert partial_trace(fresh, (0, 1)) is not reduced
    assert np.array_equal(partial_trace(fresh, (0, 1)).matrix, reduced.matrix)
