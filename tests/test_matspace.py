import numpy as np
import numpy.testing as npt
import pytest

import isomlab as il
from isomlab.errors import InvalidDimension, NotHermitian

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_gell_mann_n2_is_pauli_over_sqrt2():
    basis = il.gell_mann_basis(2)
    assert basis.d == 3
    for got, pauli in zip(basis.mats, PAULI):
        npt.assert_allclose(got, pauli / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gell_mann_gram_is_identity(n):
    basis = il.gell_mann_basis(n)
    assert basis.d == n * n - 1
    gram = np.einsum("ijk,lkj->il", basis.mats, basis.mats).real
    npt.assert_allclose(gram, np.eye(basis.d), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gell_mann_elements_traceless_hermitian(n):
    for B in il.gell_mann_basis(n).mats:
        assert abs(np.trace(B)) < 1e-14
        assert np.max(np.abs(B - B.conj().T)) < 1e-14


def test_skew_basis_n4_coordinate_order():
    basis = il.skew_basis(4)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert basis.d == 6
    for F, (j, k) in zip(basis.mats, pairs):
        expected = np.zeros((4, 4))
        expected[j, k] = 1 / np.sqrt(2)
        expected[k, j] = -1 / np.sqrt(2)
        npt.assert_allclose(F, expected, atol=1e-15)


def test_skew_basis_n2_single_element():
    basis = il.skew_basis(2)
    assert basis.d == 1
    npt.assert_allclose(basis.mats[0], np.array([[0, 1], [-1, 0]]) / np.sqrt(2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_skew_gram_is_identity(n):
    basis = il.skew_basis(n)
    assert basis.d == n * (n - 1) // 2
    gram = np.einsum("ijk,ljk->il", basis.mats, basis.mats)
    npt.assert_allclose(gram, np.eye(basis.d), atol=1e-14)


def test_basis_requires_n_at_least_2():
    with pytest.raises(InvalidDimension):
        il.gell_mann_basis(1)
    with pytest.raises(InvalidDimension):
        il.skew_basis(0)


def test_vectorize_basis_element_gives_unit_vector():
    basis = il.gell_mann_basis(3)
    v = il.vectorize(basis.mats[0], basis)
    expected = np.zeros(8)
    expected[0] = 1.0
    npt.assert_allclose(v, expected, atol=1e-14)


def test_vectorize_zero():
    basis = il.skew_basis(4)
    npt.assert_allclose(il.vectorize(np.zeros((4, 4)), basis), np.zeros(6))


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vectorize_round_trip(space, n):
    basis = il.basis_for(space, n)
    for seed in range(5):
        A = il.random_element(space, n, seed)
        back = il.devectorize(il.vectorize(A, basis), basis)
        assert np.max(np.abs(A - back)) < 1e-12
        # coordinate Euclidean norm equals Frobenius norm by normalization
        assert abs(np.linalg.norm(il.vectorize(A, basis)) - np.linalg.norm(A)) < 1e-12


def test_vectorize_dimension_mismatch():
    basis = il.gell_mann_basis(3)
    with pytest.raises(InvalidDimension):
        il.vectorize(np.zeros((4, 4)), basis)
    with pytest.raises(InvalidDimension):
        il.devectorize(np.zeros(9), basis)


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_coordinate_maps_take_a_batch_axis(space, n):
    basis = il.basis_for(space, n)
    stack = il.random_element(space, n, [6, n], count=4)
    assert stack.shape == (4, n, n)
    coords = il.vectorize(stack, basis)
    assert coords.shape == (4, basis.d)
    npt.assert_array_equal(coords, [il.vectorize(A, basis) for A in stack])
    npt.assert_array_equal(il.devectorize(coords, basis), [il.devectorize(v, basis) for v in coords])
    M = np.random.default_rng(n).standard_normal((basis.d, basis.d))
    moved = il.apply_map(M, stack, basis)
    npt.assert_allclose(moved, [il.apply_map(M, A, basis) for A in stack], rtol=0, atol=1e-13)
    single = il.apply_map(M, stack[:1], basis)
    assert single.shape == (1, n, n)
    with pytest.raises(InvalidDimension):
        il.vectorize(stack[None], basis)
    with pytest.raises(InvalidDimension):
        il.devectorize(coords[None], basis)


def test_is_element_judges_each_member_of_a_stack():
    stack = il.random_element(il.HERMITIAN_TRACELESS, 3, 4, count=3)
    npt.assert_array_equal(il.is_element(stack, il.HERMITIAN_TRACELESS), [True, True, True])
    stack[1, 0, 1] += 1e-3
    npt.assert_array_equal(il.is_element(stack, il.HERMITIAN_TRACELESS), [True, False, True])
    assert il.is_element(stack[0], il.HERMITIAN_TRACELESS)
    assert not il.is_element(stack[1], il.HERMITIAN_TRACELESS)


def test_project_traceless_examples():
    npt.assert_allclose(il.project_traceless(np.eye(3)), np.zeros((3, 3)), atol=1e-15)
    A = np.diag([2.0, 1.0, 0.0]).astype(complex)
    npt.assert_allclose(il.project_traceless(A), np.diag([1.0, 0.0, -1.0]), atol=1e-15)


def test_project_traceless_idempotent_and_fixes_traceless():
    A = il.random_element(il.HERMITIAN_TRACELESS, 4, 1)
    once = il.project_traceless(A)
    npt.assert_allclose(once, A, atol=1e-13)
    npt.assert_allclose(il.project_traceless(once), once, atol=1e-13)
    assert abs(np.trace(once)) < 1e-12


def test_project_traceless_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        il.project_traceless(bad)


def test_random_element_deterministic():
    a = il.random_element(il.HERMITIAN_TRACELESS, 3, 123)
    b = il.random_element(il.HERMITIAN_TRACELESS, 3, 123)
    npt.assert_array_equal(a, b)
    c = il.random_element(il.SKEW_REAL, 5, 7)
    d = il.random_element(il.SKEW_REAL, 5, 7)
    npt.assert_array_equal(c, d)


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
def test_random_element_satisfies_invariants(space):
    for seed in range(10):
        A = il.random_element(space, 4, seed)
        assert il.is_element(A, space)


def test_random_element_mean_entry_magnitude():
    """Monte-Carlo check against the closed-form half-normal/Rayleigh means.

    With standard normal coordinates, an off-diagonal entry has independent
    N(0, 1/2) real and imaginary parts (mean modulus sqrt(pi)/2) and a
    diagonal entry is N(0, 1 - 1/n) (mean modulus sqrt(2(1-1/n)/pi)).
    """
    n, samples = 3, 10_000
    total = 0.0
    for seed in range(samples):
        total += np.mean(np.abs(il.random_element(il.HERMITIAN_TRACELESS, n, [99, seed])))
    empirical = total / samples
    off = np.sqrt(np.pi) / 2.0
    diag = np.sqrt(2.0 * (1.0 - 1.0 / n) / np.pi)
    analytic = (n * (n - 1) * off + n * diag) / n**2
    assert abs(empirical - analytic) < 0.1 * analytic


def test_trace_form_positive_definite():
    for seed in range(20):
        A = il.random_element(il.HERMITIAN_TRACELESS, 3, [5, seed])
        val = il.trace_inner(A, A, il.HERMITIAN_TRACELESS)
        assert val > 0
        assert abs(val - np.linalg.norm(A) ** 2) < 1e-12
