import numpy as np
import numpy.testing as npt
import pytest

import isomlab as il
from isomlab.errors import NotSpecialOrthogonal, SingularMap


def test_haar_unitary_is_unitary():
    for seed in range(100):
        U = il.haar_unitary(5, seed)
        assert np.max(np.abs(U @ U.conj().T - np.eye(5))) < 1e-12


def test_haar_unitary_special_determinant():
    for seed in range(20):
        U = il.haar_unitary(4, seed, special=True)
        assert abs(np.linalg.det(U) - 1) < 1e-12


def test_haar_unitary_count_draws_a_stack():
    stack = il.haar_unitary(4, 9, count=6)
    assert stack.shape == (6, 4, 4)
    npt.assert_allclose(stack @ stack.conj().transpose(0, 2, 1), np.broadcast_to(np.eye(4), (6, 4, 4)), atol=1e-12)
    npt.assert_array_equal(stack, il.haar_unitary(4, 9, count=6))
    special = il.haar_unitary(4, 9, special=True, count=6)
    npt.assert_allclose(np.linalg.det(special), np.ones(6), atol=1e-12)
    assert il.haar_unitary(4, 9).shape == (4, 4)


def test_haar_reproducible():
    npt.assert_array_equal(il.haar_unitary(3, 42), il.haar_unitary(3, 42))
    npt.assert_array_equal(il.haar_orthogonal(3, 42), il.haar_orthogonal(3, 42))


def test_haar_unitary_trace_moment():
    # the Haar second moment of |tr U| is exactly one
    total = sum(abs(np.trace(il.haar_unitary(3, [17, s]))) ** 2 for s in range(10_000))
    assert abs(total / 10_000 - 1.0) < 0.05


def test_haar_orthogonal_properties():
    for seed in range(20):
        Q = il.haar_orthogonal(5, seed)
        assert np.max(np.abs(Q @ Q.T - np.eye(5))) < 1e-12
        assert abs(abs(np.linalg.det(Q)) - 1) < 1e-10
        Qs = il.haar_orthogonal(5, seed, special=True)
        assert abs(np.linalg.det(Qs) - 1) < 1e-12


def test_ad_identity_and_kernel():
    basis = il.gell_mann_basis(3)
    npt.assert_allclose(il.ad_matrix(np.eye(3, dtype=complex), basis), np.eye(8), atol=1e-14)
    zeta = np.exp(2j * np.pi / 3)
    npt.assert_allclose(il.ad_matrix(zeta * np.eye(3), basis), np.eye(8), atol=1e-13)
    U = il.haar_unitary(3, 1, special=True)
    npt.assert_allclose(il.ad_matrix(zeta * U, basis), il.ad_matrix(U, basis), atol=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ad_is_special_orthogonal(n):
    d = n * n - 1
    for seed in range(5):
        M = il.ad_matrix(il.haar_unitary(n, [n, seed], special=True))
        assert np.max(np.abs(M.T @ M - np.eye(d))) < 1e-11
        assert abs(np.linalg.det(M) - 1) < 1e-9


def test_ad_homomorphism():
    basis = il.gell_mann_basis(4)
    for seed in range(5):
        U = il.haar_unitary(4, [1, seed], special=True)
        V = il.haar_unitary(4, [2, seed], special=True)
        lhs = il.ad_matrix(U @ V, basis)
        rhs = il.compose(il.ad_matrix(U, basis), il.ad_matrix(V, basis))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cartan_involution_and_trace():
    basis = il.gell_mann_basis(3)
    S = il.cartan_matrix(basis)
    npt.assert_allclose(S @ S, np.eye(8), atol=1e-14)
    # +1 eigenspace iK has dimension 3, -1 eigenspace has dimension 5
    assert np.trace(S) == pytest.approx(-2.0, abs=1e-12)
    D = np.diag([1.0, -1.0, 0.0]).astype(complex)
    npt.assert_allclose(il.apply_map(S, D, basis), -D, atol=1e-14)


def test_cartan_conjugate_of_ad_is_ad_of_conjugate():
    basis = il.gell_mann_basis(4)
    S = il.cartan_matrix(basis)
    for seed in range(3):
        U = il.haar_unitary(4, [3, seed], special=True)
        lhs = S @ il.ad_matrix(U, basis) @ S
        rhs = il.ad_matrix(np.conj(U), basis)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_sigma_normalizes_identity(n):
    assert il.verify_sigma_normalizes(np.eye(n, dtype=complex), 5, 0) < 1e-14
    for seed in range(10):
        U = il.haar_unitary(n, [4, seed], special=True)
        assert il.verify_sigma_normalizes(U, 5, seed) < 1e-11


def test_so_adjoint_identity_and_sign():
    basis = il.skew_basis(4)
    npt.assert_allclose(il.so_adjoint_matrix(np.eye(4), basis), np.eye(6), atol=1e-14)
    npt.assert_allclose(il.so_adjoint_matrix(-np.eye(4), basis), np.eye(6), atol=1e-14)


def test_so_adjoint_orthogonal():
    for seed in range(5):
        Q = il.haar_orthogonal(5, seed, special=True)
        M = il.so_adjoint_matrix(Q)
        assert np.max(np.abs(M.T @ M - np.eye(10))) < 1e-11


def test_so_adjoint_rejects_reflections_without_flag():
    R = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(NotSpecialOrthogonal):
        il.so_adjoint_matrix(R)
    M = il.so_adjoint_matrix(R, allow_reflection=True)
    assert np.max(np.abs(M.T @ M - np.eye(6))) < 1e-12


def test_psi_matrix_swaps_third_and_fourth_coordinate():
    P = il.psi_matrix()
    npt.assert_allclose(P @ np.arange(1.0, 7.0), [1, 2, 4, 3, 5, 6])
    npt.assert_allclose(P @ P, np.eye(6))
    assert np.linalg.det(P) == pytest.approx(-1.0)


def test_tau_matrix_is_negation():
    for n in (3, 4, 5):
        basis = il.skew_basis(n)
        T = il.tau_matrix(basis)
        npt.assert_array_equal(T, -np.eye(basis.d))
        npt.assert_allclose(T @ T, np.eye(basis.d))
        A = il.random_element(il.SKEW_REAL, n, n)
        back = il.apply_map(T, A, basis)
        npt.assert_allclose(
            np.linalg.svd(back, compute_uv=False),
            np.linalg.svd(A, compute_uv=False),
            atol=1e-12,
        )
        M = il.so_adjoint_matrix(il.haar_orthogonal(n, n, special=True), basis)
        npt.assert_allclose(T @ M, M @ T, atol=1e-14)


def test_compose_invert_scale():
    M = il.ad_matrix(il.haar_unitary(3, 5, special=True))
    npt.assert_allclose(il.compose(M, il.invert(M)), np.eye(8), atol=1e-10)
    npt.assert_allclose(il.scale(il.scale(M, -1.0), -1.0), M)
    A = il.ad_matrix(il.haar_unitary(3, 6, special=True))
    B = il.cartan_matrix(il.gell_mann_basis(3))
    lhs = il.compose(il.compose(M, A), B)
    rhs = il.compose(M, il.compose(A, B))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_invert_singular_raises():
    with pytest.raises(SingularMap):
        il.invert(np.zeros((4, 4)))
