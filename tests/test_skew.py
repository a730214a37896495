import numpy as np
import numpy.testing as npt
import pytest

import isomlab as il
from isomlab.errors import InvalidDimension


def entries_to_skew(vals):
    """Build a 4 x 4 skew matrix from (a12, a13, a14, a23, a24, a34)."""
    K = np.zeros((4, 4))
    for v, (j, k) in zip(vals, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]):
        K[j, k], K[k, j] = v, -v
    return K


def test_youla_single_block():
    A = np.array([[0.0, 2.5], [-2.5, 0.0]])
    form = il.youla_decompose(A)
    assert form.r == 1
    npt.assert_allclose(form.a, [2.5])
    assert form.residual < 1e-12
    assert il.orthogonal_sign_distance(form.orthogonal, np.eye(2)) < 1e-12


def test_youla_zero_matrix():
    form = il.youla_decompose(np.zeros((4, 4)))
    assert form.r == 0
    assert form.a.size == 0
    npt.assert_allclose(form.reconstruct(), np.zeros((4, 4)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_youla_reconstruction_random(n):
    for seed in range(25):
        A = il.random_element(il.SKEW_REAL, n, [n, seed])
        form = il.youla_decompose(A)
        assert form.residual < 1e-10 * (1 + np.max(np.abs(A)))
        Q = form.orthogonal
        assert np.max(np.abs(Q @ Q.T - np.eye(n))) < 1e-11
        assert np.all(np.diff(form.a) <= 1e-12)
        assert np.all(form.a > 0)


def test_youla_odd_n_has_zero_mode():
    for seed in range(10):
        A = il.random_element(il.SKEW_REAL, 5, [77, seed])
        form = il.youla_decompose(A)
        assert form.r == 2  # exactly one kernel direction at odd n
        assert np.linalg.det(form.orthogonal) == pytest.approx(1.0, abs=1e-9)


def test_youla_block_orientation_and_order():
    A = entries_to_skew([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    A[0, 1], A[1, 0] = 3.0, -3.0  # blocks (3, 1) already in canonical position
    form = il.youla_decompose(A)
    npt.assert_allclose(form.a, [3.0, 1.0], atol=1e-12)
    S = form.sigma()
    assert S[0, 1] == pytest.approx(3.0)
    assert S[2, 3] == pytest.approx(1.0)


def test_youla_handles_tied_blocks():
    Q = il.haar_orthogonal(4, 9, special=True)
    S = np.zeros((4, 4))
    S[0, 1], S[1, 0] = 2.0, -2.0
    S[2, 3], S[3, 2] = 2.0, -2.0
    A = Q @ S @ Q.T
    form = il.youla_decompose(A)
    npt.assert_allclose(form.a, [2.0, 2.0], atol=1e-10)
    assert form.residual < 1e-10


def test_youla_congruence_invariance_of_a():
    A = il.random_element(il.SKEW_REAL, 5, 4)
    Q = il.haar_orthogonal(5, 5, special=True)
    a1 = il.youla_decompose(A).a
    a2 = il.youla_decompose(Q @ A @ Q.T).a
    npt.assert_allclose(a1, a2, atol=1e-9)


def test_skew_singular_values_examples():
    npt.assert_allclose(
        il.skew_singular_values(np.array([[0.0, 3.0], [-3.0, 0.0]])), [3.0, 3.0]
    )
    npt.assert_allclose(il.skew_singular_values(np.zeros((3, 3))), np.zeros(3))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_skew_singular_values_match_svd(n):
    for seed in range(10):
        A = il.random_element(il.SKEW_REAL, n, [6, n, seed])
        ref = np.linalg.svd(A, compute_uv=False)
        npt.assert_allclose(il.skew_singular_values(A), ref, atol=1e-10)


def test_psi_apply_coordinates():
    A = entries_to_skew([1, 2, 3, 4, 5, 6])
    B = il.psi_apply(A)
    assert B[0, 3] == 4 and B[1, 2] == 3
    npt.assert_allclose(B, -B.T)
    npt.assert_allclose(il.psi_apply(B), A)


def test_psi_apply_wrong_dimension():
    with pytest.raises(InvalidDimension):
        il.psi_apply(np.zeros((3, 3)))


@pytest.mark.parametrize(
    "A",
    [
        np.eye(4),
        il.random_element(il.SKEW_REAL, 4, 19, count=1),
        il.random_element(il.SKEW_REAL, 4, 19, count=2),
    ],
    ids=["not_skew", "stack_of_1", "stack_of_2"],
)
def test_youla_and_char_poly_reject_non_skew_input(A):
    with pytest.raises(InvalidDimension):
        il.youla_decompose(A)
    with pytest.raises(InvalidDimension):
        il.char_poly_skew(A)


def test_psi_preserves_char_poly_and_norm():
    for seed in range(200):
        A = il.random_element(il.SKEW_REAL, 4, [7, seed])
        B = il.psi_apply(A)
        npt.assert_allclose(il.char_poly_skew(A), il.char_poly_skew(B), atol=1e-10)
        assert abs(np.linalg.norm(A) - np.linalg.norm(B)) < 1e-12
        assert il.same_congruence_orbit(A, B)


def test_char_poly_zero_matrix():
    npt.assert_allclose(il.char_poly_skew(np.zeros((5, 5))), [1, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_char_poly_against_eigenvalue_oracle(n):
    for seed in range(5):
        A = il.random_element(il.SKEW_REAL, n, [8, n, seed])
        got = il.char_poly_skew(A)
        ref = np.poly(np.linalg.eigvals(A))
        npt.assert_allclose(got, np.real(ref), atol=1e-10 * (1 + np.max(np.abs(ref))))


def test_pfaffian_example_and_identity():
    A = entries_to_skew([1, 2, 3, 4, 5, 6])
    assert il.pfaffian4(A) == pytest.approx(8.0)  # 1*6 - 2*5 + 3*4
    coeffs = il.char_poly_skew(A)
    p = float(np.sum(np.triu(A, 1) ** 2))
    npt.assert_allclose(coeffs, [1.0, 0.0, p, 0.0, il.pfaffian4(A) ** 2], atol=1e-10)
    # the pfaffian formula is literally symmetric under a14 <-> a23
    assert il.pfaffian4(il.psi_apply(A)) == pytest.approx(il.pfaffian4(A))


def test_same_congruence_orbit():
    A = il.random_element(il.SKEW_REAL, 5, 10)
    Q = il.haar_orthogonal(5, 11)  # may be a reflection; orbit is O(n)
    assert il.same_congruence_orbit(A, Q @ A @ Q.T)
    assert not il.same_congruence_orbit(A, 2 * A)
