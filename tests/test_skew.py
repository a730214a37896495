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


def canonical_middle(form):
    """The documented middle factor S of a Youla form: a zero block of size
    n - 2r, then the blocks [[0, a_i], [-a_i, 0]] in the order of ``a``."""
    S = np.zeros((form.n, form.n))
    for i, ai in enumerate(form.a):
        j = form.n - 2 * form.r + 2 * i
        S[j, j + 1], S[j + 1, j] = ai, -ai
    return S


def test_youla_zero_matrix():
    form = il.youla_decompose(np.zeros((4, 4)))
    assert form.r == 0
    assert form.a.size == 0
    Q = form.orthogonal
    npt.assert_allclose(Q @ canonical_middle(form) @ Q.T, np.zeros((4, 4)))


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
    S = canonical_middle(form)
    assert S[0, 1] == pytest.approx(3.0)
    assert S[2, 3] == pytest.approx(1.0)
    Q = form.orthogonal
    npt.assert_allclose(Q @ S @ Q.T, A, atol=1e-12)


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
        il.youla_decompose(np.array([[0.0, 3.0], [-3.0, 0.0]])).singular_values, [3.0, 3.0]
    )
    npt.assert_allclose(il.youla_decompose(np.zeros((3, 3))).singular_values, np.zeros(3))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_skew_singular_values_match_svd(n):
    for seed in range(10):
        A = il.random_element(il.SKEW_REAL, n, [6, n, seed])
        ref = np.linalg.svd(A, compute_uv=False)
        npt.assert_allclose(il.youla_decompose(A).singular_values, ref, atol=1e-10)


def test_psi_apply_coordinates():
    A = entries_to_skew([1, 2, 3, 4, 5, 6])
    B = il.psi_apply(A)
    assert B[0, 3] == 4 and B[1, 2] == 3
    npt.assert_allclose(B, -B.T)
    npt.assert_allclose(il.psi_apply(B), A)


def test_psi_apply_wrong_dimension():
    """psi_apply and pfaffian4 refuse a matrix that is not 4 x 4, and one
    that is not real skew-symmetric (not skew, NaN, complex)."""
    for A in (
        np.zeros((3, 3)),
        np.arange(16.0).reshape(4, 4),
        np.full((4, 4), np.nan),
        1j * entries_to_skew([1, 2, 3, 4, 5, 6]),
    ):
        with pytest.raises(InvalidDimension):
            il.psi_apply(A)
        with pytest.raises(InvalidDimension):
            il.pfaffian4(A)


@pytest.mark.parametrize(
    "A",
    [
        np.eye(4),
        np.stack([il.random_element(il.SKEW_REAL, 4, 19), np.eye(4)]),
    ],
    ids=["not_skew", "stack_with_one_non_skew"],
)
def test_youla_and_char_poly_reject_non_skew_input(A):
    """All four skew functions share one input check and refuse the input."""
    for f in (il.youla_decompose, il.char_poly_skew, il.psi_apply, il.pfaffian4):
        with pytest.raises(InvalidDimension):
            f(A)


def _same_form(a, b):
    """Whether two block forms agree bit for bit, field by field."""
    return (
        (a.n, a.r) == (b.n, b.r)
        and a.orthogonal.tobytes() == b.orthogonal.tobytes()
        and a.a.tobytes() == b.a.tobytes()
        and type(a.residual) is type(b.residual) is float
        and a.residual == b.residual
    )


@pytest.mark.parametrize("count", [1, 2, 7], ids=["stack_of_1", "stack_of_2", "stack_of_7"])
def test_skew_functions_take_a_stack_member_by_member(count):
    """youla_decompose, char_poly_skew, psi_apply and pfaffian4 give each
    member of a stack, bit for bit, what it gets alone."""
    A = il.random_element(il.SKEW_REAL, 4, 19, count=count)
    forms = il.youla_decompose(A)
    polys, swapped, pf = il.char_poly_skew(A), il.psi_apply(A), il.pfaffian4(A)
    assert isinstance(forms, tuple) and len(forms) == count
    assert polys.shape == (count, 5) and swapped.shape == A.shape and pf.shape == (count,)
    for t, a in enumerate(A):
        assert _same_form(forms[t], il.youla_decompose(a))
        assert polys[t].tobytes() == il.char_poly_skew(a).tobytes()
        assert swapped[t].tobytes() == il.psi_apply(a).tobytes()
        assert pf[t] == il.pfaffian4(a)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_youla_stack_of_mixed_ranks_is_its_members_alone(n):
    """Members with different numbers of blocks (the zero matrix, one block,
    full rank) share a stack and each gets its own form."""
    rng = np.random.default_rng([62, n])
    one_block = np.zeros((n, n))
    one_block[0, 1], one_block[1, 0] = 1.5, -1.5
    Q = il.haar_orthogonal(n, rng, special=True)
    A = np.stack([
        il.random_element(il.SKEW_REAL, n, rng),
        np.zeros((n, n)),
        Q @ one_block @ Q.T,
        il.random_element(il.SKEW_REAL, n, rng),
    ])
    forms = il.youla_decompose(A)
    assert [form.r for form in forms] == [n // 2, 0, 1, n // 2]
    for a, form in zip(A, forms):
        assert _same_form(form, il.youla_decompose(a))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_youla_stack_of_tied_blocks_is_orthonormal(n):
    """Tied block parameters need no re-orthogonalization: conj(v) lies in
    the -a eigenspace, so the Re/Im pairs come out orthonormal."""
    count = 40
    Q = il.haar_orthogonal(n, [63, n], special=True, count=count)
    S = np.zeros((n, n))
    for j in range(n % 2, n, 2):
        S[j, j + 1], S[j + 1, j] = 2.0, -2.0
    forms = il.youla_decompose(Q @ S @ Q.swapaxes(1, 2))
    for form in forms:
        npt.assert_allclose(form.a, np.full(n // 2, 2.0), atol=1e-12)
        C = form.orthogonal
        assert np.max(np.abs(C.T @ C - np.eye(n))) <= 1e-13
        assert form.residual <= 1e-10


def test_psi_preserves_char_poly_and_norm():
    for seed in range(200):
        A = il.random_element(il.SKEW_REAL, 4, [7, seed])
        B = il.psi_apply(A)
        npt.assert_allclose(il.char_poly_skew(A), il.char_poly_skew(B), atol=1e-10)
        assert abs(np.linalg.norm(A) - np.linalg.norm(B)) < 1e-12
        # one orthogonal congruence orbit: the same singular values
        sa, sb = (np.linalg.svd(X, compute_uv=False) for X in (A, B))
        assert np.max(np.abs(sa - sb)) <= 1e-8 * sa[0]


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
