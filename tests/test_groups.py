import numpy as np
import numpy.testing as npt
import pytest

import isomlab as il
from isomlab.errors import InvalidDimension, NotSpecialOrthogonal


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


def test_haar_orthogonal_count_draws_a_stack():
    stack = il.haar_orthogonal(5, 9, count=6)
    assert stack.shape == (6, 5, 5)
    npt.assert_allclose(stack @ stack.transpose(0, 2, 1), np.broadcast_to(np.eye(5), (6, 5, 5)), atol=1e-12)
    npt.assert_array_equal(stack, il.haar_orthogonal(5, 9, count=6))
    special = il.haar_orthogonal(5, 9, special=True, count=6)
    npt.assert_allclose(np.linalg.det(special), np.ones(6), atol=1e-12)
    assert il.haar_orthogonal(5, 9).shape == (5, 5)


@pytest.mark.parametrize("haar", [il.haar_unitary, il.haar_orthogonal])
def test_haar_samplers_refuse_n_below_one(haar):
    with pytest.raises(InvalidDimension, match="need n >= 1, got n=0"):
        haar(0, 0)  # once an empty matrix
    assert haar(1, 0).shape == (1, 1)


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
        rhs = il.ad_matrix(U, basis) @ il.ad_matrix(V, basis)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cartan_involution_and_trace():
    basis = il.gell_mann_basis(3)
    S = il.cartan_matrix(basis)
    npt.assert_allclose(S @ S, np.eye(8), atol=1e-14)
    # +1 eigenspace iK has dimension 3, -1 eigenspace has dimension 5
    assert np.trace(S) == pytest.approx(-2.0, abs=1e-12)
    D = np.diag([1.0, -1.0, 0.0]).astype(complex)
    npt.assert_allclose(il.devectorize(il.vectorize(D, basis) @ S.T, basis), -D, atol=1e-14)


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
    M = il.ad_matrix(R, il.skew_basis(4))
    assert np.max(np.abs(M.T @ M - np.eye(6))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_adjoint_maps_of_a_stack_are_its_members_maps(n):
    """ad_matrix and so_adjoint_matrix give each member of a stack, bit for
    bit, the map it gets alone."""
    U = il.haar_unitary(n, [64, n], special=True, count=5)
    Q = il.haar_orthogonal(n, [65, n], special=True, count=5)
    hermitian, skew = il.gell_mann_basis(n), il.skew_basis(n)
    ads, sos = il.ad_matrix(U, hermitian), il.so_adjoint_matrix(Q, skew)
    assert ads.shape == (5, n * n - 1, n * n - 1) and sos.shape == (5, skew.d, skew.d)
    for t in range(5):
        assert ads[t].tobytes() == il.ad_matrix(U[t], hermitian).tobytes()
        assert sos[t].tobytes() == il.so_adjoint_matrix(Q[t], skew).tobytes()


def test_so_adjoint_of_a_stack_rejects_one_reflection():
    Q = il.haar_orthogonal(4, 66, special=True, count=3)
    Q[1, :, 0] *= -1.0
    with pytest.raises(NotSpecialOrthogonal):
        il.so_adjoint_matrix(Q)
    M = il.ad_matrix(Q, il.skew_basis(4))
    assert M[1].tobytes() == il.ad_matrix(Q[1], il.skew_basis(4)).tobytes()


_MALFORMED = {
    "rectangular": np.zeros((2, 3)),
    "vector": np.zeros(3),
    "four_axes": np.zeros((2, 2, 2, 2)),
    "nan": np.full((2, 2), np.nan),
    "inf_in_a_stack": np.stack([np.eye(3), np.full((3, 3), np.inf)]),
}


@pytest.mark.parametrize("U", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_conjugation_map_refuses_a_malformed_matrix(U):
    """The one kernel refuses anything but a finite square matrix or stack,
    and so_adjoint_matrix refuses it before its determinant."""
    with pytest.raises(InvalidDimension, match="need a finite"):
        il.ad_matrix(U)
    with pytest.raises(InvalidDimension, match="need a finite"):
        il.so_adjoint_matrix(U)


@pytest.mark.parametrize(
    "U",
    [*_MALFORMED.values(), np.zeros((3, 3)), np.stack([np.eye(3), np.zeros((3, 3))])],
    ids=[*_MALFORMED, "singular", "singular_in_a_stack"],
)
def test_sigma_normalizes_refuses_a_malformed_or_singular_matrix(U):
    with pytest.raises(InvalidDimension):
        il.verify_sigma_normalizes(U, 2, 0)


def test_cartan_matrix_is_built_once_per_basis_and_read_only():
    basis = il.gell_mann_basis(4)
    S = il.cartan_matrix(basis)
    assert il.cartan_matrix(basis) is S and not S.flags.writeable


def test_psi_matrix_swaps_third_and_fourth_coordinate():
    P = il.psi_matrix()
    npt.assert_allclose(P @ np.arange(1.0, 7.0), [1, 2, 4, 3, 5, 6])
    npt.assert_allclose(P @ P, np.eye(6))
    assert np.linalg.det(P) == pytest.approx(-1.0)


def test_tau_matrix_is_negation():
    """The transpose map of the skew space is -I in coordinates (A.T = -A):
    an involution that keeps singular values and commutes with every
    congruence."""
    for n in (3, 4, 5):
        basis = il.skew_basis(n)
        A = il.random_element(il.SKEW_REAL, n, n)
        T = -np.eye(basis.d)
        npt.assert_allclose(il.vectorize(A.T, basis), T @ il.vectorize(A, basis), atol=1e-15)
        npt.assert_allclose(T @ T, np.eye(basis.d))
        back = il.devectorize(il.vectorize(A, basis) @ T.T, basis)
        npt.assert_allclose(
            np.linalg.svd(back, compute_uv=False),
            np.linalg.svd(A, compute_uv=False),
            atol=1e-12,
        )
        M = il.so_adjoint_matrix(il.haar_orthogonal(n, n, special=True), basis)
        npt.assert_allclose(T @ M, M @ T, atol=1e-14)


def _qr_haar(n, seed, complex_, special, count):
    """The Householder oracle: np.linalg.qr of the same Ginibre draw, with
    R's diagonal phases absorbed into Q (Mezzadri's correction)."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if count is None else (count, n, n)
    if complex_:
        G = rng.standard_normal(shape[:-2] + (2,) + shape[-2:])
        Z = (G[..., 0, :, :] + 1j * G[..., 1, :, :]) / np.sqrt(2)
    else:
        Z = rng.standard_normal(shape)
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (diag / np.abs(diag))[..., None, :]
    if special and complex_:
        Q = Q * (np.linalg.det(Q) ** (-1.0 / n))[..., None, None]
    elif special:
        Q[..., -1] *= np.sign(np.linalg.det(Q))[..., None]
    return Q


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("haar", [il.haar_unitary, il.haar_orthogonal])
@pytest.mark.parametrize("n", range(1, 9))
def test_haar_draw_is_the_positive_diagonal_qr_factor(n, haar, special):
    """Gram-Schmidt gives the Q of the Householder QR with Mezzadri's phase
    correction, from the same generator stream, within 1e-12; it is
    orthonormal within 1e-14 n and has det = 1 under ``special``."""
    complex_ = haar is il.haar_unitary
    for seed, count in ((n, None), ([n, 1], 7)):
        Q = haar(n, np.random.default_rng(seed), special=special, count=count)
        npt.assert_allclose(Q, _qr_haar(n, seed, complex_, special, count), rtol=0, atol=1e-12)
        gram = Q.conj().swapaxes(-1, -2) @ Q
        assert np.max(np.abs(gram - np.eye(n))) < 1e-14 * n
        if special:
            assert np.max(np.abs(np.linalg.det(Q) - 1.0)) < 1e-14 * n
    assert haar(n, 0, special=special, count=0).shape == (0, n, n)


def _einsum_ad(U, basis):
    conjugated = U[..., None, :, :] @ basis.mats @ U.conj().swapaxes(-1, -2)[..., None, :, :]
    return np.einsum("ajk,...ikj->...ai", basis.mats, conjugated).real


def _einsum_so(Q, basis):
    conjugated = Q[..., None, :, :] @ basis.mats @ Q.swapaxes(-1, -2)[..., None, :, :]
    return np.einsum("ajk,...ijk->...ai", basis.mats, conjugated)


@pytest.mark.parametrize("n", range(2, 9))
def test_adjoint_maps_match_the_conjugated_basis_oracle(n):
    """The kron(U, conj(U)) and kron(Q, Q) products agree with conjugating
    every basis element and pairing by the trace form, within 1e-14, for
    one matrix and for a stack."""
    hermitian, skew = il.gell_mann_basis(n), il.skew_basis(n)
    for count in (None, 4):
        U = il.haar_unitary(n, [67, n], special=True, count=count)
        Q = il.haar_orthogonal(n, [68, n], special=True, count=count)
        npt.assert_allclose(il.ad_matrix(U, hermitian), _einsum_ad(U, hermitian), rtol=0, atol=1e-14)
        npt.assert_allclose(il.so_adjoint_matrix(Q, skew), _einsum_so(Q, skew), rtol=0, atol=1e-14)
        # a reflection's congruence through the shared kernel
        R = Q.copy()
        R[..., :, 0] *= -1.0
        assert (np.linalg.det(R) < 0).all()
        npt.assert_allclose(il.ad_matrix(R, skew), _einsum_so(R, skew), rtol=0, atol=1e-14)


def test_no_module_calls_qr():
    """Every Haar draw goes through the one Gram-Schmidt path (the
    Householder oracle lives in the tests)."""
    import ast
    from pathlib import Path

    for path in Path(il.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "qr" not in names, path.name


def test_only_the_conjugation_kernel_and_the_orbit_sample_build_kron():
    """groups._kron has two callers, ad_matrix and
    c_numerical_range_sample, so no second conjugation kernel grows back."""
    import ast
    from pathlib import Path

    callers = set()
    for path in Path(il.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                calls = {
                    node.func.id for node in ast.walk(func)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                }
                if "_kron" in calls:
                    callers.add(func.name)
    assert callers == {"ad_matrix", "c_numerical_range_sample"}
