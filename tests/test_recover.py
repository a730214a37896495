import numpy as np
import numpy.testing as npt
import pytest

import isomlab as il
from isomlab.errors import (
    InvalidDimension,
    NotAdjointImage,
    NotInClassifiedForm,
    NotIsometry,
)

SPEC3 = il.schatten(3)
CSPEC21 = il.c_spectral((2, 1))


def canonical_map(n, eta, sigma_flag, U):
    basis = il.gell_mann_basis(n)
    M = eta * il.ad_matrix(U, basis)
    if sigma_flag:
        M = M @ il.cartan_matrix(basis)
    return M


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_classifier_separates_all_four_branches(n):
    # at n = 2 the involution is a conjugation, so only the eta branches exist
    flags = (False, True) if n >= 3 else (False,)
    for trial in range(50):
        U = il.haar_unitary(n, [n, trial], special=True)
        for eta in (1, -1):
            for flag in flags:
                M = canonical_map(n, eta, flag, U)
                eta_h, flag_h, U_h = il.classify_eta_sigma(M, n)
                assert (eta_h, flag_h) == (eta, flag)
                assert il.unitary_phase_distance(U, U_h) <= 1e-9


def test_classifier_rejects_generic_orthogonal():
    rejected = 0
    for t in range(100):
        M = il.haar_orthogonal(8, [200, t], special=True)
        try:
            il.classify_eta_sigma(M, 3)
        except NotInClassifiedForm:
            rejected += 1
    assert rejected == 100


def test_recover_unitary_identity():
    U, res = il.recover_unitary_from_ad(np.eye(8), 3)
    assert il.unitary_phase_distance(U, np.eye(3)) < 1e-12
    assert res < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_recover_unitary_round_trip(n):
    for trial in range(10):
        U = il.haar_unitary(n, [3 * n, trial], special=True)
        Uh, res = il.recover_unitary_from_ad(il.ad_matrix(U), n)
        assert il.unitary_phase_distance(U, Uh) < 1e-9
        assert res < 1e-9


def test_recover_unitary_phase_covariance():
    n = 4
    U = il.haar_unitary(n, 17, special=True)
    zeta = np.exp(2j * np.pi / n)
    U1, _ = il.recover_unitary_from_ad(il.ad_matrix(U), n)
    U2, _ = il.recover_unitary_from_ad(il.ad_matrix(zeta * U), n)
    assert il.unitary_phase_distance(U1, U2) < 1e-9


def test_recover_unitary_rejects_cartan():
    with pytest.raises(NotAdjointImage):
        il.recover_unitary_from_ad(il.cartan_matrix(il.gell_mann_basis(3)), 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_recover_unitary_rejects_negated_cartan_branch(n):
    """The reconstruction residual rejects the -sigma branch, -sigma itself
    included, and the branch search relies on that rejection."""
    basis = il.gell_mann_basis(n)
    S = il.cartan_matrix(basis)
    U = il.haar_unitary(n, [49, n], special=True)
    for M in (-S, -il.ad_matrix(U, basis) @ S):
        with pytest.raises(NotAdjointImage) as err:
            il.recover_unitary_from_ad(M, n)
        assert err.value.residual > 0.1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_recover_unitary_rejects_every_wrong_branch(n):
    """Each of -Ad(U), Ad(U) sigma and -Ad(U) sigma is refused with a
    residual far above RESIDUAL_TOL, so no wrong branch of the search is
    ever a near miss."""
    basis = il.gell_mann_basis(n)
    S = il.cartan_matrix(basis)
    for trial in range(10):
        A = il.ad_matrix(il.haar_unitary(n, [50, n, trial], special=True), basis)
        for M in (-A, A @ S, -A @ S):
            with pytest.raises(NotAdjointImage) as err:
                il.recover_unitary_from_ad(M, n)
            assert err.value.residual > 0.1


@pytest.mark.parametrize(
    "recover, M, n",
    [
        (il.recover_unitary_from_ad, np.eye(5), 3),
        (il.recover_unitary_from_ad, np.eye(8)[:, :7], 3),
        (il.recover_unitary_from_ad, np.full((8, 8), np.nan), 3),
        (il.recover_unitary_from_ad, np.eye(8) + 1j * np.eye(8), 3),
        (il.recover_orthogonal_from_adso, np.eye(6)[:, :3], 4),
        (il.recover_orthogonal_from_adso, np.eye(3), 4),
        (il.recover_orthogonal_from_adso, np.full((6, 6), np.nan), 4),
        (il.recover_orthogonal_from_adso, np.r_[np.eye(6)[:5], np.full((1, 6), np.inf)], 4),
    ],
    ids=[
        "ad-wrong-n", "ad-not-square", "ad-nan", "ad-complex",
        "adso-not-square", "adso-wrong-n", "adso-nan", "adso-inf",
    ],
)
def test_recover_rejects_malformed_maps(recover, M, n):
    with pytest.raises(InvalidDimension):
        recover(M, n)


def test_decompose_translation_only():
    n = 3
    basis = il.gell_mann_basis(n)
    B = il.random_element(il.HERMITIAN_TRACELESS, n, 5)
    dec = il.decompose_isometry(np.eye(8), SPEC3, offset=il.vectorize(B, basis))
    assert dec.eta == 1 and not dec.sigma_flag
    assert il.unitary_phase_distance(dec.unitary, np.eye(n)) < 1e-9
    npt.assert_allclose(dec.translation, B, atol=1e-12)
    assert dec.residual < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_decompose_full_round_trip(n):
    basis = il.gell_mann_basis(n)
    for trial in range(10):
        rng = np.random.default_rng([n, trial])
        eta = 1 if rng.integers(2) else -1
        flag = bool(rng.integers(2))
        U = il.haar_unitary(n, [4 * n, trial], special=True)
        B = il.random_element(il.HERMITIAN_TRACELESS, n, [5 * n, trial])
        M = canonical_map(n, eta, flag, U)
        dec = il.decompose_isometry(M, SPEC3, offset=il.vectorize(B, basis), seed=trial)
        assert (dec.eta, dec.sigma_flag) == (eta, flag)
        assert dec.residual < 1e-8
        assert il.unitary_phase_distance(U, dec.unitary) < 1e-9
        npt.assert_allclose(dec.translation, B, atol=1e-12)


def test_decompose_n2_folds_sigma_into_conjugation():
    basis = il.gell_mann_basis(2)
    S = il.cartan_matrix(basis)
    for trial in range(5):
        U = il.haar_unitary(2, [20, trial], special=True)
        for eta in (1, -1):
            M = eta * il.ad_matrix(U, basis) @ S  # sigma branch on purpose
            dec = il.decompose_isometry(M, SPEC3, seed=trial)
            assert dec.eta == eta and not dec.sigma_flag
            assert dec.residual < 1e-9


def test_decompose_rejects_non_isometry():
    with pytest.raises(NotIsometry):
        il.decompose_isometry(2.0 * np.eye(8), SPEC3)
    with pytest.raises(NotIsometry):
        il.decompose_skew_isometry(2.0 * np.eye(6), CSPEC21)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_precheck_rejects_perturbed_isometries(n):
    rng = np.random.default_rng([46, n])
    M = il.ad_matrix(il.haar_unitary(n, [46, n], special=True))
    with pytest.raises(NotIsometry):
        il.decompose_isometry(M + 1e-6 * rng.standard_normal(M.shape), SPEC3)
    spec = il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2)))
    Q = il.so_adjoint_matrix(il.haar_orthogonal(n, [47, n], special=True))
    with pytest.raises(NotIsometry):
        il.decompose_skew_isometry(Q + 1e-6 * rng.standard_normal(Q.shape), spec)


def test_precheck_makes_two_stacked_norm_evaluations(monkeypatch):
    import isomlab.recover as recover

    shapes = []

    def counted(A, spec):
        shapes.append(np.shape(A))
        return il.norm_value(A, spec)

    monkeypatch.setattr(recover, "norm_value", counted)
    U = il.haar_unitary(4, 48, special=True)
    il.decompose_isometry(il.ad_matrix(U), SPEC3, seed=1)
    assert shapes == [(50, 4, 4), (50, 4, 4)]
    shapes.clear()
    il.decompose_skew_isometry(il.psi_matrix(), CSPEC21, seed=1)
    assert shapes == [(50, 4, 4), (50, 4, 4)]


@pytest.mark.parametrize(
    "offset", [np.zeros(7), np.full(8, np.nan), np.r_[np.zeros(7), np.inf], np.zeros((8, 1))]
)
def test_decompose_rejects_malformed_offsets(offset):
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(np.eye(8), SPEC3, offset=offset)


def test_decompose_rejects_non_square_or_non_finite_maps():
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(np.eye(8)[:, :7], SPEC3)
    with pytest.raises(InvalidDimension):
        il.decompose_skew_isometry(np.eye(6)[:5], CSPEC21)
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(np.full((8, 8), np.nan), SPEC3)
    with pytest.raises(InvalidDimension):
        il.decompose_skew_isometry(np.r_[np.eye(6)[:5], np.full((1, 6), np.inf)], CSPEC21)
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(np.eye(8) + 1j * np.eye(8), SPEC3)


def test_decompose_frobenius_has_no_canonical_form():
    rejected = 0
    for t in range(20):
        M = il.haar_orthogonal(8, [300, t], special=True)
        try:
            il.decompose_isometry(M, il.frobenius(), seed=t)
        except NotInClassifiedForm:
            rejected += 1
    assert rejected == 20


def test_recover_orthogonal_identity():
    Q, res = il.recover_orthogonal_from_adso(np.eye(6), 4)
    assert il.orthogonal_sign_distance(Q, np.eye(4)) < 1e-12
    assert res < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_recover_orthogonal_round_trip(n):
    for trial in range(10):
        Q = il.haar_orthogonal(n, [6 * n, trial], special=True)
        Qh, res = il.recover_orthogonal_from_adso(il.so_adjoint_matrix(Q), n)
        assert il.orthogonal_sign_distance(Q, Qh) < 1e-9
        assert res < 1e-9
        assert np.linalg.det(Qh) == pytest.approx(1.0, abs=1e-9)


def test_recover_orthogonal_rejects_psi():
    for M in (il.psi_matrix(), -il.psi_matrix()):
        with pytest.raises(NotAdjointImage) as err:
            il.recover_orthogonal_from_adso(M, 4)
        assert err.value.residual > 0.1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_recover_orthogonal_rejects_wrong_branches(n):
    """-Q.Q^T is refused at every n, and at n = 4 so are +-Q psi(.) Q^T,
    each with a residual far above RESIDUAL_TOL."""
    P = il.psi_matrix()
    for trial in range(10):
        A = il.so_adjoint_matrix(il.haar_orthogonal(n, [51, n, trial], special=True))
        for M in (-A, A @ P, -A @ P) if n == 4 else (-A,):
            with pytest.raises(NotAdjointImage) as err:
                il.recover_orthogonal_from_adso(M, n)
            assert err.value.residual > 0.1


@pytest.mark.parametrize("n", [4, 6])
def test_even_n_reflection_congruence_is_refused(n):
    """At even n the congruence by a reflection is reproduced exactly, but
    by no rotation, so it is refused with its (tiny) residual."""
    for trial in range(5):
        R = il.haar_orthogonal(n, [52, n, trial])
        if np.linalg.det(R) > 0:
            R[:, 0] = -R[:, 0]
        M = il.so_adjoint_matrix(R, allow_reflection=True)
        with pytest.raises(NotAdjointImage, match="reflection") as err:
            il.recover_orthogonal_from_adso(M, n)
        assert err.value.residual < 1e-9


def test_decompose_skew_tau():
    dec = il.decompose_skew_isometry(il.tau_matrix(il.skew_basis(4)), CSPEC21)
    assert dec.sign == -1 and not dec.psi_flag
    assert il.orthogonal_sign_distance(dec.orthogonal, np.eye(4)) < 1e-12


def test_decompose_skew_psi():
    dec = il.decompose_skew_isometry(il.psi_matrix(), CSPEC21)
    assert dec.sign == 1 and dec.psi_flag
    assert il.orthogonal_sign_distance(dec.orthogonal, np.eye(4)) < 1e-12


def test_decompose_skew_round_trip_n4():
    P = il.psi_matrix()
    for trial in range(20):
        rng = np.random.default_rng([40, trial])
        sign = 1 if rng.integers(2) else -1
        flag = bool(rng.integers(2))
        Q = il.haar_orthogonal(4, [41, trial], special=True)
        M = sign * il.so_adjoint_matrix(Q)
        if flag:
            M = M @ P
        dec = il.decompose_skew_isometry(M, CSPEC21, seed=trial)
        assert (dec.sign, dec.psi_flag) == (sign, flag)
        assert dec.residual < 1e-8
        assert il.orthogonal_sign_distance(Q, dec.orthogonal) < 1e-9


@pytest.mark.parametrize("n", [3, 5])
def test_decompose_skew_round_trip_no_psi(n):
    weights = tuple(float(n // 2 - i) for i in range(n // 2))
    spec = il.c_spectral(weights)
    for trial in range(10):
        sign = 1 if trial % 2 else -1
        Q = il.haar_orthogonal(n, [42, n, trial], special=True)
        dec = il.decompose_skew_isometry(sign * il.so_adjoint_matrix(Q), spec, seed=trial)
        assert (dec.sign, dec.psi_flag) == (sign, False)
        assert il.orthogonal_sign_distance(Q, dec.orthogonal) < 1e-9


def test_decompose_skew_rejects_euclidean_isometries():
    rejected = 0
    for t in range(10):
        M = il.haar_orthogonal(6, [43, t], special=True)
        try:
            il.decompose_skew_isometry(M, il.frobenius(il.SKEW_REAL), seed=t)
        except NotInClassifiedForm:
            rejected += 1
    assert rejected == 10


def test_psi_conjugation_stays_in_adjoint_image():
    """The entry swap normalizes the rotation-congruence group: conjugating
    any congruence by it lands back in the congruence image."""
    P = il.psi_matrix()
    for trial in range(20):
        Q = il.haar_orthogonal(4, [44, trial], special=True)
        M = P @ il.so_adjoint_matrix(Q) @ P
        Qh, res = il.recover_orthogonal_from_adso(M, 4)
        assert res < 1e-8


def test_odd_n_reflection_congruence_folds_into_rotation():
    R = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
    M = il.so_adjoint_matrix(R, allow_reflection=True)
    dec = il.decompose_skew_isometry(M, il.c_spectral((2, 1)))
    assert dec.sign == 1 and not dec.psi_flag
    assert il.orthogonal_sign_distance(dec.orthogonal, -R) < 1e-10


def test_sigma_conjugation_of_ad_recovers():
    """The involution normalizes the conjugation group: recovery succeeds on
    sigma Ad(U) sigma and returns the conjugate unitary."""
    basis = il.gell_mann_basis(4)
    S = il.cartan_matrix(basis)
    for trial in range(5):
        U = il.haar_unitary(4, [45, trial], special=True)
        M = S @ il.ad_matrix(U, basis) @ S
        Uh, res = il.recover_unitary_from_ad(M, 4)
        assert res < 1e-9
        assert il.unitary_phase_distance(Uh, np.conj(U)) < 1e-9
