import copy
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import isomlab as il
from isomlab.errors import (
    InvalidDimension,
    InvalidSeed,
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
                eta_h, flag_h, U_h = il.classify_eta_sigma(M)
                assert (eta_h, flag_h) == (eta, flag)
                assert il.unitary_phase_distance(U, U_h) <= 1e-9


def test_classifier_rejects_generic_orthogonal():
    rejected = 0
    for t in range(100):
        M = il.haar_orthogonal(8, [200, t], special=True)
        try:
            il.classify_eta_sigma(M)
        except NotInClassifiedForm:
            rejected += 1
    assert rejected == 100


def test_recover_unitary_identity():
    U, res = il.recover_unitary_from_ad(np.eye(8))
    assert il.unitary_phase_distance(U, np.eye(3)) < 1e-12
    assert res < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_recover_unitary_round_trip(n):
    for trial in range(10):
        U = il.haar_unitary(n, [3 * n, trial], special=True)
        Uh, res = il.recover_unitary_from_ad(il.ad_matrix(U))
        assert il.unitary_phase_distance(U, Uh) < 1e-9
        assert res < 1e-9


def test_recover_unitary_phase_covariance():
    n = 4
    U = il.haar_unitary(n, 17, special=True)
    zeta = np.exp(2j * np.pi / n)
    U1, _ = il.recover_unitary_from_ad(il.ad_matrix(U))
    U2, _ = il.recover_unitary_from_ad(il.ad_matrix(zeta * U))
    assert il.unitary_phase_distance(U1, U2) < 1e-9


def test_recover_unitary_rejects_cartan():
    with pytest.raises(NotAdjointImage):
        il.recover_unitary_from_ad(il.cartan_matrix(il.gell_mann_basis(3)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_recover_unitary_rejects_negated_cartan_branch(n):
    """The reconstruction residual rejects the -sigma branch, -sigma itself
    included, and the branch search relies on that rejection."""
    basis = il.gell_mann_basis(n)
    S = il.cartan_matrix(basis)
    U = il.haar_unitary(n, [49, n], special=True)
    for M in (-S, -il.ad_matrix(U, basis) @ S):
        with pytest.raises(NotAdjointImage) as err:
            il.recover_unitary_from_ad(M)
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
                il.recover_unitary_from_ad(M)
            assert err.value.residual > 0.1


@pytest.mark.parametrize(
    "recover, M",
    [
        (il.recover_unitary_from_ad, np.eye(5)),
        (il.recover_unitary_from_ad, np.eye(8)[:, :7]),
        (il.recover_unitary_from_ad, np.full((8, 8), np.nan)),
        (il.recover_unitary_from_ad, np.eye(8) + 1j * np.eye(8)),
        (il.recover_orthogonal_from_adso, np.eye(6)[:, :3]),
        (il.recover_orthogonal_from_adso, np.eye(4)),
        (il.recover_orthogonal_from_adso, np.full((6, 6), np.nan)),
        (il.recover_orthogonal_from_adso, np.r_[np.eye(6)[:5], np.full((1, 6), np.inf)]),
    ],
    ids=[
        "ad-wrong-n", "ad-not-square", "ad-nan", "ad-complex",
        "adso-not-square", "adso-wrong-n", "adso-nan", "adso-inf",
    ],
)
def test_recover_rejects_malformed_maps(recover, M):
    with pytest.raises(InvalidDimension):
        recover(M)


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


def test_distance_test_runs_only_when_the_residual_cannot_certify(monkeypatch):
    """An exact map of every branch is certified by its residual: no norm
    evaluation, and nothing drawn from a Generator passed as seed.  A map
    perturbed by 1e-9 (n d residual above ISOMETRY_TOL) and a Euclidean
    rotation (no branch) each get the distance test: two (50, n, n) norm
    evaluations."""
    import isomlab.recover as recover

    shapes = []

    def counted(A, spec):
        shapes.append(np.shape(A))
        return il.norm_value(A, spec)

    monkeypatch.setattr(recover, "norm_value", counted)
    rng = np.random.default_rng(48)
    state = rng.bit_generator.state
    P = il.psi_matrix()
    for n in (2, 3, 4):
        U = il.haar_unitary(n, [48, n], special=True)
        for eta in (1, -1):
            for flag in (False, True) if n >= 3 else (False,):
                dec = il.decompose_isometry(canonical_map(n, eta, flag, U), SPEC3, seed=rng)
                assert (dec.eta, dec.sigma_flag) == (eta, flag)
    for n in (3, 4):
        spec = il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2)))
        A = il.so_adjoint_matrix(il.haar_orthogonal(n, [48, n], special=True))
        for sign in (1, -1):
            for flag in (False, True) if n == 4 else (False,):
                dec = il.decompose_skew_isometry(sign * (A @ P if flag else A), spec, seed=rng)
                assert (dec.sign, dec.psi_flag) == (sign, flag)
    assert shapes == []
    assert rng.bit_generator.state == state

    noise = np.random.default_rng(49)
    A = il.ad_matrix(il.haar_unitary(4, 49, special=True))
    dec = il.decompose_isometry(A + 1e-9 * noise.uniform(-1, 1, A.shape), SPEC3, seed=rng)
    assert 4 * 15 * dec.residual > recover.ISOMETRY_TOL
    assert shapes == [(50, 4, 4), (50, 4, 4)]
    shapes.clear()
    A = il.so_adjoint_matrix(il.haar_orthogonal(4, 49, special=True)) @ P
    dec = il.decompose_skew_isometry(A + 1e-9 * noise.uniform(-1, 1, A.shape), CSPEC21, seed=rng)
    assert 4 * 6 * dec.residual > recover.ISOMETRY_TOL
    assert shapes == [(50, 4, 4), (50, 4, 4)]
    shapes.clear()
    with pytest.raises(NotInClassifiedForm):
        il.decompose_isometry(il.haar_orthogonal(15, 50, special=True), il.frobenius(), seed=rng)
    assert shapes == [(50, 4, 4), (50, 4, 4)]
    assert rng.bit_generator.state != state


def _parent_order(M, spec, seed, offset=None):
    """The decompositions' outcome in the order they had before the residual
    certificate: the distance test first, then the branch search through the
    public inversions.  Returns ``(sign, flag)`` or the class raised."""
    import isomlab.recover as recover

    skew = spec.space == il.SKEW_REAL
    try:
        # a Frobenius spec and seed 0 leave only the map and offset checks,
        # which came before the distance test
        M, basis, _, _ = recover._checked_input(M, il.frobenius(spec.space), spec.space, 0, offset)
        recover._check_isometry(M, spec, basis, seed)
        n = basis.n
        if skew:
            involution = il.psi_matrix() if n == 4 else None
            invert = il.recover_orthogonal_from_adso
        else:
            involution = il.cartan_matrix(il.gell_mann_basis(n)) if n >= 3 else None
            invert = il.recover_unitary_from_ad
        for flag in (False, True) if involution is not None else (False,):
            linear = M @ involution if flag else M
            for sign in (1, -1):
                try:
                    invert(linear / sign)
                    return sign, flag
                except NotAdjointImage:
                    continue
        raise NotInClassifiedForm("no branch")
    except Exception as exc:  # the class is the oracle's answer
        return type(exc)


def _decomposed(M, spec, seed, offset=None):
    try:
        if spec.space == il.SKEW_REAL:
            dec = il.decompose_skew_isometry(M, spec, seed=seed)
            return dec.sign, dec.psi_flag
        dec = il.decompose_isometry(M, spec, offset=offset, seed=seed)
        return dec.eta, dec.sigma_flag
    except Exception as exc:
        return type(exc)


def _oracle_cases():
    """Every branch at Hermitian n = 2..5 and skew n = 3..5, exact and
    perturbed, even-n reflections, Euclidean rotations, Gaussian maps and
    bad seeds and specs."""
    rng = np.random.default_rng(55)
    eps_values = (0.0, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
    for n in (2, 3, 4, 5):
        basis = il.gell_mann_basis(n)
        S = il.cartan_matrix(basis)
        A = il.ad_matrix(il.haar_unitary(n, rng, special=True), basis)
        for eps in eps_values:
            for eta in (1, -1):
                for flag in (False, True):
                    M = eta * (A @ S if flag else A)
                    yield f"herm-n{n}-{eta}-{flag}-{eps}", M + eps * rng.uniform(-1, 1, M.shape), SPEC3
    for n in (3, 4, 5):
        spec = il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2)))
        A = il.so_adjoint_matrix(il.haar_orthogonal(n, rng, special=True))
        for eps in eps_values:
            for sign in (1, -1):
                for flag in (False, True) if n == 4 else (False,):
                    M = sign * (A @ il.psi_matrix() if flag else A)
                    yield f"skew-n{n}-{sign}-{flag}-{eps}", M + eps * rng.uniform(-1, 1, M.shape), spec
    for n in (4, 6):
        spec = il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2)))
        R = il.haar_orthogonal(n, rng)
        if np.linalg.det(R) > 0:
            R[:, 0] = -R[:, 0]
        M = il.ad_matrix(R, il.skew_basis(n))
        for eps in (0.0, 1e-9, 1e-7):
            yield f"reflection-n{n}-{eps}", M + eps * rng.uniform(-1, 1, M.shape), spec
    for n in (2, 3, 4):
        d = n * n - 1
        yield f"euclidean-herm-n{n}", il.haar_orthogonal(d, rng, special=True), il.frobenius()
        yield f"gaussian-herm-n{n}", rng.standard_normal((d, d)), SPEC3
    for n in (3, 4, 5):
        d = n * (n - 1) // 2
        yield f"euclidean-skew-n{n}", il.haar_orthogonal(d, rng, special=True), il.frobenius(il.SKEW_REAL)
        yield f"gaussian-skew-n{n}", rng.standard_normal((d, d)), il.schatten(3, il.SKEW_REAL)
    yield "skew-n2-isometry", -np.eye(1), il.frobenius(il.SKEW_REAL)
    yield "skew-n2-scaled", 2.0 * np.eye(1), il.frobenius(il.SKEW_REAL)
    yield "kyfan-k-above-n", np.eye(8), il.ky_fan(4)
    yield "cspec-wrong-length", np.eye(3), CSPEC21


def test_decompositions_raise_what_the_distance_test_first_order_raises():
    """Moving the distance test behind the branch search changes no
    outcome: each input gives the same branch, or raises the same class,
    as the order with the distance test first."""
    for case, M, spec in _oracle_cases():
        for seed in (0, np.random.default_rng(56)):
            expected = _parent_order(M, spec, copy.deepcopy(seed))
            assert _decomposed(M, spec, copy.deepcopy(seed)) == expected, case
    M = canonical_map(3, 1, False, il.haar_unitary(3, 58, special=True))
    assert _decomposed(M, SPEC3, -1) == _parent_order(M, SPEC3, -1) == InvalidSeed


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
def test_a_rejected_map_keeps_no_eigen_array_alive(space):
    """NotInClassifiedForm's traceback (and any exception chained to it)
    holds no array larger than the (d, d) map in any frame, so a caller
    that keeps the exception keeps no candidates of the branch search."""
    d = 15 if space == il.HERMITIAN_TRACELESS else 6
    decompose = il.decompose_isometry if space == il.HERMITIAN_TRACELESS else il.decompose_skew_isometry
    M = il.haar_orthogonal(d, [57, d], special=True)
    with pytest.raises(NotInClassifiedForm) as err:
        decompose(M, il.frobenius(space), seed=0)
    exc = err.value
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None:
            for name, value in tb.tb_frame.f_locals.items():
                if isinstance(value, np.ndarray):
                    assert value.size <= d * d, (tb.tb_frame.f_code.co_name, name, value.shape)
            tb = tb.tb_next
        exc = exc.__context__


def _same_bits(a, b):
    """Whether two decompositions agree bit for bit, field by field."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if type(x) is not type(y):
            return False
        if isinstance(x, np.ndarray):
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_decomposed_stack_is_its_members_decomposed_alone(n):
    """Every branch in one stack, and a member perturbed by 1e-9 (whose
    residual cannot certify it, so the distance test runs for it): each
    member gets, bit for bit, what it gets alone, and the stack draws the
    same numbers from the Generator as the single calls in turn."""
    basis = il.gell_mann_basis(n)
    rng = np.random.default_rng([59, n])
    maps = [
        canonical_map(n, eta, flag, il.haar_unitary(n, rng, special=True))
        for eta in (1, -1)
        for flag in (False, True)
    ]
    maps.insert(2, maps[1] + 1e-9 * rng.uniform(-1, 1, maps[1].shape))
    M = np.stack(maps)
    B = rng.standard_normal((len(M), basis.d))
    seed = np.random.default_rng(60)
    alone_seed = copy.deepcopy(seed)
    stacked = il.decompose_isometry(M, SPEC3, offset=B, seed=seed)
    alone = [il.decompose_isometry(m, SPEC3, offset=b, seed=alone_seed) for m, b in zip(M, B)]
    assert isinstance(stacked, tuple) and len(stacked) == len(M)
    assert all(_same_bits(s, a) for s, a in zip(stacked, alone))
    assert seed.bit_generator.state == alone_seed.bit_generator.state
    if n >= 3:
        assert seed.bit_generator.state != np.random.default_rng(60).bit_generator.state
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(M, SPEC3, offset=B[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_decomposed_skew_stack_is_its_members_decomposed_alone(n):
    """sign +-1 with and without psi (at n = 4), and a perturbed member."""
    spec = il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2)))
    rng = np.random.default_rng([67, n])
    maps = [
        sign * il.so_adjoint_matrix(il.haar_orthogonal(n, rng, special=True)) @ (il.psi_matrix() if flag else np.eye(n * (n - 1) // 2))
        for sign in (1, -1)
        for flag in ((False, True) if n == 4 else (False,))
    ]
    maps.append(maps[-1] + 1e-9 * rng.uniform(-1, 1, maps[-1].shape))
    M = np.stack(maps)
    seed = np.random.default_rng(68)
    alone_seed = copy.deepcopy(seed)
    stacked = il.decompose_skew_isometry(M, spec, seed=seed)
    alone = [il.decompose_skew_isometry(m, spec, seed=alone_seed) for m in M]
    assert [(d.sign, d.psi_flag) for d in stacked][: len(maps) - 1] == [
        (sign, flag) for sign in (1, -1) for flag in ((False, True) if n == 4 else (False,))
    ]
    assert all(_same_bits(s, a) for s, a in zip(stacked, alone))
    assert seed.bit_generator.state == alone_seed.bit_generator.state


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
def test_a_stack_names_the_members_no_branch_reproduces(space):
    """Euclidean rotations mixed with adjoint maps, all isometries of the
    Frobenius norm: NotInClassifiedForm.members lists exactly the
    rotations."""
    n = 4
    if space == il.HERMITIAN_TRACELESS:
        adjoint = il.ad_matrix(il.haar_unitary(n, 69, special=True, count=3))
        decompose = il.decompose_isometry
    else:
        adjoint = il.so_adjoint_matrix(il.haar_orthogonal(n, 69, special=True, count=3))
        decompose = il.decompose_skew_isometry
    rotations = il.haar_orthogonal(adjoint.shape[-1], 70, special=True, count=2)
    M = np.stack([adjoint[0], rotations[0], adjoint[1], adjoint[2], rotations[1]])
    with pytest.raises(NotInClassifiedForm) as err:
        decompose(M, il.frobenius(space), seed=0)
    assert err.value.members == (1, 4)
    with pytest.raises(NotInClassifiedForm) as err:
        decompose(rotations[0], il.frobenius(space), seed=0)
    assert err.value.members == (0,)


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
def test_a_stack_holding_one_non_isometry_raises_not_isometry(space):
    n = 4
    if space == il.HERMITIAN_TRACELESS:
        adjoint, spec = il.ad_matrix(il.haar_unitary(n, 71, special=True, count=3)), SPEC3
        decompose = il.decompose_isometry
    else:
        adjoint, spec = il.so_adjoint_matrix(il.haar_orthogonal(n, 71, special=True, count=3)), CSPEC21
        decompose = il.decompose_skew_isometry
    M = np.concatenate([adjoint, 2.0 * np.eye(adjoint.shape[-1])[None]])[[0, 3, 1, 2]]
    with pytest.raises(NotIsometry) as err:
        decompose(M, spec, seed=0)
    assert err.value.members == (1,)
    # a Euclidean rotation is no isometry of a non-Euclidean norm either
    M[1] = il.haar_orthogonal(adjoint.shape[-1], 72, special=True)
    with pytest.raises(NotIsometry) as err:
        decompose(M, spec, seed=0)
    assert err.value.members == (1,)


def test_inversions_of_a_stack_are_its_members_inverted_alone():
    U = il.haar_unitary(3, 73, special=True, count=4)
    Q = il.haar_orthogonal(4, 73, special=True, count=4)
    P = il.psi_matrix()
    for invert, maps, n in (
        (il.recover_unitary_from_ad, il.ad_matrix(U), 3),
        (il.recover_orthogonal_from_adso, P @ il.so_adjoint_matrix(Q) @ P, 4),
    ):
        C, residual = invert(maps)
        assert C.shape == (4, n, n) and residual.shape == (4,)
        for t, M in enumerate(maps):
            c, r = invert(M)
            assert C[t].tobytes() == c.tobytes() and residual[t] == r
    # a stack raises for its first refused member, with that member's residual
    maps = np.stack([il.so_adjoint_matrix(Q[0]), -P, P])
    with pytest.raises(NotAdjointImage) as err:
        il.recover_orthogonal_from_adso(maps)
    with pytest.raises(NotAdjointImage) as alone:
        il.recover_orthogonal_from_adso(-P)
    assert err.value.residual == alone.value.residual


def _squared_forms(n, space, count, seed):
    """The basis, the adjoint images of ``count`` Haar conjugators and the
    rank-one forms ``(T^2 - I/n^2) / (n - 2/n)`` (Hermitian) or ``(4 T^2 -
    I) / (n - 2)`` (skew) of their rearranged superoperators T, formed in
    full as the oracle."""
    import isomlab.recover as recover

    if space == il.HERMITIAN_TRACELESS:
        basis = il.gell_mann_basis(n)
        maps = il.ad_matrix(il.haar_unitary(n, seed, special=True, count=count), basis)
        a, b, c = 1.0, 1.0 / n**2, n - 2.0 / n
    else:
        basis = il.skew_basis(n)
        maps = il.so_adjoint_matrix(il.haar_orthogonal(n, seed, special=True, count=count), basis)
        a, b, c = 4.0, 1.0, n - 2.0
    T = recover._rearranged(maps, basis)
    return basis, maps, (a * T @ T - b * np.eye(n * n)) / c


_SQUARED_CASES = [(il.HERMITIAN_TRACELESS, n) for n in (2, 3, 4, 5, 6)] + [
    (il.SKEW_REAL, n) for n in (3, 4, 5, 6)
]


@pytest.mark.parametrize("space, n", _SQUARED_CASES)
def test_squared_rearrangement_is_rank_one(space, n):
    """The squared forms are vec vec*: eigenvalues 0 and |vec|^2 = n."""
    _, _, S = _squared_forms(n, space, 20, [76, n])
    expected = np.zeros(n * n)
    expected[-1] = n
    assert np.max(np.abs(np.linalg.eigvalsh(S) - expected)) <= 1e-12


@pytest.mark.parametrize("space, n", _SQUARED_CASES)
def test_conjugator_is_the_top_eigenvector_of_the_squared_form(space, n):
    """The column read-off gives the oracle's top eigenvector of the squared
    form, times sqrt(n), up to phase (sign on the skew space)."""
    import isomlab.recover as recover

    basis, maps, S = _squared_forms(n, space, 20, [77, n])
    top = np.linalg.eigh(S)[1][..., -1] * np.sqrt(n)
    C, _, refused = recover._conjugator(maps, basis)
    assert not refused.any()
    vec = C.reshape(len(C), n * n)
    overlap = np.sum(top.conj() * vec, axis=-1)
    phase = overlap / np.abs(overlap)
    if space == il.SKEW_REAL:
        assert not np.iscomplexobj(C)
    assert np.max(np.abs(vec - phase[:, None] * top)) <= 1e-12


def test_recover_calls_no_eigh():
    """The conjugator is a closed form: recover makes no eigendecomposition
    (the eigh oracle lives in the tests)."""
    import ast
    import isomlab.recover as recover

    tree = ast.parse(open(recover.__file__).read())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not {"eigh", "eig", "eigvalsh", "eigvals"} & names


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space, n", [(il.HERMITIAN_TRACELESS, n) for n in (2, 3, 4)] + [
    (il.SKEW_REAL, n) for n in (3, 4, 5)
])
def test_degenerate_maps_fail_closed(space, n):
    """The zero map has no positive pivot and a coordinate projector is rank
    deficient: the inversions refuse both with NotAdjointImage and the
    decompositions with NotIsometry, alone and in a stack, with no
    LinAlgError and no RuntimeWarning (warnings are errors here)."""
    if space == il.HERMITIAN_TRACELESS:
        d, spec = n * n - 1, SPEC3
        invert, decompose = il.recover_unitary_from_ad, il.decompose_isometry
    else:
        d = n * (n - 1) // 2
        spec = il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2)))
        invert, decompose = il.recover_orthogonal_from_adso, il.decompose_skew_isometry
    import isomlab.recover as recover

    basis = il.gell_mann_basis(n) if space == il.HERMITIAN_TRACELESS else il.skew_basis(n)
    C, _, refused = recover._conjugator(np.zeros((1, d, d)), basis)
    assert refused[0] and np.all(np.isfinite(C))
    projector = np.diag(np.r_[np.ones(d - 1), 0.0])
    for M in (np.zeros((d, d)), projector, np.stack([np.eye(d), np.zeros((d, d)), projector])):
        with pytest.raises(NotAdjointImage):
            invert(M)
        with pytest.raises(NotIsometry) as err:
            decompose(M, spec, seed=0)
        assert err.value.members == ((0,) if M.ndim == 2 else (1, 2))


def test_unitary_phase_distance_of_stacks_is_per_member():
    U = il.haar_unitary(4, 74, special=True, count=3)
    V = il.haar_unitary(4, 75, special=True, count=3)
    dist = il.unitary_phase_distance(U, V)
    assert dist.shape == (3,)
    for t in range(3):
        assert dist[t] == il.unitary_phase_distance(U[t], V[t])
    assert il.unitary_phase_distance(U[0], 1j * U[0]) < 1e-15


def _phase_closed_form(U, V):
    """The n-th-roots-of-unity distance written out on its own."""
    zetas = np.exp(2j * np.pi * np.arange(U.shape[-1]) / U.shape[-1])[:, None, None]
    return np.abs(U[..., None, :, :] - zetas * V[..., None, :, :]).max(axis=(-2, -1)).min(axis=-1)


def _sign_closed_form(Q, P):
    """The +-1 distance written out on its own."""
    return np.minimum(np.abs(Q - P).max(axis=(-2, -1)), np.abs(Q + P).max(axis=(-2, -1)))


@pytest.mark.parametrize("n", range(2, 9))
def test_center_distances_keep_the_bits_of_their_closed_forms(n):
    """Both distances give the bits of their formulas written out, for
    singles, stacks and a single against a stack, on members rotated by a
    root of unity, negated, or unrelated."""
    U = il.haar_unitary(n, [80, n], count=7)
    V = U * np.exp(2j * np.pi * (np.arange(7) % n) / n)[:, None, None]
    V[1], V[5] = -V[1], il.haar_unitary(n, [81, n])
    Q = il.haar_orthogonal(n, [82, n], count=7)
    P = Q.copy()
    P[1::2] *= -1.0
    P[4] = il.haar_orthogonal(n, [83, n])
    for pick in ((), (0,), (1,), (5,)):
        for A, B in ((U, V), (V, U)):
            got = il.unitary_phase_distance(A[pick], B[pick])
            assert np.asarray(got).tobytes() == _phase_closed_form(A[pick], B[pick]).tobytes()
        for A, B in ((Q, P), (P, Q)):
            got = il.orthogonal_sign_distance(A[pick], B[pick])
            assert np.asarray(got).tobytes() == _sign_closed_form(A[pick], B[pick]).tobytes()
    assert il.unitary_phase_distance(U, V[2]).tobytes() == _phase_closed_form(U, V[2]).tobytes()
    assert il.orthogonal_sign_distance(Q[3], P).tobytes() == _sign_closed_form(Q[3], P).tobytes()


_BAD_PAIRS = {
    "rectangular": (np.zeros((2, 3)), np.zeros((2, 3))),
    "nan": (np.full((3, 3), np.nan), np.eye(3)),
    "inf_in_second": (np.eye(3), np.stack([np.eye(3), np.full((3, 3), np.inf)])),
    "sizes_differ": (np.eye(2), np.eye(3)),
    "vector": (np.zeros(3), np.zeros(3)),
    "four_axes": (np.zeros((2, 2, 3, 3)), np.eye(3)),
    "stack_lengths_differ": (np.zeros((2, 3, 3)), np.zeros((3, 3, 3))),
    "empty": (np.zeros((0, 0)), np.zeros((0, 0))),
}


@pytest.mark.parametrize("pair", _BAD_PAIRS.values(), ids=_BAD_PAIRS.keys())
@pytest.mark.parametrize("distance", [il.unitary_phase_distance, il.orthogonal_sign_distance])
def test_center_distances_refuse_malformed_pairs(distance, pair):
    with pytest.raises(InvalidDimension):
        distance(*pair)


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
    # the input checks run before the isometry distance test, so a non-isometry
    # with a spec of the other space, or with a malformed offset, is refused
    # as malformed input, not as a non-isometry
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(2.0 * np.eye(8), CSPEC21)
    with pytest.raises(InvalidDimension):
        il.decompose_skew_isometry(2.0 * np.eye(6), SPEC3)
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(np.eye(7), SPEC3)
    with pytest.raises(InvalidDimension):
        il.decompose_skew_isometry(np.eye(7), CSPEC21)
    with pytest.raises(InvalidDimension):
        il.decompose_isometry(2.0 * np.eye(8), SPEC3, offset=np.zeros(7))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hermitian_residual_is_the_deviation_of_the_rebuilt_map(n):
    """On every branch the reported residual is the max-entry deviation of
    the map rebuilt from the returned data, for exact maps and for maps
    perturbed by 1e-9, whose residual is far from rounding (at n = 2 the
    sigma inputs fold into a conjugation and are rebuilt without the
    involution)."""
    basis = il.gell_mann_basis(n)
    S = il.cartan_matrix(basis)
    rng = np.random.default_rng([53, n])
    for trial, eps in enumerate((0.0, 0.0, 1e-9, 1e-9)):
        U = il.haar_unitary(n, rng, special=True)
        for eta in (1, -1):
            for flag in (False, True):
                M = canonical_map(n, eta, flag, U)
                M = M + eps * rng.uniform(-1, 1, M.shape)
                dec = il.decompose_isometry(M, SPEC3, seed=trial)
                rebuilt = dec.eta * il.ad_matrix(dec.unitary, basis)
                if dec.sigma_flag:
                    rebuilt = rebuilt @ S
                assert abs(dec.residual - np.max(np.abs(rebuilt - M))) <= 1e-15


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_skew_residual_is_the_deviation_of_the_rebuilt_map(n):
    spec = il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2)))
    P = il.psi_matrix()
    rng = np.random.default_rng([54, n])
    for trial, eps in enumerate((0.0, 0.0, 1e-9, 1e-9)):
        Q = il.haar_orthogonal(n, rng, special=True)
        for sign in (1, -1):
            for flag in (False, True) if n == 4 else (False,):
                M = sign * il.so_adjoint_matrix(Q)
                if flag:
                    M = M @ P
                M = M + eps * rng.uniform(-1, 1, M.shape)
                dec = il.decompose_skew_isometry(M, spec, seed=trial)
                rebuilt = dec.sign * il.so_adjoint_matrix(dec.orthogonal)
                if dec.psi_flag:
                    rebuilt = rebuilt @ P
                assert abs(dec.residual - np.max(np.abs(rebuilt - M))) <= 1e-15


def test_decompose_frobenius_has_no_canonical_form():
    rejected = 0
    for t in range(20):
        M = il.haar_orthogonal(8, [300, t], special=True)
        try:
            il.decompose_isometry(M, il.frobenius(), seed=t)
        except NotInClassifiedForm:
            rejected += 1
    assert rejected == 20


def test_orthogonal_sign_distance_takes_each_members_sign():
    """A stack gets one distance per member, each under its own sign: a
    member negated in P is at distance 0, not at the stack's best common
    sign."""
    Q = il.haar_orthogonal(4, 76, special=True, count=3)
    P = Q.copy()
    P[1] *= -1.0
    dist = il.orthogonal_sign_distance(Q, P)
    assert dist.shape == (3,) and dist.tolist() == [0.0, 0.0, 0.0]
    P[2] = il.haar_orthogonal(4, 77, special=True)
    dist = il.orthogonal_sign_distance(Q, P)
    assert dist[:2].tolist() == [0.0, 0.0]
    assert dist[2] == il.orthogonal_sign_distance(Q[2], P[2]) > 0.1
    assert isinstance(il.orthogonal_sign_distance(Q[1], P[1]), float)


def test_recover_orthogonal_identity():
    Q, res = il.recover_orthogonal_from_adso(np.eye(6))
    assert il.orthogonal_sign_distance(Q, np.eye(4)) < 1e-12
    assert res < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_recover_orthogonal_round_trip(n):
    for trial in range(10):
        Q = il.haar_orthogonal(n, [6 * n, trial], special=True)
        Qh, res = il.recover_orthogonal_from_adso(il.so_adjoint_matrix(Q))
        assert il.orthogonal_sign_distance(Q, Qh) < 1e-9
        assert res < 1e-9
        assert np.linalg.det(Qh) == pytest.approx(1.0, abs=1e-9)


def test_recover_orthogonal_rejects_psi():
    for M in (il.psi_matrix(), -il.psi_matrix()):
        with pytest.raises(NotAdjointImage) as err:
            il.recover_orthogonal_from_adso(M)
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
                il.recover_orthogonal_from_adso(M)
            assert err.value.residual > 0.1


@pytest.mark.parametrize("n", [4, 6])
def test_even_n_reflection_congruence_is_refused(n):
    """At even n the congruence by a reflection is reproduced exactly, but
    by no rotation, so it is refused with its (tiny) residual."""
    for trial in range(5):
        R = il.haar_orthogonal(n, [52, n, trial])
        if np.linalg.det(R) > 0:
            R[:, 0] = -R[:, 0]
        M = il.ad_matrix(R, il.skew_basis(n))
        with pytest.raises(NotAdjointImage, match="reflection") as err:
            il.recover_orthogonal_from_adso(M)
        assert err.value.residual < 1e-9


def test_decompose_skew_tau():
    # the transpose map of the skew space is -I in coordinates
    dec = il.decompose_skew_isometry(-np.eye(6), CSPEC21)
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
        Qh, res = il.recover_orthogonal_from_adso(M)
        assert res < 1e-8


def test_odd_n_reflection_congruence_folds_into_rotation():
    R = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
    M = il.ad_matrix(R, il.skew_basis(5))
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
        Uh, res = il.recover_unitary_from_ad(M)
        assert res < 1e-9
        assert il.unitary_phase_distance(Uh, np.conj(U)) < 1e-9


def test_the_inversions_and_the_classifier_take_no_n():
    """Each function reads n off its argument, so none of them asks for it."""
    import inspect

    for func in (
        il.recover_unitary_from_ad,
        il.recover_orthogonal_from_adso,
        il.classify_eta_sigma,
        il.verify_preserver_forms,
    ):
        assert "n" not in inspect.signature(func).parameters, func.__name__


@pytest.mark.parametrize(
    "invert, space, n",
    [(il.recover_unitary_from_ad, il.HERMITIAN_TRACELESS, n) for n in range(2, 9)]
    + [(il.recover_orthogonal_from_adso, il.SKEW_REAL, n) for n in range(3, 9)],
)
def test_each_inversion_reads_n_off_the_map(invert, space, n):
    """A map of size d = space_dim(space, n) gives n x n conjugators, alone
    and stacked, and the Hermitian classifier reads the same n."""
    draw = il.haar_orthogonal if space == il.SKEW_REAL else il.haar_unitary
    maps = il.ad_matrix(draw(n, [78, n], special=True, count=2), il.basis_for(space, n))
    assert maps.shape == (2, il.space_dim(space, n), il.space_dim(space, n))
    assert invert(maps[0])[0].shape == (n, n)
    assert invert(maps)[0].shape == (2, n, n)
    if space == il.HERMITIAN_TRACELESS:
        assert il.classify_eta_sigma(maps[0])[2].shape == (n, n)


_ENTRY_POINTS = {
    "recover_unitary_from_ad": il.recover_unitary_from_ad,
    "recover_orthogonal_from_adso": il.recover_orthogonal_from_adso,
    "classify_eta_sigma": il.classify_eta_sigma,
    "decompose_isometry": lambda M: il.decompose_isometry(M, SPEC3),
    "decompose_skew_isometry": lambda M: il.decompose_skew_isometry(M, CSPEC21),
}


@pytest.mark.parametrize("name, d", [
    pytest.param(name, d, id=f"{name}-{d}")
    for name in _ENTRY_POINTS
    for d in ((2, 4, 5) if "orthogonal" in name or "skew" in name else (5, 7))
])
def test_a_size_that_no_n_gives_is_refused(name, d):
    """Hermitian sizes are n^2 - 1 (3, 8, 15, ...), skew ones n(n-1)/2 (1,
    3, 6, ...); any other size names no n."""
    with pytest.raises(InvalidDimension, match="is not the dimension"):
        _ENTRY_POINTS[name](np.eye(d))


def test_orthogonal_recovery_of_the_line_needs_n_at_least_3():
    """d = 1 is the skew space at n = 2, where the rank-one form is void."""
    with pytest.raises(InvalidDimension, match="needs n >= 3"):
        il.recover_orthogonal_from_adso(np.eye(1))
    with pytest.raises(InvalidDimension, match="needs n >= 3"):
        il.recover_orthogonal_from_adso(np.ones((3, 1, 1)))


def test_the_classifier_refuses_a_stack():
    maps = il.ad_matrix(il.haar_unitary(3, 79, special=True, count=2))
    with pytest.raises(InvalidDimension, match="takes one map"):
        il.classify_eta_sigma(maps)


_NON_NUMERIC_MAPS = {
    "string": "x",
    "ragged-objects": np.array([np.zeros(2), np.zeros(3)], dtype=object),
    "ragged-list": [[1.0, 2.0], [3.0]],
    "complex-objects": np.array([[1j, 0], [0, 1]], dtype=object),
}


@pytest.mark.parametrize("call", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
@pytest.mark.parametrize("M", _NON_NUMERIC_MAPS.values(), ids=_NON_NUMERIC_MAPS.keys())
def test_a_non_numeric_map_fails_closed(call, M):
    with pytest.raises(InvalidDimension, match="a coordinate map is a real numeric array"):
        call(M)
