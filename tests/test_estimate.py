import math
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

import isomlab as il
from isomlab.cli import DEFAULT_NORMS, _specs
from isomlab.errors import (
    DegeneratePoint,
    InconclusiveDimension,
    InvalidDimension,
    NotHermitian,
)


def diag_traceless(*vals):
    return np.diag(vals).astype(complex)


def permutation_trace_values(A, C):
    """Oracle: all n! spectral alignment values sum_j lam_j(A) lam_pi(j)(C).

    Each is attained on the similarity orbit (align the eigenbases through a
    permutation); the range endpoints are their min and max.
    """
    lam_a = np.linalg.eigvalsh(A)
    lam_c = np.linalg.eigvalsh(C)
    perms = np.array(list(permutations(range(len(lam_c)))))
    return lam_c[perms] @ lam_a


@pytest.mark.parametrize(
    "n,p,expected",
    [
        (3, 3.0, 8),
        (3, 1.5, 8),
        (3, 5.0, 8),
        (3, 2.0, 28),
        (4, 5.0, 15),
        (5, 3.0, 24),
        (2, 1.5, 3),
        (2, 2.0, 3),
        (2, 3.0, 3),
    ],
)
def test_hermitian_dimension_dichotomy(n, p, expected):
    rep = il.isometry_algebra_dimension(il.schatten(p), n, seed=1)
    assert rep.estimated_dim == expected
    assert rep.gap_ratio >= 1e6


@pytest.mark.parametrize("n", [3, 4])
def test_ky_fan_dimension_never_intermediate(n):
    rep = il.isometry_algebra_dimension(il.ky_fan(1), n, seed=2)
    assert rep.estimated_dim == n * n - 1


def test_frobenius_dimension_is_full_rotation_algebra():
    for n, d in ((2, 3), (3, 8), (4, 15)):
        rep = il.isometry_algebra_dimension(il.frobenius(), n, seed=2)
        assert rep.estimated_dim == d * (d - 1) // 2
        assert rep.gap_ratio >= 1e6


def test_dimension_nonsmooth_specs():
    for spec in (il.schatten(1.0), il.schatten(math.inf), il.ky_fan(1)):
        rep = il.isometry_algebra_dimension(spec, 3, seed=3)
        assert rep.estimated_dim == 8


def test_dimension_reseeding_stability():
    a = il.isometry_algebra_dimension(il.schatten(3), 3, seed=10)
    b = il.isometry_algebra_dimension(il.schatten(3), 3, seed=11)
    assert a.estimated_dim == b.estimated_dim


def test_skew_dimension_dichotomy():
    rep = il.skew_isometry_algebra_dimension(il.c_spectral((2, 1)), 5, seed=4)
    assert rep.estimated_dim == 10
    assert rep.gap_ratio >= 1e6
    rep = il.skew_isometry_algebra_dimension(il.frobenius(il.SKEW_REAL), 5, seed=5)
    assert rep.estimated_dim == 45
    assert rep.gap_ratio >= 1e6
    rep = il.skew_isometry_algebra_dimension(il.c_spectral((1, 0)), 4, seed=6)
    assert rep.estimated_dim == 6
    assert rep.gap_ratio >= 1e6


@pytest.mark.parametrize(
    "estimator,spec,n,d",
    [
        (il.isometry_algebra_dimension, il.schatten(3), 3, 8),
        (il.isometry_algebra_dimension, il.frobenius(), 4, 15),
        (il.skew_isometry_algebra_dimension, il.c_spectral((1, 0)), 4, 6),
        (il.skew_isometry_algebra_dimension, il.frobenius(il.SKEW_REAL), 5, 10),
    ],
)
def test_row_count_is_so_d_dim_plus_d(estimator, spec, n, d):
    # the largest sign block plus d: 8 + 8, 28 + 15, 4 + 6 and 3 + 10 rows
    rows = {8: 16, 15: 43, 6: 10, 10: 13}[d]
    rep = estimator(spec, n, seed=8)
    assert rep.samples_used == rows
    assert rep.singular_values.shape == (d * (d - 1) // 2,)


def _gl_dimension(spec, n, seed):
    """Oracle: the dimension read from d^2 + d rows vec(g) (x) vec(x) over
    all d^2 entries of a generator, the same samples' gradients (the
    so(d) estimate's samples, the largest sign block's size plus d, are the
    first of these), cut at the largest ratio of consecutive singular
    values."""
    basis = il.basis_for(spec.space, n)
    d = basis.d
    X = il.random_element(spec.space, n, np.random.default_rng(seed), count=d * d + d)
    g = il.vectorize(il.norm_gradient(X, spec), basis)
    rows = (g[:, :, None] * il.vectorize(X, basis)[:, None, :]).reshape(d * d + d, d * d)
    svals = np.linalg.svd(rows, compute_uv=False)
    with np.errstate(divide="ignore"):
        ratios = svals[:-1] / svals[1:]
    return d * d - 1 - int(np.argmax(ratios))


# every default norm on both spaces at n <= 5, each (space, token, n) once
_ORACLE_CASES = {
    f"{spec.space}/{spec.token()}/n={n}": (spec, n)
    for space, sizes in (("hermitian", (2, 3, 4, 5)), ("skew", (3, 4, 5)))
    for n in sizes
    for spec in _specs(DEFAULT_NORMS, space, n)
}


@pytest.mark.parametrize("spec,n", _ORACLE_CASES.values(), ids=_ORACLE_CASES.keys())
def test_so_d_rows_match_the_gl_d_oracle(spec, n):
    rep = il.estimate._algebra_dimension(spec, n, [0, n])
    assert rep.estimated_dim == _gl_dimension(spec, n, [0, n])
    assert rep.gap_ratio >= 1e12
    assert rep.containment_residual <= 1e-12


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("n", range(2, 9))
def test_sign_blocks_are_characters_of_the_sign_flips(space, n):
    import isomlab.estimate as est

    basis = il.basis_for(space, n)
    d = basis.d
    blocks = est._sign_blocks(basis)
    covered = sorted(i for stack in blocks for i in stack.ravel().tolist())
    assert covered == list(range(d * (d - 1) // 2))
    upper_a, upper_b = np.triu_indices(d, 1)
    mixed = False
    for signs in product((1.0, -1.0), repeat=n):
        D = np.diag(signs)
        # row j holds the coordinates of D B_j D: a diagonal +-1 map
        S = il.vectorize(D @ basis.mats @ D, basis)
        chi = np.round(np.diag(S))
        np.testing.assert_array_equal(np.abs(chi), 1.0)
        np.testing.assert_allclose(S, np.diag(chi), rtol=0, atol=1e-15)
        moves = [(chi[upper_a] * chi[upper_b])[stack] for stack in blocks]
        constant = all(np.all(m == m[:, :1]) for m in moves)
        # a mask and its complement share a block, one sign when det D = 1;
        # at odd n, D or -D has det 1 and both act alike
        if math.prod(signs) > 0 or n % 2:
            assert constant
        mixed |= not constant
    # complementary masks merge at even n (skew n = 2 has no unknowns)
    assert mixed == (n % 2 == 0 and d > 1)


def _full_width_dimension(spec, n, seed):
    """Oracle: the dimension read off one SVD of all d(d-1)/2 so(d) columns
    over d(d-1)/2 + d rows, cut as the estimator cuts."""
    import isomlab.estimate as est

    basis = il.basis_for(spec.space, n)
    unknowns = basis.d * (basis.d - 1) // 2
    rows, scales, _, _ = est._constraint_rows(spec, basis, unknowns + basis.d, seed)
    svals = np.linalg.svd(rows, compute_uv=False)
    return est._null_space_dimension(svals, float(scales.max()))[0]


# every default norm on both spaces at n <= 6, each (space, token, n) once
_FULL_WIDTH_CASES = {
    f"{spec.space}/{spec.token()}/n={n}": (spec, n)
    for space, sizes in (("hermitian", (2, 3, 4, 5, 6)), ("skew", (3, 4, 5, 6)))
    for n in sizes
    for spec in _specs(DEFAULT_NORMS, space, n)
}


@pytest.mark.parametrize("spec,n", _FULL_WIDTH_CASES.values(), ids=_FULL_WIDTH_CASES.keys())
def test_sign_blocks_match_the_full_width_svd(spec, n):
    for seed in range(5):
        rep = il.estimate._algebra_dimension(spec, n, seed)
        assert rep.estimated_dim == _full_width_dimension(spec, n, seed)


def test_block_solve_makes_no_svd_wider_than_the_largest_block(monkeypatch):
    import isomlab.estimate as est

    real, widths = np.linalg.svd, []

    def svd(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(est.np.linalg, "svd", svd)
    rep = il.isometry_algebra_dimension(il.schatten(3), 7, seed=[0, 7])
    assert rep.estimated_dim == 48
    assert rep.singular_values.shape == (1128,)
    # blocks of 36, 32 and 12 unknowns: one stacked SVD per size
    assert widths == [36, 32, 12]


def test_constraint_rows_build_no_d_squared_wide_temporary():
    import isomlab.estimate as est

    spec, n, basis = il.schatten(3), 7, il.gell_mann_basis(7)
    num = 84  # the largest sign block, 36, plus d = 48
    tracemalloc.start()
    try:
        rows = est._constraint_rows(spec, basis, num, [0, n])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (84, 1128)
    assert peak < 2 * rows.nbytes


def test_a_dimension_call_stays_within_a_few_row_matrices():
    spec, n = il.schatten(3), 7
    il.isometry_algebra_dimension(spec, n, seed=[0, n])  # fill the per-basis caches
    tracemalloc.start()
    try:
        rep = il.isometry_algebra_dimension(spec, n, seed=[0, n])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_matrix = rep.samples_used * rep.singular_values.size * 8  # 84 x 1128 floats
    # the rows, one block stack and the SVD work; the adjoint generators'
    # (d, d, d) coordinate tensor and (d, d, n, n) commutator stacks would
    # not fit
    assert peak < 2.5 * row_matrix


def test_exact_zeros_in_the_spectrum_are_noise_not_an_infinite_gap():
    import isomlab.estimate as est

    # a Euclidean space's rows are rounding noise, which can hold exact zeros
    null_dim, ratio = est._null_space_dimension(np.array([1e-16, 0.0, 0.0]), 1.0)
    assert null_dim == 3
    assert ratio == 1.0 / np.finfo(float).eps
    # a genuine cut inside the spectrum is unaffected by the floor
    null_dim, ratio = est._null_space_dimension(np.array([0.5, 0.2, 1e-15, 0.0]), 1.0)
    assert null_dim == 2
    assert ratio == pytest.approx(0.2 / 1e-15)


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
def test_a_zero_or_non_finite_row_scale_fails_closed(value, monkeypatch):
    import isomlab.estimate as est

    real_grad = est.norm_gradient

    def grad(X, spec):
        G = real_grad(X, spec)
        G[4] = value
        return G

    monkeypatch.setattr(est, "norm_gradient", grad)
    with pytest.raises(InconclusiveDimension, match="row 4 has scale"):
        il.isometry_algebra_dimension(il.schatten(3), 3, seed=1)


@pytest.mark.parametrize("weight", [1e150, 1e200, 1e300, 1e307])
def test_large_c_spectral_weights_keep_a_finite_row_scale(weight):
    """Scaling the weights cannot change the isometry group, and the
    gradient stays finite, so the estimate must not overflow in |g|
    (RuntimeWarnings are errors under the test configuration)."""
    spec = il.c_spectral((weight, weight / 10))
    report = il.skew_isometry_algebra_dimension(spec, 4, seed=0)
    assert report.estimated_dim == 6 and report.gap_ratio > 1e3
    assert report.containment_residual < 1e-12


def test_the_row_scale_keeps_its_bits_on_ordinary_gradients():
    """The power-of-two scaling of g is exact: the scales equal the plain
    product of row norms bit for bit."""
    import isomlab.estimate as est

    spec, n = il.c_spectral((2.0, 1.0)), 4
    basis = il.skew_basis(n)
    _, scales, X, G = est._constraint_rows(spec, basis, 12, 3)
    plain = np.linalg.norm(il.vectorize(G, basis), axis=1) * np.linalg.norm(il.vectorize(X, basis), axis=1)
    assert scales.tobytes() == plain.tobytes()


def _generator_coordinates(basis):
    """Oracle: upper entries, in ``np.triu_indices`` order, of the
    coordinate matrices of the adjoint algebra's generators, one row per
    basis element B_j: X -> i[B_j, X] on the Hermitian space, X -> [B_j, X]
    on the skew space, read off the (d, d, n, n) stack of commutators."""
    B, d = basis.mats, basis.d
    comm = B[:, None] @ B[None] - B[None] @ B[:, None]  # [B_j, B_b] at [j, b]
    if basis.space == il.HERMITIAN_TRACELESS:
        comm = 1j * comm
    # T[j, b, a] = <B_a, image of B_b>, entry (a, b) of generator j's matrix
    T = il.vectorize(comm.reshape(d * d, basis.n, basis.n), basis).reshape(d, d, d)
    upper_a, upper_b = np.triu_indices(d, 1)
    return T[:, upper_b, upper_a]


@pytest.mark.parametrize("space,n", [(il.HERMITIAN_TRACELESS, 3), (il.SKEW_REAL, 4)])
def test_generator_coordinates_are_the_adjoint_algebra(space, n):
    basis = il.basis_for(space, n)
    d = basis.d
    upper = np.triu_indices(d, 1)
    X = il.random_element(space, n, 3)
    for B, t in zip(basis.mats, _generator_coordinates(basis)):
        T = np.zeros((d, d))
        T[upper] = t
        T -= T.T
        image = B @ X - X @ B
        if space == il.HERMITIAN_TRACELESS:
            image = 1j * image
        np.testing.assert_allclose(T @ il.vectorize(X, basis), il.vectorize(image, basis), atol=1e-14)


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("n", range(3, 9))
def test_commutator_pairings_match_the_generator_coordinates(space, n):
    import isomlab.estimate as est

    basis = il.basis_for(space, n)
    gens = _generator_coordinates(basis)
    sizes = np.linalg.norm(gens, axis=1)
    # the Killing form gives every generator one size
    killing = math.sqrt(n) if space == il.HERMITIAN_TRACELESS else math.sqrt((n - 2) / 2)
    np.testing.assert_allclose(sizes, killing, rtol=1e-15, atol=0)

    def oracle(rows, scales):
        return (rows @ gens.T) / np.outer(scales, sizes)

    # the identity holds for any G in the space, so an unrelated G tests
    # it on pairings of order 1
    rng = np.random.default_rng([5, n])
    X = il.random_element(space, n, rng, count=20)
    G = il.random_element(space, n, rng, count=20)
    g, x = il.vectorize(G, basis), il.vectorize(X, basis)
    scales = np.linalg.norm(g, axis=1) * np.linalg.norm(x, axis=1)
    pairing = est._adjoint_pairings(X, G, scales, basis)
    assert np.abs(pairing).max() > 0.05
    np.testing.assert_allclose(pairing, oracle(est._so_rows(g, x), scales), rtol=0, atol=1e-15)
    # and on the estimator's own samples and gradients
    num = est._sign_blocks(basis)[0].shape[1] + basis.d
    rows, scales, X, G = est._constraint_rows(il.schatten(3, space), basis, num, [0, n])
    pairing = est._adjoint_pairings(X, G, scales, basis)
    np.testing.assert_allclose(pairing, oracle(rows, scales), rtol=0, atol=1e-15)


def test_containment_tells_the_adjoint_algebra_from_other_directions():
    import isomlab.estimate as est

    spec, n = il.schatten(3), 4
    basis = il.gell_mann_basis(n)
    # the estimator's 43 rows: the largest sign block, 28, plus d = 15
    rows, scales, _, _ = est._constraint_rows(spec, basis, 43, 5)

    def residual(t):
        return np.max(np.abs(rows @ t) / scales) / np.linalg.norm(t)

    assert max(residual(t) for t in _generator_coordinates(basis)) <= 1e-14
    # a random direction of so(15) is no isometry generator of schatten:3
    assert residual(np.random.default_rng(6).standard_normal(rows.shape[1])) > 1e-3


def test_dimension_rejects_wrong_space():
    with pytest.raises(InvalidDimension):
        il.isometry_algebra_dimension(il.c_spectral((1,)), 3)
    with pytest.raises(InvalidDimension):
        il.skew_isometry_algebra_dimension(il.schatten(3), 3)


@pytest.mark.parametrize("spec", [il.c_spectral((1,)), il.frobenius(il.SKEW_REAL)])
def test_skew_dimension_refuses_the_line_before_building_rows(spec, monkeypatch):
    import isomlab.estimate as estimate

    def no_rows(*args, **kwargs):
        raise AssertionError("constraint rows built for a one-dimensional space")

    monkeypatch.setattr(estimate, "_constraint_rows", no_rows)
    with pytest.raises(InvalidDimension, match="is a line: its isometry algebra is 0"):
        il.skew_isometry_algebra_dimension(spec, 2)


@pytest.mark.parametrize("n", [3.5, 4.0, "4"])
def test_dimension_refuses_a_non_integer_n(n):
    with pytest.raises(InvalidDimension, match="need an integer n"):
        il.isometry_algebra_dimension(il.schatten(3), n)
    with pytest.raises(InvalidDimension, match="need an integer n"):
        il.skew_isometry_algebra_dimension(il.c_spectral((1, 0)), n)
    for haar in (il.haar_unitary, il.haar_orthogonal):
        with pytest.raises(InvalidDimension, match="need an integer n"):
            haar(n, 0)


_NEGATIVE_TRIALS = {
    "check_invariance": lambda C: il.check_invariance(il.schatten(3), 3, -1, 0),
    "c_numerical_range_sample": lambda C: il.c_numerical_range_sample(C, C, -1),
    "verify_preserver_forms": lambda C: il.verify_preserver_forms(C, -1),
    "verify_sigma_normalizes": lambda C: il.verify_sigma_normalizes(np.eye(3), -1, 0),
    "random_element": lambda C: il.random_element(il.HERMITIAN_TRACELESS, 3, 0, count=-1),
    "haar_unitary": lambda C: il.haar_unitary(3, 0, count=-1),
    "haar_orthogonal": lambda C: il.haar_orthogonal(3, 0, count=-1),
}


@pytest.mark.parametrize("call", _NEGATIVE_TRIALS.values(), ids=_NEGATIVE_TRIALS.keys())
def test_a_negative_trial_count_fails_closed(call):
    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 42)
    with pytest.raises(InvalidDimension, match="need trials >= 0, got -1"):
        call(C)


_TRIAL_CALLS = {
    "check_invariance": lambda C, trials: il.check_invariance(il.schatten(3), 3, trials, 0),
    "c_numerical_range_sample": lambda C, trials: il.c_numerical_range_sample(C, C, trials),
    "verify_preserver_forms": lambda C, trials: il.verify_preserver_forms(C, trials),
    "verify_sigma_normalizes": lambda C, trials: il.verify_sigma_normalizes(np.eye(3), trials, 0),
    "random_element": lambda C, trials: il.random_element(il.HERMITIAN_TRACELESS, 3, 0, count=trials),
    "haar_unitary": lambda C, trials: il.haar_unitary(3, 0, count=trials),
    "haar_orthogonal": lambda C, trials: il.haar_orthogonal(3, 0, count=trials),
}

# a sampler's count=None draws one matrix, not a stack, so None is tried
# only on the trial counts
_SAMPLERS = ("random_element", "haar_unitary", "haar_orthogonal")


@pytest.mark.parametrize("call,trials", [
    pytest.param(call, trials, id=f"{name}-{trials}")
    for name, call in _TRIAL_CALLS.items()
    for trials in (2.5, 2.0, "2", None)
    if trials is not None or name not in _SAMPLERS
])
def test_a_non_integer_trial_count_fails_closed(call, trials):
    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 42)
    with pytest.raises(InvalidDimension, match="need an integer trial count"):
        call(C, trials)
    call(C, np.int64(2))  # a numpy integer is a count


def test_zero_trials_keep_their_meaning():
    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 42)
    assert il.check_invariance(il.schatten(3), 3, 0, 0) == 0.0
    assert il.c_numerical_range_sample(C, C, 0).values.shape == (0,)
    assert il.verify_preserver_forms(C, 0).trials == 0


def test_range_sample_aligned_case():
    A = diag_traceless(1.0, -1.0) / np.sqrt(2)
    s = il.c_numerical_range_sample(A, A, 500, seed=1)
    assert s.hi == pytest.approx(1.0, abs=1e-12)
    assert s.lo == pytest.approx(-1.0, abs=1e-12)
    assert il.c_numerical_radius(A, A) == pytest.approx(1.0, abs=1e-12)


def test_range_sample_zero_c():
    A = il.random_element(il.HERMITIAN_TRACELESS, 3, 2)
    s = il.c_numerical_range_sample(A, np.zeros((3, 3), dtype=complex), 100, seed=2)
    assert np.max(np.abs(s.values)) == 0.0


def test_range_sample_contains_permutation_values():
    for n in range(2, 7):
        for seed in range(3):
            A = il.random_element(il.HERMITIAN_TRACELESS, n, [3, n, seed])
            C = il.random_element(il.HERMITIAN_TRACELESS, n, [4, n, seed])
            pv = permutation_trace_values(A, C)
            s = il.c_numerical_range_sample(A, C, 2000, seed=[n, seed])
            assert s.lo == pytest.approx(np.min(pv), abs=1e-12)
            assert s.hi == pytest.approx(np.max(pv), abs=1e-12)
            assert s.values.shape == (2000,)
            assert np.all(s.values >= s.lo - 1e-12)
            assert np.all(s.values <= s.hi + 1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_range_sample_values_match_the_trace_oracle(n):
    """The quadratic form Re(conj(u) . kron(A, C.T) u) at u = vec(U) is
    tr(A U C U*) at the same Haar draws, within 1e-12 |A| |C|."""
    A = il.random_element(il.HERMITIAN_TRACELESS, n, [32, n])
    C = il.random_element(il.HERMITIAN_TRACELESS, n, [33, n])
    s = il.c_numerical_range_sample(A, C, 50, seed=[34, n])
    U = il.haar_unitary(n, [34, n], count=50)
    oracle = np.einsum("ij,kji->k", A, U @ C @ U.conj().transpose(0, 2, 1)).real
    np.testing.assert_allclose(s.values, oracle, rtol=0, atol=1e-12 * np.linalg.norm(A) * np.linalg.norm(C))


def test_range_endpoints_attained_by_eigenbasis_alignment():
    for n in range(2, 7):
        A = il.random_element(il.HERMITIAN_TRACELESS, n, [30, n])
        C = il.random_element(il.HERMITIAN_TRACELESS, n, [31, n])
        _, Va = np.linalg.eigh(A)
        _, Vc = np.linalg.eigh(C)
        s = il.c_numerical_range_sample(A, C, 0)
        for P, end in ((np.eye(n), s.hi), (np.eye(n)[::-1], s.lo)):
            U = Va @ P @ Vc.conj().T
            assert np.trace(A @ U @ C @ U.conj().T).real == pytest.approx(end, abs=1e-12)


def test_range_rejects_non_hermitian_or_non_square():
    A = il.random_element(il.HERMITIAN_TRACELESS, 3, 40)
    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 41)
    with pytest.raises(NotHermitian):
        il.c_numerical_radius(A + 1e-6j * np.triu(np.ones((3, 3)), 1), C)
    with pytest.raises(InvalidDimension):
        il.c_numerical_range_sample(A, np.zeros((3, 2)), 10)
    with pytest.raises(InvalidDimension, match="one square matrix A"):
        il.c_numerical_radius(np.stack([A, A]), C)
    # a NaN defect compares False against any tolerance; these once gave
    # a radius of 0.0, endpoints lo = hi = 0.0, and a NaN radius
    nan_entry = A.copy()
    nan_entry[0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        inf_scaled = np.inf * A
    with pytest.raises(NotHermitian, match="A: non-finite"):
        il.c_numerical_radius(nan_entry, C)
    with pytest.raises(NotHermitian, match="A: non-finite"):
        il.c_numerical_range_sample(nan_entry, C, 10)
    with pytest.raises(NotHermitian, match="A: non-finite"):
        il.c_numerical_radius(inf_scaled, C)
    with pytest.raises(NotHermitian, match="C: non-finite"):
        il.c_numerical_radius(A, nan_entry)
    # a NaN C once gave all-zero deviations, a passing report
    for trials in (0, 3):
        with pytest.raises(NotHermitian, match="C: non-finite"):
            il.verify_preserver_forms(nan_entry, trials)


def test_radius_n2_analytic():
    """Oracle: the 2 x 2 orbit is a circle; brute-force a dense sweep."""
    a, c = 1.3, 0.7
    A = diag_traceless(a, -a)
    C = diag_traceless(c, -c)
    thetas = np.linspace(0.0, np.pi, 5001)
    best = 0.0
    for th in thetas:
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        best = max(best, abs(np.trace(A @ R @ C @ R.conj().T).real))
    assert best == pytest.approx(2 * a * c, abs=1e-6)
    r = il.c_numerical_radius(A, C)
    assert r == pytest.approx(2 * a * c, abs=1e-12)


def test_radius_zero_c():
    A = il.random_element(il.HERMITIAN_TRACELESS, 2, 5)
    assert il.c_numerical_radius(A, np.zeros((2, 2), dtype=complex)) == 0.0


def test_radius_dominates_bounds():
    for seed in range(5):
        A = il.random_element(il.HERMITIAN_TRACELESS, 3, [6, seed])
        C = il.random_element(il.HERMITIAN_TRACELESS, 3, [7, seed])
        perm = float(np.max(np.abs(permutation_trace_values(A, C))))
        r = il.c_numerical_radius(A, C)
        assert r >= perm - 1e-9
        # Monte-Carlo lower-bound oracle
        sample = il.c_numerical_range_sample(A, C, 100_000, seed=[8, seed])
        mc = float(np.max(np.abs(sample.values)))
        assert r >= mc - 1e-6


def test_radius_symmetry_in_arguments():
    A = il.random_element(il.HERMITIAN_TRACELESS, 3, 9)
    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 10)
    r1 = il.c_numerical_radius(A, C)
    r2 = il.c_numerical_radius(C, A)
    assert r1 == pytest.approx(r2, abs=1e-8)


def test_radius_invariant_under_conjugation():
    A = il.random_element(il.HERMITIAN_TRACELESS, 3, 13)
    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 14)
    U = il.haar_unitary(3, 15, special=True)
    r0 = il.c_numerical_radius(A, C)
    r1 = il.c_numerical_radius(U @ A @ U.conj().T, C)
    r2 = il.c_numerical_radius(-A, C)
    assert r1 == pytest.approx(r0, abs=1e-8)
    assert r2 == pytest.approx(r0, abs=1e-8)


def _parent_endpoints(A, C):
    """The closed form as one dot per pair, without the input checks."""
    lam_a = np.linalg.eigvalsh(A)
    lam_c = np.linalg.eigvalsh(C)
    return float(lam_a @ lam_c[::-1]), float(lam_a @ lam_c)


def preserver_forms_loop(C, n, trials, seed):
    """Oracle: the per-trial loop verify_preserver_forms once ran, with
    seven endpoint computations per trial."""
    radius = lambda A: max(abs(end) for end in _parent_endpoints(A, C))
    radius_dev = {"conj_plus": 0.0, "conj_minus": 0.0, "cartan_plus": 0.0, "cartan_minus": 0.0}
    wc_interval = 0.0
    wc_pointwise = 0.0
    rng = np.random.default_rng(seed)
    As = il.random_element(il.HERMITIAN_TRACELESS, n, rng, count=trials)
    Us = il.haar_unitary(n, rng, count=trials)
    Vs = il.haar_unitary(n, rng, count=trials)
    for A, U, V in zip(As, Us, Vs):
        r0 = radius(A)
        conj, cartan = U @ A @ U.conj().T, U @ (-A.T) @ U.conj().T
        images = {"conj_plus": conj, "conj_minus": -conj, "cartan_plus": cartan, "cartan_minus": -cartan}
        for key, LA in images.items():
            radius_dev[key] = max(radius_dev[key], abs(radius(LA) - r0))
        scale = float(np.linalg.norm(A)) * float(np.linalg.norm(C))
        lo0, hi0 = _parent_endpoints(A, C)
        lo1, hi1 = _parent_endpoints(conj, C)
        wc_interval = max(wc_interval, max(abs(lo0 - lo1), abs(hi0 - hi1)) / max(scale, 1e-30))
        X = V @ C @ V.conj().T
        val_moved = float(np.trace(conj @ (U @ X @ U.conj().T)).real)
        val_base = float(np.trace(A @ X).real)
        wc_pointwise = max(wc_pointwise, abs(val_moved - val_base))
    return radius_dev, wc_interval, wc_pointwise


@pytest.mark.parametrize("trials", [0, 1, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_preserver_forms_match_the_per_trial_loop_bit_for_bit(monkeypatch, n, trials):
    import isomlab.estimate as est

    calls = []
    real = est._range_endpoints

    def counted(A, C):
        calls.append(np.shape(A))
        return real(A, C)

    monkeypatch.setattr(est, "_range_endpoints", counted)
    C = il.random_element(il.HERMITIAN_TRACELESS, n, [50, n])
    rep = il.verify_preserver_forms(C, trials, seed=[51, n, trials])
    # one endpoint call, on the five images of every trial, so C's
    # eigvalsh runs once
    assert calls == [(5 * trials, n, n)]
    radius_dev, wc_interval, wc_pointwise = preserver_forms_loop(C, n, trials, [51, n, trials])
    assert rep.radius_dev == radius_dev
    assert all(type(v) is float for v in rep.radius_dev.values())
    assert (rep.wc_interval_dev, rep.wc_pointwise_dev, rep.trials) == (wc_interval, wc_pointwise, trials)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_range_endpoints_give_each_member_its_lone_bits(n):
    from isomlab.estimate import _range_endpoints

    A = il.random_element(il.HERMITIAN_TRACELESS, n, [52, n], count=40)
    C = il.random_element(il.HERMITIAN_TRACELESS, n, [53, n])
    lo, hi = _range_endpoints(A, C)
    assert lo.shape == hi.shape == (40,)
    for k, member in enumerate(A):
        lone = _range_endpoints(member, C)
        assert all(type(end) is float for end in lone)
        assert lone == (lo[k], hi[k]) == _parent_endpoints(member, C)


def test_preserver_forms_report():
    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 20)
    rep = il.verify_preserver_forms(C, trials=5, seed=21)
    assert max(rep.radius_dev.values()) < 1e-10
    assert rep.wc_interval_dev < 1e-12
    assert rep.wc_pointwise_dev < 1e-12
    assert rep.trials == 5


def test_constraint_rows_redraw_only_the_degenerate_row(monkeypatch):
    import isomlab.estimate as est

    spec, n, basis = il.schatten(1.0), 3, il.gell_mann_basis(3)
    num = 20
    clean = est._constraint_rows(spec, basis, num, 7)
    real_draw, real_grad = est.random_element, est.norm_gradient
    draws, grads = [], []

    def draw(space, n, seed, count=None):
        X = real_draw(space, n, seed, count=count)
        if not draws:
            X[5] = np.diag([1.0, -1.0, 0.0])  # not smooth for schatten:1
        draws.append(count)
        return X

    def grad(X, spec):
        grads.append(len(X))
        return real_grad(X, spec)

    monkeypatch.setattr(est, "random_element", draw)
    monkeypatch.setattr(est, "norm_gradient", grad)
    rows, scales, samples, gradients = est._constraint_rows(spec, basis, num, 7)
    assert draws == [num, 1]
    assert grads == [num, num]
    assert np.flatnonzero(np.any(rows != clean[0], axis=1)).tolist() == [5]
    assert np.flatnonzero(scales != clean[1]).tolist() == [5]
    assert np.flatnonzero(np.any(samples != clean[2], axis=(1, 2))).tolist() == [5]
    # the returned stacks are the ones the rows were built from
    np.testing.assert_array_equal(gradients, real_grad(samples, spec))
    # the redrawn sample is the generator's next one, and its row pairs
    # <g, T x> with the upper entries of a skew T
    rng = np.random.default_rng(7)
    real_draw(spec.space, n, rng, count=num)
    X = real_draw(spec.space, n, rng, count=1)[0]
    np.testing.assert_array_equal(samples[5], X)
    g, x = il.vectorize(real_grad(X, spec), basis), il.vectorize(X, basis)
    upper = np.triu_indices(basis.d, 1)
    np.testing.assert_array_equal(rows[5], (np.outer(g, x) - np.outer(x, g))[upper])
    assert scales[5] == np.linalg.norm(g) * np.linalg.norm(x)


def test_constraint_rows_give_up_after_the_resample_budget(monkeypatch):
    import isomlab.estimate as est

    real_draw = est.random_element

    def draw(space, n, seed, count=None):
        X = real_draw(space, n, seed, count=count)
        # row 3 of the first draw and every redraw are not smooth for schatten:1
        X[3 if count == 10 else slice(None)] = np.diag([1.0, -1.0, 0.0])
        return X

    monkeypatch.setattr(est, "random_element", draw)
    with pytest.raises(DegeneratePoint, match="row 3 after 20 tries"):
        est._constraint_rows(il.schatten(1.0), il.gell_mann_basis(3), 10, 0)


@pytest.mark.parametrize(
    "C, error",
    [
        (np.eye(3)[:2], InvalidDimension),
        (np.stack([np.eye(3), np.eye(3)]), InvalidDimension),
        (np.zeros((0, 0)), InvalidDimension),
        (np.triu(np.ones((3, 3))), NotHermitian),
        (np.full((3, 3), np.inf), NotHermitian),
    ],
    ids=["not-square", "stack", "empty", "not-hermitian", "inf"],
)
def test_preserver_forms_check_c_before_any_draw(C, error):
    """n is read off C, so C is checked first: the generator is untouched."""
    rng = np.random.default_rng(80)
    state = rng.bit_generator.state
    with pytest.raises(error):
        il.verify_preserver_forms(C, 4, seed=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [2, 3, 5])
def test_preserver_forms_read_n_off_c(n):
    C = il.random_element(il.HERMITIAN_TRACELESS, n, [81, n])
    rep = il.verify_preserver_forms(C, 3, seed=[82, n])
    assert rep.trials == 3 and max(rep.radius_dev.values()) < 1e-10
