import numpy as np
import numpy.testing as npt
import pytest

import isomlab as il
from isomlab.errors import InvalidDimension, InvalidSeed, NotHermitian

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


_NON_INTEGER_N = {
    "gell_mann_basis": lambda: il.gell_mann_basis(2.0),
    "skew_basis": lambda: il.skew_basis(2.0),
    "space_dim": lambda: il.space_dim(il.HERMITIAN_TRACELESS, 2.5),
    "space_dim_string": lambda: il.space_dim(il.SKEW_REAL, "3"),
}


@pytest.mark.parametrize("call", _NON_INTEGER_N.values(), ids=_NON_INTEGER_N.keys())
def test_a_non_integer_n_fails_closed(call):
    """Checked by the cached basis constructors, after the bases of the
    integer n are cached: 2.0 equals 2 but must not hit its cache entry."""
    il.gell_mann_basis(2), il.skew_basis(2), il.skew_basis(3)
    with pytest.raises(InvalidDimension, match="need an integer n"):
        call()


def test_one_basis_cache_serves_both_spaces_after_the_size_check():
    """The per-space constructors are basis_for; n is checked before the
    cache lookup, so an integer of any type finds the entry of its value,
    and an unhashable or bool n is refused rather than looked up."""
    assert il.gell_mann_basis(3) is il.basis_for(il.HERMITIAN_TRACELESS, np.int64(3))
    assert il.skew_basis(4) is il.basis_for(il.SKEW_REAL, 4)
    for n in (np.array([3]), True):
        with pytest.raises(InvalidDimension, match="need an integer n"):
            il.gell_mann_basis(n)


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


def _old_vectorize(A, basis):
    """The two pairings vectorize had before they became one einsum call:
    tr(B_i A) on the Hermitian space; tr(B_i.T A), real part kept only for
    a complex input, on the skew space."""
    if basis.space == il.HERMITIAN_TRACELESS:
        return np.einsum("ijk,...kj->...i", basis.mats, A).real
    coords = np.einsum("ijk,...jk->...i", basis.mats, A)
    return np.asarray(coords.real if np.iscomplexobj(coords) else coords, dtype=float)


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_vectorize_keeps_the_bits_of_the_two_trace_forms(space, n):
    """One matrix and a stack, plus a complex input on the skew space, give
    the old pairing's bytes, signed zeros included."""
    basis = il.basis_for(space, n)
    stack = il.random_element(space, n, [71, n], count=4)
    inputs = [stack[0], stack, np.zeros((n, n), dtype=stack.dtype)]
    if space == il.SKEW_REAL:
        inputs += [stack[1] + 1j * stack[2], stack + 1j * stack[::-1]]
    for A in inputs:
        got, old = il.vectorize(A, basis), _old_vectorize(A, basis)
        assert got.dtype == old.dtype and got.shape == old.shape
        assert got.tobytes() == old.tobytes()


def test_vectorize_dimension_mismatch():
    basis = il.gell_mann_basis(3)
    with pytest.raises(InvalidDimension):
        il.vectorize(np.zeros((4, 4)), basis)
    with pytest.raises(InvalidDimension):
        il.devectorize(np.zeros(9), basis)


def _draws(sample, k):
    """A count=k draw and k single draws, each from a generator seeded
    alike, with the state each generator is left in."""
    stacked, lone = np.random.default_rng(k), np.random.default_rng(k)
    stack = sample(stacked, k)
    members = [sample(lone, None) for _ in range(k)]
    return stack, members, stacked.bit_generator.state, lone.bit_generator.state


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("n", range(2, 9))
def test_coordinate_maps_take_a_batch_axis(space, n):
    """For k = 2, 5, 57, a stack or a count=k draw gives each member, bit
    for bit, what a single call gives it, and a count=k draw leaves the
    generator where k single draws leave it."""
    basis = il.basis_for(space, n)
    samplers = [
        lambda rng, count: il.random_element(space, n, rng, count=count),
        lambda rng, count: il.haar_unitary(n, rng, count=count),
        lambda rng, count: il.haar_unitary(n, rng, special=True, count=count),
        lambda rng, count: il.haar_orthogonal(n, rng, count=count),
        lambda rng, count: il.haar_orthogonal(n, rng, special=True, count=count),
    ]
    for k in (2, 5, 57):
        for sample in samplers:
            stack, members, stacked_state, lone_state = _draws(sample, k)
            assert stack.shape == (k, n, n)
            assert stack.tobytes() == np.stack(members).tobytes()
            assert stacked_state == lone_state
        stack = il.random_element(space, n, [6, n], count=k)
        coords = il.vectorize(stack, basis)
        assert coords.shape == (k, basis.d)
        npt.assert_array_equal(coords, [il.vectorize(A, basis) for A in stack])
        matrices = il.devectorize(coords, basis)
        assert matrices.tobytes() == np.stack([il.devectorize(v, basis) for v in coords]).tobytes()
    assert il.devectorize(coords[:1], basis).shape == (1, n, n)
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


def test_is_element_refuses_an_infinite_entry_without_a_warning():
    """The trace of diag(inf, -inf, 0) is inf - inf: such a member is no
    element, and no RuntimeWarning escapes (they are errors in the tests)."""
    inf = np.inf
    cases = [
        (np.diag([inf, -inf, 0.0]), il.HERMITIAN_TRACELESS),
        (np.array([[0, inf], [-inf, 0]]), il.HERMITIAN_TRACELESS),
        (np.array([[0, inf * 1j], [-inf * 1j, 0]]), il.HERMITIAN_TRACELESS),
        (np.array([[0.0, inf], [-inf, 0.0]]), il.SKEW_REAL),
    ]
    for A, space in cases:
        assert il.is_element(A, space) is np.False_
        # not even under a tolerance that any finite defect meets
        assert not il.is_element(A, space, tol=inf)
    # a finite matrix whose Hermiticity defect overflows
    assert not il.is_element(np.array([[0.0, 1e308], [-1e308, 0.0]]), il.HERMITIAN_TRACELESS)
    stack = il.random_element(il.HERMITIAN_TRACELESS, 3, 5, count=3)
    stack[2, 0, 0] = -inf
    npt.assert_array_equal(il.is_element(stack, il.HERMITIAN_TRACELESS), [True, True, False])


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
    # a NaN defect compares False against any tolerance; these once came
    # back as NaN matrices
    for value in (np.nan, np.inf):
        with pytest.raises(NotHermitian, match="non-finite"):
            il.project_traceless(np.diag([value, 0.0]))
        with pytest.raises(NotHermitian, match="non-finite"):
            il.project_traceless(np.stack([np.eye(2), np.diag([0.0, value])]))


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
        val = np.trace(A @ A).real
        assert val > 0
        assert abs(val - np.linalg.norm(A) ** 2) < 1e-12


_C3 = np.diag([1.0, 0.0, -1.0]).astype(complex)

# every public function that draws, each with a seed it forwards
_DRAWS = {
    "random_element": lambda seed: il.random_element(il.HERMITIAN_TRACELESS, 3, seed),
    "haar_unitary": lambda seed: il.haar_unitary(3, seed),
    "haar_orthogonal": lambda seed: il.haar_orthogonal(3, seed),
    "verify_sigma_normalizes": lambda seed: il.verify_sigma_normalizes(np.eye(3), 2, seed),
    "check_invariance": lambda seed: il.check_invariance(il.schatten(3), 3, 2, seed),
    "isometry_algebra_dimension": lambda seed: il.isometry_algebra_dimension(il.schatten(3), 3, seed=seed),
    "skew_isometry_algebra_dimension": lambda seed: il.skew_isometry_algebra_dimension(
        il.schatten(3, il.SKEW_REAL), 4, seed=seed
    ),
    "c_numerical_range_sample": lambda seed: il.c_numerical_range_sample(_C3, _C3, 2, seed=seed),
    "verify_preserver_forms": lambda seed: il.verify_preserver_forms(_C3, 2, seed=seed),
    "decompose_isometry": lambda seed: il.decompose_isometry(np.eye(8), il.schatten(3), seed=seed),
    "decompose_skew_isometry": lambda seed: il.decompose_skew_isometry(
        np.eye(6), il.c_spectral((1.0, 0.0)), seed=seed
    ),
}


@pytest.mark.parametrize("draw", _DRAWS.values(), ids=_DRAWS.keys())
@pytest.mark.parametrize("seed", [-1, [0, -2], 2.5, "seed"])
def test_a_refused_seed_raises_invalid_seed(draw, seed):
    with pytest.raises(InvalidSeed, match="cannot seed a generator"):
        draw(seed)


def test_the_seed_helper_passes_a_generator_through():
    from isomlab.matspace import _rng

    rng = np.random.default_rng(4)
    assert _rng(rng) is rng
    npt.assert_array_equal(_rng([4, 5]).standard_normal(3), np.random.default_rng([4, 5]).standard_normal(3))


# (seed maker, whether _seed hands the seed back as it is)
_SEED_KINDS = {
    "int": (lambda: 4, True),
    "zero": (lambda: 0, True),
    "huge-int": (lambda: 2**70, True),
    "list": (lambda: [4, 5], True),
    "four-int-list": (lambda: [5, 4, 3, 1], True),
    "empty-list": (lambda: [], True),
    "tuple": (lambda: (1, 2), True),
    "nested-list": (lambda: [[1]], False),
    "numpy-int": (lambda: np.uint64(4), False),
    "numpy-int64": (lambda: np.int64(7), False),
    "numpy-int-list": (lambda: [np.int64(7), 2], False),
    "seed-sequence": (lambda: np.random.SeedSequence([4, 5]), True),
    "bit-generator": (lambda: np.random.PCG64([4, 5]), True),
    "generator": (lambda: np.random.default_rng([4, 5]), True),
    "random-state": (lambda: np.random.RandomState(4), True),
}


@pytest.mark.parametrize("make, passes", _SEED_KINDS.values(), ids=_SEED_KINDS.keys())
def test_a_checked_seed_draws_what_the_seed_draws(make, passes):
    """_seed builds no generator: a non-negative int, a list or tuple of
    them, a Generator, BitGenerator, SeedSequence or RandomState comes back
    as it is, anything else as a SeedSequence, and default_rng of the
    checked seed draws what default_rng of the seed draws."""
    from isomlab.matspace import _rng, _seed

    seed = make()
    checked = _seed(seed)
    assert (checked is seed) == passes
    npt.assert_array_equal(_rng(checked).standard_normal(3), np.random.default_rng(make()).standard_normal(3))


@pytest.mark.parametrize("seed", [-1, 1.5, [1, -2], (3, -1), "x", [[1]], [1.5], None])
def test_the_seed_check_refuses_exactly_what_numpy_refuses(seed):
    """_seed raises InvalidSeed where default_rng raises, and elsewhere only
    for a bool (test_input_contract); numpy takes a nested list of
    non-negative ints."""
    from isomlab.matspace import _seed

    try:
        np.random.default_rng(seed)
    except (TypeError, ValueError):
        with pytest.raises(InvalidSeed, match="cannot seed a generator"):
            _seed(seed)
    else:
        if seed is None:
            assert isinstance(_seed(seed), np.random.SeedSequence)
        else:
            npt.assert_array_equal(
                np.random.default_rng(_seed(seed)).standard_normal(3), np.random.default_rng(seed).standard_normal(3)
            )


@pytest.mark.parametrize(
    "v",
    ["x", [[1.0, 2.0, 3.0], [1.0]], np.array([np.zeros(3), np.zeros(2)], dtype=object), np.ones(3) * 1j],
    ids=["string", "ragged-list", "ragged-objects", "complex"],
)
def test_devectorize_refuses_a_non_numeric_vector(v):
    with pytest.raises(InvalidDimension, match="a coordinate vector is a real array"):
        il.devectorize(v, il.gell_mann_basis(2))


_HERMITIAN_CHECKED = {
    "c_numerical_radius": lambda A: il.c_numerical_radius(A, A),
    "c_numerical_range_sample": lambda A: il.c_numerical_range_sample(A, A, 3),
    "project_traceless": il.project_traceless,
    "verify_preserver_forms": lambda A: il.verify_preserver_forms(A, 3),
}


@pytest.mark.parametrize("call", _HERMITIAN_CHECKED.values(), ids=_HERMITIAN_CHECKED.keys())
@pytest.mark.parametrize(
    "A, error",
    [
        (np.zeros((0, 0)), InvalidDimension),
        (np.zeros((2, 0, 0)), InvalidDimension),
        (np.zeros((2, 3)), InvalidDimension),
        (np.zeros(3), InvalidDimension),
        (np.full((2, 2), np.nan), NotHermitian),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitian),
    ],
    ids=["empty", "empty-stack", "not-square", "vector", "nan", "not-hermitian"],
)
def test_the_hermitian_check_refuses_empty_and_non_square_inputs(call, A, error):
    """One check serves the projection and the C-numerical functions: shape
    first (an (n, n) matrix or (k, n, n) stack, n >= 1), then finiteness,
    then the defect."""
    with pytest.raises(error):
        call(A)


_ARRAY_ENTRY_POINTS = {
    "ad_matrix": il.ad_matrix,
    "so_adjoint_matrix": il.so_adjoint_matrix,
    "verify_sigma_normalizes": lambda X: il.verify_sigma_normalizes(X, 1, 0),
    "unitary_phase_distance": lambda X: il.unitary_phase_distance(X, np.eye(2)),
    "orthogonal_sign_distance": lambda X: il.orthogonal_sign_distance(np.eye(2), X),
    "vectorize": lambda X: il.vectorize(X, il.gell_mann_basis(2)),
    "youla_decompose": il.youla_decompose,
    "char_poly_skew": il.char_poly_skew,
}

_NON_NUMERIC_MATRICES = {
    "ragged-list": [[0.0, 1.0], [-1.0]],
    "string": np.array([["0", "1"], ["-1", "0"]]),
    "objects": np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=object),
}


@pytest.mark.parametrize("call", _ARRAY_ENTRY_POINTS.values(), ids=_ARRAY_ENTRY_POINTS.keys())
@pytest.mark.parametrize("X", _NON_NUMERIC_MATRICES.values(), ids=_NON_NUMERIC_MATRICES.keys())
def test_a_non_numeric_matrix_fails_closed(call, X):
    """The matrix inputs share the coordinate map's conversion rule: a
    ragged, string or object array is refused, not parsed."""
    with pytest.raises(InvalidDimension):
        call(X)
