import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isomlab as il
from isomlab.errors import DegeneratePoint, InvalidNormSpec, SpecMismatch


def two_block_skew(a1, a2):
    K = np.zeros((4, 4))
    K[0, 1], K[1, 0] = a1, -a1
    K[2, 3], K[3, 2] = a2, -a2
    return K


def test_schatten_values_on_diag():
    A = np.diag([1.0, -1.0]).astype(complex)
    assert il.norm_value(A, il.schatten(1)) == pytest.approx(2.0)
    assert il.norm_value(A, il.schatten(2)) == pytest.approx(np.sqrt(2.0))
    assert il.norm_value(A, il.schatten(math.inf)) == pytest.approx(1.0)
    B = np.diag([2.0, -1.0, -1.0]).astype(complex)
    assert il.norm_value(B, il.schatten(math.inf)) == pytest.approx(2.0)


def test_ky_fan_values():
    B = np.diag([2.0, -1.0, -1.0]).astype(complex)
    assert il.norm_value(B, il.ky_fan(1)) == pytest.approx(2.0)
    assert il.norm_value(B, il.ky_fan(2)) == pytest.approx(3.0)
    assert il.norm_value(B, il.ky_fan(3)) == pytest.approx(4.0)


def test_c_spectral_block_example():
    # blocks with parameters (3, 1) and weights (2, 1) give 2*3 + 1*1
    K = two_block_skew(3.0, 1.0)
    assert il.norm_value(K, il.c_spectral((2, 1))) == pytest.approx(7.0)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidNormSpec):
        il.schatten(0.5)
    with pytest.raises(InvalidNormSpec):
        il.ky_fan(0)
    with pytest.raises(InvalidNormSpec):
        il.c_spectral((1.0, 2.0))  # increasing
    with pytest.raises(InvalidNormSpec):
        il.c_spectral((0.0, 0.0))
    with pytest.raises(InvalidNormSpec):
        il.norm_value(np.diag([1.0, -1.0]).astype(complex), il.ky_fan(3))
    with pytest.raises(InvalidNormSpec):
        il.norm_value(two_block_skew(2.0, 1.0), il.c_spectral((1.0,)))
    # arguments that are not numbers, once bare ValueError / TypeError
    for make in (
        lambda: il.schatten("x"),
        lambda: il.schatten(None),
        lambda: il.c_spectral([1, "x"]),
        lambda: il.c_spectral(None),
    ):
        with pytest.raises(InvalidNormSpec, match="needs a"):
            make()


def test_space_mismatch_rejected():
    skew = two_block_skew(1.0, 0.5)
    with pytest.raises(SpecMismatch):
        il.norm_value(skew, il.schatten(2))  # hermitian spec, skew argument
    herm = il.random_element(il.HERMITIAN_TRACELESS, 4, 0)
    with pytest.raises(SpecMismatch):
        il.norm_value(herm, il.frobenius(il.SKEW_REAL))


def test_parse_norm_grammar():
    assert il.parse_norm("frobenius").family == "frobenius"
    assert il.parse_norm("schatten:1.5").p == 1.5
    assert math.isinf(il.parse_norm("schatten:inf").p)
    assert il.parse_norm("kyfan:2").k == 2
    assert il.parse_norm("cspec:2,1").c == (2.0, 1.0)
    assert il.parse_norm("cspec:2,1").space == il.SKEW_REAL
    with pytest.raises(InvalidNormSpec):
        il.parse_norm("nuclear")
    with pytest.raises(InvalidNormSpec):
        il.parse_norm("schatten:zero")
    with pytest.raises(InvalidNormSpec, match=r"got \['1', 'x'\]"):
        il.parse_norm("cspec:1,x")
    for token in ("frobenius", "schatten:3", "kyfan:1", "cspec:2,1"):
        spec = il.parse_norm(token)
        assert spec.token() == token
    for token in ("frobenius:3", "frobenius:"):
        with pytest.raises(InvalidNormSpec, match="takes no argument"):
            il.parse_norm(token)


@pytest.mark.parametrize(
    "spec",
    [
        il.schatten(3),
        il.schatten(1.5),
        il.schatten(math.inf),
        il.schatten(3.0000001),
        il.schatten(1 + 2**-52),
        il.schatten(1234567.0, il.SKEW_REAL),
        il.ky_fan(2),
        il.c_spectral((2.0, 1.0)),
        il.c_spectral((1.0000001, 0.1, 1e-300)),
    ],
    ids=lambda spec: spec.token(),
)
def test_token_is_the_inverse_of_parse_norm(spec):
    assert il.parse_norm(spec.token(), spec.space) == spec


def test_token_is_short_where_short_reads_back():
    assert il.schatten(3.0000001).token() == "schatten:3.0000001"
    assert il.schatten(3).token() == "schatten:3"
    assert il.c_spectral((0.1, 0.0)).token() == "cspec:0.1,0"
    assert il.schatten(1e300).token() == "schatten:1e+300"


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
def test_ky_fan_refuses_a_non_integer_k(k):
    with pytest.raises(InvalidNormSpec, match="integer k"):
        il.ky_fan(k)


def test_ky_fan_takes_any_integer_type():
    assert il.ky_fan(np.int64(2)) == il.ky_fan(2)
    assert il.parse_norm("kyfan:2") == il.ky_fan(2)
    with pytest.raises(InvalidNormSpec):
        il.parse_norm("kyfan:2.5")


def herm_specs(n):
    return [
        il.frobenius(),
        il.schatten(1.0),
        il.schatten(1.5),
        il.schatten(2.0),
        il.schatten(3.0),
        il.schatten(math.inf),
        il.ky_fan(1),
        il.ky_fan(n),
    ]


def skew_specs(n):
    half = n // 2
    return [
        il.frobenius(il.SKEW_REAL),
        il.schatten(3.0, il.SKEW_REAL),
        il.c_spectral(tuple(float(half - i) for i in range(half))),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_homogeneity_and_triangle(n):
    rng = np.random.default_rng(n)
    for spec in herm_specs(n) + skew_specs(n):
        for trial in range(5):
            A = il.random_element(spec.space, n, [1, n, trial])
            B = il.random_element(spec.space, n, [2, n, trial])
            t = float(rng.standard_normal())
            na, nb = il.norm_value(A, spec), il.norm_value(B, spec)
            assert il.norm_value(t * A, spec) == pytest.approx(abs(t) * na, abs=1e-12, rel=1e-12)
            assert il.norm_value(A + B, spec) <= na + nb + 1e-12


def test_schatten_monotone_in_p():
    A = il.random_element(il.HERMITIAN_TRACELESS, 4, 3)
    grid = [1.0, 1.5, 2.0, 3.0, 5.0, math.inf]
    vals = [il.norm_value(A, il.schatten(p)) for p in grid]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12


def test_norm_zero_iff_zero():
    for spec in herm_specs(3) + skew_specs(4):
        n = 3 if spec.space == il.HERMITIAN_TRACELESS else 4
        zero = np.zeros((n, n), dtype=complex if spec.space == il.HERMITIAN_TRACELESS else float)
        assert il.norm_value(zero, spec) == 0.0
        A = il.random_element(spec.space, n, 5)
        assert il.norm_value(A, spec) > 0


def test_frobenius_gradient_exact():
    A = il.random_element(il.HERMITIAN_TRACELESS, 3, 7)
    npt.assert_allclose(il.norm_gradient(A, il.frobenius()), A / np.linalg.norm(A), atol=1e-14)


def test_schatten2_gradient_matches_frobenius():
    A = il.random_element(il.HERMITIAN_TRACELESS, 4, 8)
    g2 = il.norm_gradient(A, il.schatten(2))
    gf = il.norm_gradient(A, il.frobenius())
    assert np.max(np.abs(g2 - gf)) < 1e-10


def fd_oracle(A, spec, basis, h=1e-6):
    """Independent central-difference gradient used only by the tests."""
    coords = np.array(
        [
            (il.norm_value(A + h * B, spec) - il.norm_value(A - h * B, spec)) / (2 * h)
            for B in basis.mats
        ]
    )
    return il.devectorize(coords, basis)


def test_schatten3_gradient_vs_finite_differences():
    basis = il.gell_mann_basis(3)
    for seed in range(5):
        A = il.random_element(il.HERMITIAN_TRACELESS, 3, [9, seed])
        g = il.norm_gradient(A, il.schatten(3))
        ref = fd_oracle(A, il.schatten(3), basis)
        assert np.max(np.abs(g - ref)) / np.max(np.abs(ref)) < 1e-5


def test_skew_schatten_gradient_vs_finite_differences():
    basis = il.skew_basis(5)
    spec = il.schatten(3.0, il.SKEW_REAL)
    for seed in range(3):
        A = il.random_element(il.SKEW_REAL, 5, [10, seed])
        g = il.norm_gradient(A, spec)
        ref = fd_oracle(A, spec, basis)
        assert np.max(np.abs(g - ref)) / np.max(np.abs(ref)) < 1e-5


@pytest.mark.parametrize("n", [3, 4, 5])
def test_euler_identity_at_smooth_points(n):
    for spec in herm_specs(n) + skew_specs(n):
        for seed in range(3):
            A = il.random_element(spec.space, n, [11, n, seed])
            g = il.norm_gradient(A, spec)
            lhs = np.vdot(g, A).real
            rhs = il.norm_value(A, spec)
            assert abs(lhs - rhs) < 1e-6 * rhs


def test_n2_gradient_is_frobenius_scaled():
    # 2 x 2 traceless eigenvalues form a +-lambda pair, so every invariant
    # norm N is a Frobenius multiple and its gradient is A N(A) / |A|_F^2
    for seed in range(5):
        A = il.random_element(il.HERMITIAN_TRACELESS, 2, [12, seed])
        for spec in herm_specs(2):
            expected = A * il.norm_value(A, spec) / np.linalg.norm(A) ** 2
            g = il.norm_gradient(A, spec)
            assert np.max(np.abs(g - expected)) <= 1e-14 * np.max(np.abs(expected)), spec.token()


def test_gradient_degenerate_points():
    with pytest.raises(DegeneratePoint):
        il.norm_gradient(np.zeros((3, 3), dtype=complex), il.frobenius())
    # tied top moduli make the sup norm nonsmooth
    A = np.diag([1.0, 1.0, -2.0]).astype(complex)
    A = A - np.trace(A) / 3 * np.eye(3)
    with pytest.raises(DegeneratePoint):
        il.norm_gradient(np.diag([1.0, -1.0, 0.0]).astype(complex), il.schatten(math.inf))
    with pytest.raises(DegeneratePoint):
        il.norm_gradient(two_block_skew(1.0, 1.0), il.c_spectral((2, 1)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_check_invariance_all_specs(n):
    for spec in herm_specs(n) + skew_specs(n):
        dev = il.check_invariance(spec, n, 100, [13, n])
        assert dev < 1e-10, (spec, dev)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_norm_value_matches_member_loop(n):
    for spec in herm_specs(n) + skew_specs(n):
        for k in (1, 7):
            stack = il.random_element(spec.space, n, [14, n, k], count=k)
            stack[0] *= 1e-3
            values = il.norm_value(stack, spec)
            assert isinstance(values, np.ndarray) and values.shape == (k,)
            loop = np.array([il.norm_value(A, spec) for A in stack])
            assert all(isinstance(il.norm_value(A, spec), float) for A in stack)
            npt.assert_allclose(values, loop, rtol=1e-15, atol=0, err_msg=spec.token())


def test_stack_with_one_non_member_raises():
    herm = il.random_element(il.HERMITIAN_TRACELESS, 3, 15, count=5)
    herm[2, 0, 1] += 1e-6
    with pytest.raises(SpecMismatch):
        il.norm_value(herm, il.schatten(3))
    skew = il.random_element(il.SKEW_REAL, 4, 15, count=5)
    skew[4, 0, 1] += 1e-6
    with pytest.raises(SpecMismatch):
        il.norm_value(skew, il.c_spectral((2, 1)))
    # each member has its own tolerance: a defect that a large member's
    # scale would excuse still fails a small member
    mixed = il.random_element(il.HERMITIAN_TRACELESS, 3, 16, count=2)
    mixed[0] *= 1e6
    mixed[1, 0, 1] += 1e-8
    with pytest.raises(SpecMismatch):
        il.norm_value(mixed, il.frobenius())
    with pytest.raises(SpecMismatch):
        il.norm_value(np.zeros((2, 2, 3, 3)), il.frobenius())


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("p,scale", [(400.0, 10.0), (200.0, 1e-3), (1e6, 1e150), (1.5, 1e-150)])
def test_schatten_extreme_powers_and_scales(space, p, scale):
    spec = il.schatten(p, space)
    A = scale * il.random_element(space, 4, [17, int(p)])
    value = il.norm_value(A, spec)
    s = np.linalg.svd(A, compute_uv=False)
    expected = s[0] * np.sum((s / s[0]) ** p) ** (1.0 / p)
    assert np.isfinite(value) and value > 0
    assert value == pytest.approx(expected, rel=1e-12)
    g = il.norm_gradient(A, spec)
    assert np.all(np.isfinite(g))
    assert np.vdot(g, A).real == pytest.approx(value, rel=1e-10)


def nonsmooth_specs(space, n):
    """Every family whose gradient needs a spectrally generic point."""
    specs = [il.schatten(1.0, space), il.schatten(math.inf, space)]
    specs += [il.ky_fan(k, space) for k in range(1, n + 1)]
    if space == il.SKEW_REAL:
        half = n // 2
        specs.append(il.c_spectral(tuple(float(half - i) for i in range(half))))
        specs.append(il.c_spectral((1.0,) + (0.0,) * (half - 1)))
    return specs


@pytest.mark.parametrize(
    "n, space",
    [(n, space) for n in (3, 4, 5, 6) for space in (il.HERMITIAN_TRACELESS, il.SKEW_REAL)]
    + [(2, il.HERMITIAN_TRACELESS)],
)
def test_closed_form_gradients_match_finite_differences(n, space):
    # on the skew space an odd Ky Fan k splits a singular pair
    basis = il.basis_for(space, n)
    for spec in nonsmooth_specs(space, n):
        for seed in range(2):
            A = il.random_element(space, n, [19, n, seed])
            g = il.norm_gradient(A, spec)
            ref = fd_oracle(A, spec, basis)
            assert np.max(np.abs(g - ref)) / np.max(np.abs(ref)) < 1e-6, spec.token()


@pytest.mark.parametrize("n", range(3, 9))
def test_skew_norm_values_match_an_svd_oracle(n):
    """norms has no SVD: A's singular values, computed here, are an
    independent oracle for every skew family, alone and in a stack."""
    stack = il.random_element(il.SKEW_REAL, n, [24, n], count=6)
    s = np.linalg.svd(stack, compute_uv=False)
    c = np.arange(n // 2, 0, -1.0)
    cases = [
        (il.frobenius(il.SKEW_REAL), np.sqrt((s**2).sum(axis=-1))),
        (il.schatten(1.0, il.SKEW_REAL), s.sum(axis=-1)),
        (il.schatten(3.0, il.SKEW_REAL), ((s**3).sum(axis=-1)) ** (1 / 3)),
        (il.schatten(math.inf, il.SKEW_REAL), s[:, 0]),
        (il.c_spectral(c), s[:, ::2][:, : n // 2] @ c),  # a_i is a doubled singular value
    ]
    cases += [(il.ky_fan(k, il.SKEW_REAL), s[:, :k].sum(axis=-1)) for k in range(1, n + 1)]
    for spec, expected in cases:
        npt.assert_allclose(il.norm_value(stack, spec), expected, rtol=1e-13, err_msg=spec.token())
        for A, value in zip(stack, expected):
            assert il.norm_value(A, spec) == pytest.approx(value, rel=1e-13), spec.token()


def test_norms_calls_no_svd():
    """Both spaces take one eigh route, through A or iA (the SVD oracle
    lives in the tests)."""
    import ast
    import isomlab.norms as norms

    tree = ast.parse(open(norms.__file__).read())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "svd" not in names


@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e5, 1e150])
def test_frobenius_value_is_numpys_bit_for_bit(space, scale):
    stack = scale * il.random_element(space, 5, 25, count=20)
    expected = [np.linalg.norm(A) for A in stack]
    assert il.norm_value(stack, il.frobenius(space)).tolist() == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
@pytest.mark.parametrize("n", [3, 4])
def test_every_family_at_extreme_scales(space, scale, n):
    """No square over- or underflows: the value scales with A and the
    gradient does not move (warnings are errors here)."""
    A = il.random_element(space, n, [26, n])
    specs = [il.frobenius(space), il.schatten(1.5, space), il.schatten(3.0, space)]
    for spec in specs + nonsmooth_specs(space, n):
        value = il.norm_value(scale * A, spec)
        assert value == pytest.approx(scale * il.norm_value(A, spec), rel=1e-12), spec.token()
        g, g_scaled = il.norm_gradient(A, spec), il.norm_gradient(scale * A, spec)
        assert np.max(np.abs(g_scaled - g)) <= 1e-12 * np.max(np.abs(g)), spec.token()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", [il.HERMITIAN_TRACELESS, il.SKEW_REAL])
@pytest.mark.parametrize("n", [3, 4])
def test_gradient_is_exactly_invariant_under_powers_of_two(space, n):
    """The gradient is homogeneous of degree 0 and taken at an exactly
    rescaled point, so 2^k A gets the bits of A (warnings are errors
    here)."""
    A = il.random_element(space, n, [27, n])
    specs = [il.frobenius(space), il.schatten(1.5, space), il.schatten(3.0, space)]
    for spec in specs + nonsmooth_specs(space, n):
        g = il.norm_gradient(A, spec)
        for k in (-1000, -1, 1, 1000):
            scaled = A * 2.0**k
            assert np.array_equal(scaled * 2.0**-k, A)  # no entry lost bits
            npt.assert_array_equal(il.norm_gradient(scaled, spec), g, err_msg=f"{spec.token()} k={k}")


@pytest.mark.filterwarnings("error")
def test_gradient_of_a_member_whose_frobenius_norm_overflows():
    """A finite member has a gradient even where its Frobenius norm leaves
    the double range (warnings are errors here)."""
    A = np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
    assert il.norm_value(A, il.schatten(math.inf, il.SKEW_REAL)) == 1.5e308
    g = il.norm_gradient(A, il.schatten(math.inf, il.SKEW_REAL))
    npt.assert_allclose(g, [[0.0, 0.5], [-0.5, 0.0]], rtol=1e-15, atol=0.0)
    g = il.norm_gradient(A, il.frobenius(il.SKEW_REAL))
    npt.assert_allclose(g, [[0.0, 0.5**0.5], [-(0.5**0.5), 0.0]], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_norm_gradient_matches_member_loop(n):
    specs = herm_specs(n) + skew_specs(n) + nonsmooth_specs(il.SKEW_REAL, n)[:3]
    for spec in specs:
        for k in (1, 7):
            stack = il.random_element(spec.space, n, [20, n, k], count=k)
            stack[0] *= 1e-3
            G = il.norm_gradient(stack, spec)
            assert G.shape == stack.shape
            loop = np.array([il.norm_gradient(A, spec) for A in stack])
            assert np.max(np.abs(G - loop)) <= 1e-15, spec.token()


def test_frobenius_gradient_stack_uses_each_members_norm():
    stack = il.random_element(il.HERMITIAN_TRACELESS, 3, 21, count=3)
    stack[1] *= 100.0
    G = il.norm_gradient(stack, il.frobenius())
    for A, g in zip(stack, G):
        npt.assert_allclose(g, A / np.linalg.norm(A), rtol=0, atol=1e-15)
        assert np.vdot(g, A).real == pytest.approx(np.linalg.norm(A))


@pytest.mark.parametrize("spec", [il.frobenius(), il.schatten(3), il.schatten(1)])
def test_gradient_stack_with_one_non_member_raises(spec):
    stack = il.random_element(il.HERMITIAN_TRACELESS, 3, 18, count=4)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(SpecMismatch):
        il.norm_gradient(stack, spec)
    with pytest.raises(SpecMismatch):
        il.norm_gradient(np.zeros((2, 2, 3, 3), dtype=complex), spec)


def test_gradient_stack_names_its_degenerate_members():
    herm = il.random_element(il.HERMITIAN_TRACELESS, 3, 22, count=5)
    herm[3] = np.diag([1.0, -1.0, 0.0])  # tied top moduli and a zero eigenvalue
    for spec in (il.schatten(1.0), il.schatten(math.inf), il.ky_fan(2)):
        with pytest.raises(DegeneratePoint) as info:
            il.norm_gradient(herm, spec)
        assert info.value.members == (3,)
    il.norm_gradient(herm, il.schatten(3))  # smooth: no genericity needed
    herm[1] = 0.0
    with pytest.raises(DegeneratePoint) as info:
        il.norm_gradient(herm, il.frobenius())
    assert info.value.members == (1,)
    skew = il.random_element(il.SKEW_REAL, 4, 22, count=4)
    skew[0] = two_block_skew(1.0, 1.0)
    skew[2] = two_block_skew(2.0, 0.0)
    with pytest.raises(DegeneratePoint) as info:
        il.norm_gradient(skew, il.c_spectral((2, 1)))
    assert info.value.members == (0, 2)
    with pytest.raises(DegeneratePoint) as info:
        il.norm_gradient(skew[0], il.c_spectral((2, 1)))
    assert info.value.members == (0,)


def test_check_invariance_is_two_stacked_evaluations_of_the_trial_loop(monkeypatch):
    import isomlab.norms as norms

    shapes = []
    real = norms.norm_value

    def counted(A, spec):
        shapes.append(np.shape(A))
        return real(A, spec)

    for spec, haar in ((il.schatten(1.0), il.haar_unitary), (il.c_spectral((2, 1)), il.haar_orthogonal)):
        # the same draws as check_invariance: one generator, A's then U's
        rng = np.random.default_rng([23, 4])
        stack_a = il.random_element(spec.space, 4, rng, count=9)
        stack_u = haar(4, rng, count=9)
        worst = 0.0
        for A, U in zip(stack_a, stack_u):
            base = real(A, spec)
            worst = max(worst, abs(real(U @ A @ U.conj().T, spec) - base) / base)
        monkeypatch.setattr(norms, "norm_value", counted)
        assert il.check_invariance(spec, 4, 9, [23, 4]) == worst
        monkeypatch.setattr(norms, "norm_value", real)
        assert shapes == [(9, 4, 4), (9, 4, 4)]
        shapes.clear()


@settings(max_examples=80)
@given(
    space=st.sampled_from([il.HERMITIAN_TRACELESS, il.SKEW_REAL]),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    log10_scale=st.floats(-150.0, 150.0),
    p=st.one_of(st.just(1.0), st.just(1e6), st.floats(1.0, 1e6)),
)
def test_gradient_euler_identity_and_degree_zero_homogeneity(space, n, seed, log10_scale, p):
    spec = il.schatten(p, space)
    A = il.random_element(space, n, seed)
    scaled = 10.0**log10_scale * A
    g = il.norm_gradient(A, spec)
    g_scaled = il.norm_gradient(scaled, spec)
    assert np.all(np.isfinite(g_scaled))
    assert np.vdot(g_scaled, scaled).real == pytest.approx(
        il.norm_value(scaled, spec), rel=1e-10
    )
    assert np.max(np.abs(g_scaled - g)) <= 1e-9 * np.max(np.abs(g))


@st.composite
def norm_cases(draw):
    """A norm of any family on either space, with an ambient size that fits
    it: (spec, n)."""
    space = draw(st.sampled_from([il.HERMITIAN_TRACELESS, il.SKEW_REAL]))
    n = draw(st.integers(2, 6))
    families = ["frobenius", "schatten", "kyfan"] + (["cspec"] if space == il.SKEW_REAL else [])
    family = draw(st.sampled_from(families))
    if family == "frobenius":
        return il.frobenius(space), n
    if family == "schatten":
        p = draw(st.one_of(st.just(1.0), st.just(2.0), st.just(math.inf), st.floats(1.0, 1e6)))
        return il.schatten(p, space), n
    if family == "kyfan":
        return il.ky_fan(draw(st.integers(1, n)), space), n
    weights = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    c = sorted(draw(st.lists(weights, min_size=n // 2, max_size=n // 2)), reverse=True)
    c[0] = max(c[0], 1.0)
    return il.c_spectral(c), n


log10_scales = st.floats(-150.0, 150.0)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=150)
@given(case=norm_cases(), seed=seeds, log10_scale=log10_scales, negative=st.booleans())
def test_norm_value_absolute_homogeneity(case, seed, log10_scale, negative):
    spec, n = case
    A = il.random_element(spec.space, n, seed)
    c = (-1.0 if negative else 1.0) * 10.0**log10_scale
    value = il.norm_value(c * A, spec)
    assert math.isfinite(value) and value > 0.0
    assert value == pytest.approx(abs(c) * il.norm_value(A, spec), rel=1e-12)


def commuting_pair(space, n, seed):
    """Two elements diagonal in one random frame: U diag(x) U* on the
    Hermitian space, Q K(x) Q^T with 2 x 2 blocks K on the skew space.
    Their norms are the gauge function at x, where a norm that is not
    convex breaks the triangle inequality most often."""
    x = np.random.default_rng([seed, 0]).standard_normal((2, n))
    if space == il.HERMITIAN_TRACELESS:
        U = il.haar_unitary(n, [seed, 1])
        x -= x.mean(axis=1, keepdims=True)
        return [U @ np.diag(v) @ U.conj().T for v in x]
    Q = il.haar_orthogonal(n, [seed, 1])
    pairs = np.arange(n // 2)
    out = []
    for v in x:
        K = np.zeros((n, n))
        K[2 * pairs, 2 * pairs + 1] = v[: n // 2]
        out.append(Q @ (K - K.T) @ Q.T)
    return out


@settings(max_examples=200)
@given(
    case=norm_cases(),
    seed=seeds,
    log10_scales=st.tuples(log10_scales, log10_scales),
    frame=st.sampled_from(["independent", "shared", "parallel"]),
)
def test_norm_value_triangle_inequality(case, seed, log10_scales, frame):
    spec, n = case
    if frame == "shared":
        A, B = commuting_pair(spec.space, n, seed)
    else:
        A, B = il.random_element(spec.space, n, seed, count=2)
    if frame == "parallel":  # the equality case
        B = A / np.max(np.abs(A))
    A = 10.0 ** log10_scales[0] * A
    B = 10.0 ** log10_scales[1] * B
    total = il.norm_value(A, spec) + il.norm_value(B, spec)
    assert il.norm_value(A + B, spec) <= total * (1.0 + 1e-12)


@settings(max_examples=150)
@given(case=norm_cases(), seed=seeds, log10_scale=log10_scales)
def test_norm_value_invariant_under_the_adjoint_group(case, seed, log10_scale):
    """U A U* with U unitary on the Hermitian space, Q A Q^T with Q
    orthogonal on the skew space."""
    spec, n = case
    A = 10.0**log10_scale * il.random_element(spec.space, n, [seed, 0])
    if spec.space == il.HERMITIAN_TRACELESS:
        U = il.haar_unitary(n, [seed, 1])
    else:
        U = il.haar_orthogonal(n, [seed, 1])
    moved = U @ A @ U.conj().T
    assert il.norm_value(moved, spec) == pytest.approx(il.norm_value(A, spec), rel=1e-12)


@pytest.mark.parametrize("token", [None, 3, 3.0, b"frobenius", ("schatten", 3)])
def test_parse_norm_refuses_a_token_that_is_not_a_string(token):
    with pytest.raises(InvalidNormSpec, match="a norm token is a string"):
        il.parse_norm(token)
