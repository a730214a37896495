import math

import numpy as np
import numpy.testing as npt
import pytest

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
    for token in ("frobenius", "schatten:3", "kyfan:1", "cspec:2,1"):
        spec = il.parse_norm(token)
        assert spec.token() == token


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
            lhs = il.trace_inner(g, A, spec.space)
            rhs = il.norm_value(A, spec)
            assert abs(lhs - rhs) < 1e-6 * rhs


def test_n2_gradient_is_frobenius_scaled():
    A = il.random_element(il.HERMITIAN_TRACELESS, 2, 12)
    for spec in (il.schatten(1.0), il.schatten(math.inf), il.ky_fan(1)):
        g = il.norm_gradient(A, spec)
        lhs = il.trace_inner(g, A, il.HERMITIAN_TRACELESS)
        assert abs(lhs - il.norm_value(A, spec)) < 1e-10


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
    assert il.trace_inner(g, A, space) == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("spec", [il.frobenius(), il.schatten(3), il.schatten(1)])
def test_gradient_rejects_a_stack(spec):
    stack = il.random_element(il.HERMITIAN_TRACELESS, 3, 18, count=2)
    with pytest.raises(SpecMismatch):
        il.norm_gradient(stack, spec)
    with pytest.raises(SpecMismatch):
        il.norm_gradient(stack[:1], spec)
