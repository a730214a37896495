"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Every tolerance here is contractual; none are calibrated to
the implementation.
"""

import math
import time
from itertools import permutations

import numpy as np

import isomlab as il
from isomlab.cli import SuiteConfig, run_suite
from isomlab.errors import NotAdjointImage, NotInClassifiedForm


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_hermitian_dimension_dichotomy():
    ok = True
    details = []
    for n in (3, 4):
        for p in (1.5, 3.0, 2.0):
            d = n * n - 1
            expected = d * (d - 1) // 2 if p == 2.0 else d
            t0 = time.perf_counter()
            rep = il.isometry_algebra_dimension(il.schatten(p), n, seed=[1, n])
            dt = time.perf_counter() - t0
            good = (
                rep.estimated_dim == expected
                and rep.gap_ratio >= 1e6
                and dt <= 120.0
            )
            ok = ok and good
            details.append(f"n={n} p={p}: {rep.estimated_dim}/{expected} in {dt:.2f}s")
    report("1 dimension dichotomy", ok, "; ".join(details))
    assert ok


def test_02_n2_coincidence():
    dims = []
    for p in (1.5, 2.0, 3.0):
        rep = il.isometry_algebra_dimension(il.schatten(p), 2, seed=2)
        dims.append(rep.estimated_dim)
    ok = dims == [3, 3, 3]
    report("2 n=2 coincidence", ok, f"dims={dims}")
    assert ok


def test_03_canonical_round_trip():
    spec = il.schatten(3)
    successes, total = 0, 0
    worst_res, worst_err = 0.0, 0.0
    for n in (3, 4, 5):
        basis = il.gell_mann_basis(n)
        sigma = il.cartan_matrix(basis)
        for t in range(200):
            rng = np.random.default_rng([3, n, t])
            eta = 1 if rng.integers(2) else -1
            flag = bool(rng.integers(2))
            U = il.haar_unitary(n, [3, n, t, 1], special=True)
            B = il.random_element(il.HERMITIAN_TRACELESS, n, [3, n, t, 2])
            M = eta * il.ad_matrix(U, basis)
            if flag:
                M = M @ sigma
            dec = il.decompose_isometry(
                M, spec, offset=il.vectorize(B, basis), seed=[3, n, t]
            )
            err = il.unitary_phase_distance(U, dec.unitary)
            total += 1
            worst_res = max(worst_res, dec.residual)
            worst_err = max(worst_err, err)
            if (
                (dec.eta, dec.sigma_flag) == (eta, flag)
                and dec.residual < 1e-8
                and err < 1e-9
            ):
                successes += 1
    ok = successes == total == 600
    report(
        "3 canonical round trip",
        ok,
        f"{successes}/{total}, max residual {worst_res:.2e}, max unitary err {worst_err:.2e}",
    )
    assert ok


def test_04_frobenius_negative_control():
    n, d = 3, 8
    basis = il.gell_mann_basis(n)
    fro = il.frobenius()
    invariance_ok, rejected = 0, 0
    for t in range(100):
        M = il.haar_orthogonal(d, [4, t], special=True)
        dev = 0.0
        for i in range(20):
            A = il.random_element(il.HERMITIAN_TRACELESS, n, [4, t, i])
            moved = il.devectorize(M @ il.vectorize(A, basis), basis)
            base = il.norm_value(A, fro)
            dev = max(dev, abs(il.norm_value(moved, fro) - base) / base)
        if dev < 1e-10:
            invariance_ok += 1
        try:
            il.decompose_isometry(M, fro, seed=[4, t])
        except NotInClassifiedForm:
            rejected += 1
    ok = invariance_ok == 100 and rejected >= 99
    report(
        "4 negative control",
        ok,
        f"{invariance_ok}/100 verified isometries, {rejected}/100 rejected",
    )
    assert ok


def test_05_invariance_suite():
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 5):
        specs = [
            il.frobenius(),
            il.schatten(1.0),
            il.schatten(1.5),
            il.schatten(2.0),
            il.schatten(3.0),
            il.schatten(math.inf),
            il.ky_fan(1),
            il.ky_fan(n),
            il.frobenius(il.SKEW_REAL),
            il.schatten(3.0, il.SKEW_REAL),
            il.c_spectral(tuple(float(n // 2 - i) for i in range(n // 2))),
        ]
        for spec in specs:
            dev = il.check_invariance(spec, n, 100, [5, n])
            worst = max(worst, dev)
            count += 1
    sigma_worst = 0.0
    for n in (2, 3, 4, 5):
        for i in range(50):
            U = il.haar_unitary(n, [5, n, i], special=True)
            sigma_worst = max(sigma_worst, il.verify_sigma_normalizes(U, 1, [5, n, i, 1]))
    ok = worst < 1e-10 and sigma_worst < 1e-11
    report(
        "5 invariance suite",
        ok,
        f"{count} specs, max deviation {worst:.2e}, sigma identity {sigma_worst:.2e}",
    )
    assert ok


def test_06_skew_dimension_dichotomy():
    cases = [
        (il.c_spectral((2, 1)), 5, 10),
        (il.frobenius(il.SKEW_REAL), 5, 45),
        (il.c_spectral((1, 0)), 4, 6),
    ]
    ok = True
    details = []
    for spec, n, expected in cases:
        rep = il.skew_isometry_algebra_dimension(spec, n, seed=[6, n])
        good = rep.estimated_dim == expected and rep.gap_ratio >= 1e6
        ok = ok and good
        details.append(f"{spec.token()}/n={n}: {rep.estimated_dim}/{expected}")
    report("6 skew dichotomy", ok, "; ".join(details))
    assert ok


def test_07_psi_facts():
    worst_cp = 0.0
    for t in range(1000):
        A = il.random_element(il.SKEW_REAL, 4, [7, t])
        diff = np.max(np.abs(il.char_poly_skew(A) - il.char_poly_skew(il.psi_apply(A))))
        worst_cp = max(worst_cp, float(diff))
    psi = il.psi_matrix()
    worst_closure = 0.0
    for t in range(100):
        Q = il.haar_orthogonal(4, [7, 1000 + t], special=True)
        _, res = il.recover_orthogonal_from_adso(psi @ il.so_adjoint_matrix(Q) @ psi)
        worst_closure = max(worst_closure, res)
    reject_res = math.inf
    for M in (psi, -psi):
        try:
            il.recover_orthogonal_from_adso(M)
            reject_res = 0.0
        except NotAdjointImage as exc:
            reject_res = min(reject_res, exc.residual)
    ok = worst_cp < 1e-10 and worst_closure < 1e-8 and reject_res > 0.1
    report(
        "7 psi facts",
        ok,
        f"charpoly {worst_cp:.2e}, closure {worst_closure:.2e}, rejection residual {reject_res:.2f}",
    )
    assert ok


def test_08_skew_canonical_round_trip():
    spec = il.c_spectral((2, 1))
    psi = il.psi_matrix()
    successes, worst = 0, 0.0
    for t in range(200):
        rng = np.random.default_rng([8, t])
        sign = 1 if rng.integers(2) else -1
        flag = bool(rng.integers(2))
        Q = il.haar_orthogonal(4, [8, t, 1], special=True)
        M = sign * il.so_adjoint_matrix(Q)
        if flag:
            M = M @ psi
        dec = il.decompose_skew_isometry(M, spec, seed=[8, t])
        worst = max(worst, dec.residual)
        if (
            (dec.sign, dec.psi_flag) == (sign, flag)
            and dec.residual < 1e-8
            and il.orthogonal_sign_distance(Q, dec.orthogonal) < 1e-8
        ):
            successes += 1
    ok = successes == 200
    report("8 skew round trip", ok, f"{successes}/200, max residual {worst:.2e}")
    assert ok


def test_09_youla():
    worst_rec, worst_sv = 0.0, 0.0
    for n in (3, 4, 5, 6):
        for t in range(500):
            A = il.random_element(il.SKEW_REAL, n, [9, n, t])
            form = il.youla_decompose(A)
            worst_rec = max(worst_rec, form.residual / (1.0 + float(np.max(np.abs(A)))))
            sv = form.singular_values
            ref = np.linalg.svd(A, compute_uv=False)
            worst_sv = max(worst_sv, float(np.max(np.abs(sv - ref))))
    ok = worst_rec < 1e-10 and worst_sv < 1e-10
    report("9 youla", ok, f"reconstruction {worst_rec:.2e}, svd match {worst_sv:.2e}")
    assert ok


def test_10_c_numerical_quantities():
    rng = np.random.default_rng(10)
    a, c = 0.5 + rng.random(2)
    A2 = np.diag([a, -a]).astype(complex)
    C2 = np.diag([c, -c]).astype(complex)
    r2 = il.c_numerical_radius(A2, C2)
    analytic_ok = abs(r2 - 2 * a * c) < 1e-10

    bound_ok = True
    for t in range(10):
        A = il.random_element(il.HERMITIAN_TRACELESS, 3, [10, t, 0])
        C = il.random_element(il.HERMITIAN_TRACELESS, 3, [10, t, 1])
        lam_a, lam_c = np.linalg.eigvalsh(A), np.linalg.eigvalsh(C)
        perm = max(abs(float(lam_a @ lam_c[list(p)])) for p in permutations(range(3)))
        r = il.c_numerical_radius(A, C)
        bound_ok = bound_ok and r >= perm - 1e-9

    C = il.random_element(il.HERMITIAN_TRACELESS, 3, 1010)
    rep = il.verify_preserver_forms(C, trials=20, seed=1011)
    inv_dev = max(rep.radius_dev.values())
    ok = analytic_ok and bound_ok and inv_dev < 1e-10
    report(
        "10 c-numerical",
        ok,
        f"2ac err {abs(r2 - 2 * a * c):.2e}, perm bound {'held' if bound_ok else 'violated'}, "
        f"invariance {inv_dev:.2e}",
    )
    assert ok


def test_11_determinism():
    def run():
        cfg = SuiteConfig(
            suite="all", n_values=(2, 3), samples=3, seed=1234,
            norms=("schatten:3", "frobenius", "cspec:1"),
        )
        return run_suite(cfg)

    first = [r.as_dict() for r in run().records]
    second = [r.as_dict() for r in run().records]
    ok = first == second and len(first) > 0
    report("11 determinism", ok, f"{len(first)} records identical across reruns")
    assert ok
