"""Normal-form machinery against independent oracles (sympy)."""

import random
from math import prod

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form

from darmoncheck.intmat import hnf_mod, hnf_solve, hnf_solve_mod, matmul_mod, snf_mod


def _random_instance(rng):
    k = rng.randrange(1, 6)
    R = rng.randrange(1, 7)
    m = rng.choice([2, 3, 4, 6, 8, 12, 30, 90, 360, 97])
    A = np.array([[rng.randrange(-9, 10) for _ in range(k)] for _ in range(R)],
                 dtype=np.int64)
    return k, R, m, A


def _sympy_invariants(A, m, k):
    M = sympy.Matrix(A.tolist() + (m * np.eye(k, dtype=int)).astype(int).tolist())
    S = smith_normal_form(M)
    return [int(S[i, i]) for i in range(k)]


def test_snf_and_hnf_against_sympy():
    rng = random.Random(7)
    for _ in range(150):
        k, R, m, A = _random_instance(rng)
        d, V, W = snf_mod(A, m)
        assert _sympy_invariants(A, m, k) == list(d)
        H = hnf_mod(A, m)
        assert prod(int(H[i, i]) for i in range(k)) == prod(d)
        assert np.array_equal((V @ W) % m, np.eye(k, dtype=np.int64) % m)
        for i in range(1, k):
            assert d[i] % d[i - 1] == 0


def test_hnf_canonical_shape():
    rng = random.Random(8)
    for _ in range(100):
        k, R, m, A = _random_instance(rng)
        H = hnf_mod(A, m)
        for i in range(k):
            assert H[i, i] > 0 and m % int(H[i, i]) == 0
            for j in range(i):
                assert H[i, j] == 0
            for r in range(i):
                assert 0 <= H[r, i] < H[i, i] or H[i, i] == 1


def test_membership_consistency():
    rng = random.Random(9)
    for _ in range(120):
        k, R, m, A = _random_instance(rng)
        d, V, W = snf_mod(A, m)
        H = hnf_mod(A, m)
        for _ in range(15):
            x = np.array([rng.randrange(-40, 41) for _ in range(k)], dtype=np.int64)
            y = x @ V
            zero = all(int(y[i]) % d[i] == 0 for i in range(k))
            member = hnf_solve(H, x) is not None
            member_mod = hnf_solve_mod(H, x, m) is not None
            assert zero == member == member_mod


def test_modular_solve_agrees_mod_m(monkeypatch):
    rng = random.Random(10)
    outside_checked = 0
    for _ in range(120):
        k, R, m, A = _random_instance(rng)
        H = hnf_mod(A, m)
        # pick a genuine lattice vector
        coeffs = np.array([rng.randrange(-5, 6) for _ in range(k)], dtype=np.int64)
        v = coeffs @ H
        x = hnf_solve_mod(H, v, m)
        xe = hnf_solve(H, v)
        assert x is not None and xe is not None
        assert np.all((np.asarray(x) - np.asarray(xe)) % m == 0)
        # a matrix of right-hand sides solves to the stacked rows
        C = np.array([[rng.randrange(-5, 6) for _ in range(k)] for _ in range(4)],
                     dtype=np.int64)
        X = hnf_solve_mod(H, C @ H, m)
        assert np.array_equal(X, np.vstack([hnf_solve_mod(H, row, m) for row in C @ H]))
        # one row outside the lattice makes the whole batch None
        outside = np.eye(k, dtype=np.int64)[[int(np.argmax(np.diag(H)))]]
        if hnf_solve(H, outside[0]) is None:
            assert hnf_solve_mod(H, np.vstack([C @ H, outside]), m) is None
            outside_checked += 1
    assert outside_checked > 0

    # m * det(H) = 10007^3 >= 2^31: every row takes the exact solve
    from darmoncheck import intmat
    m = 10007
    H = hnf_mod(np.array([[1, 2, 3]], dtype=np.int64), m)
    assert m * prod(int(H[i, i]) for i in range(3)) >= 1 << 31
    exact = []
    real = intmat.hnf_solve

    def counting(H, v, as_python=False):
        exact.append(as_python)
        return real(H, v, as_python=as_python)

    monkeypatch.setattr(intmat, "hnf_solve", counting)
    C = np.array([[2, -3, 5], [7, 0, -1]], dtype=np.int64)
    X = hnf_solve_mod(H, C @ H, m)
    assert exact == [True, True]
    assert np.array_equal(X, C % m)
    assert np.array_equal(hnf_solve_mod(H, (C @ H)[1], m), C[1] % m)
    assert hnf_solve_mod(H, np.vstack([C @ H, [[0, 1, 0]]]), m) is None


def test_python_fallback_matches():
    H = np.array([[2, 1, 0], [0, 3, 5], [0, 0, 7]], dtype=np.int64)
    v = np.array([4, 5, 19], dtype=np.int64)  # 2*r0 + r1 + 2*r2
    a = hnf_solve(H, v)
    b = hnf_solve(H, v, as_python=True)
    assert a is not None and list(a) == list(b) == [2, 1, 2]
    assert hnf_solve(H, np.array([4, 5, 17], dtype=np.int64)) is None


def test_matmul_mod_is_exact_on_both_paths():
    # m = 2^31 - 1 puts k * (m - 1)^2 past int64 for k >= 3: Python integers
    rng = random.Random(11)
    for m, k in ((97, 4), (2 ** 20, 6), (2 ** 31 - 1, 2), (2 ** 31 - 1, 5)):
        A = np.array([[rng.randrange(-3 * m, 3 * m) for _ in range(k)] for _ in range(3)],
                     dtype=np.int64)
        B = np.array([[rng.randrange(-m, m) for _ in range(4)] for _ in range(k)],
                     dtype=np.int64)
        want = [[sum(int(A[i, t]) * int(B[t, j]) for t in range(k)) % m for j in range(4)]
                for i in range(3)]
        assert matmul_mod(A, B, m).tolist() == want, (m, k)
        assert matmul_mod(A[0], B, m).tolist() == want[0], (m, k)
