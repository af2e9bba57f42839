import random

import numpy as np
import pytest

from darmoncheck import nt


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(1, 50):
        assert nt.is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert nt.is_prime(10 ** 9 + 7)
    assert not nt.is_prime(10 ** 9 + 8)
    assert nt.is_prime(18811) is False  # 13 * 1447


def test_factorize_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 6)
        f = nt.factorize(n)
        m = 1
        for p, e in f.items():
            assert nt.is_prime(p)
            m *= p ** e
        assert m == n


def test_kronecker_vs_euler_criterion():
    rng = random.Random(1)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 101, 997])
        a = rng.randrange(-50, 50)
        ls = pow(a % p, (p - 1) // 2, p) if a % p else 0
        expected = {0: 0, 1: 1, p - 1: -1}[ls]
        assert nt.kronecker(a, p) == expected


def test_kronecker_multiplicativity():
    rng = random.Random(2)
    for _ in range(200):
        a, m, n = rng.randrange(-30, 30), rng.randrange(1, 40), rng.randrange(1, 40)
        assert nt.kronecker(a, m * n) == nt.kronecker(a, m) * nt.kronecker(a, n)


def test_kronecker_two():
    # (2/n) for odd n follows the mod-8 rule
    for n in range(1, 100, 2):
        expected = 1 if n % 8 in (1, 7) else -1
        assert nt.kronecker(2, n) == expected


def test_primitive_root_orders():
    for p in (3, 5, 7, 11, 13, 101, 197):
        g = nt.primitive_root(p)
        assert nt.multiplicative_order(g, p) == p - 1
        # minimality
        for h in range(2, g):
            assert nt.multiplicative_order(h, p) != p - 1


def test_sqrt_mod_prime():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13, 17, 101, 997, 65537])
        x = rng.randrange(p)
        a = x * x % p
        r = nt.sqrt_mod_prime(a, p)
        assert r * r % p == a
    with pytest.raises(ValueError):
        nt.sqrt_mod_prime(2, 5)


def test_crt():
    assert nt.crt([2, 3], [3, 5]) == 8
    assert nt.crt([1, 1, 1], [2, 3, 5]) == 1
    with pytest.raises(ValueError):
        nt.crt([0, 0], [4, 6])


def test_divisors():
    assert nt.divisors(1) == [1]
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert nt.divisors(209) == [1, 11, 19, 209]


def test_discrete_log():
    rng = random.Random(4)
    for _ in range(50):
        p = rng.choice([11, 101, 997, 3301])
        g = nt.primitive_root(p)
        x = rng.randrange(p - 1)
        h = pow(g, x, p)
        assert int(nt.discrete_logs([[h]], [g], [p], [p - 1])[0, 0]) == x


def test_discrete_logs_batch():
    # every nonzero residue in one batch: the least exponent, checked by pow
    for p in (2, 3, 5, 11, 101, 3301, 65537):
        g = nt.primitive_root(p)
        (logs,) = nt.discrete_logs([range(1, p)], [g], [p], [p - 1]).tolist()
        assert all(pow(g, x, p) == h for h, x in zip(range(1, p), logs)), p
        assert all(0 <= x < p - 1 for x in logs)
        assert [int(nt.discrete_logs([[h]], [g], [p], [p - 1])[0, 0])
                for h in range(1, p, 97)] == logs[::97]
    assert nt.discrete_logs([[]], [2], [11], [10]).tolist() == [[]]
    # repeated queries and an element of a proper subgroup (order 5 mod 11)
    assert nt.discrete_logs([[3, 4, 3, 1]], [4], [11], [5]).tolist() == [[4, 1, 4, 0]]
    # with a multiple of the order the least solution still comes back
    assert nt.discrete_logs([[3, 5, 1]], [4], [11], [10]).tolist() == [[4, 2, 0]]
    with pytest.raises(ValueError):
        nt.discrete_logs([[1, 0]], [2], [11], [10])
    with pytest.raises(ValueError):
        nt.discrete_logs([[2]], [4], [11], [5])  # 2 is not a power of 4
    # arrays, int64 or of Python integers, give the logs of the same list;
    # at p = 4294967311 the arithmetic runs on Python integers
    big = 4294967311
    g10 = pow(nt.primitive_root(big), (big - 1) // 10, big)
    for hs, g, p, order in (([3, 4, 3, 1], 4, 11, 5),
                            ([5, 3300, 1, 17, 3306], nt.primitive_root(3301), 3301, 3300),
                            ([g10, 1, pow(g10, 7, big) + big], g10, big, 10)):
        (expect,) = nt.discrete_logs([hs], [g], [p], [order]).tolist()
        for dtype in (np.int64, object):
            logs = nt.discrete_logs(np.array([hs], dtype=dtype), [g], [p], [order])
            assert logs.dtype == nt.int_dtype(p) and logs.tolist() == [expect], (p, dtype)
    assert expect == [1, 0, 7]
    for dtype in (np.int64, object):
        empty = np.zeros((1, 0), dtype=dtype)
        assert nt.discrete_logs(empty, [2], [11], [10]).tolist() == [[]]
        with pytest.raises(ValueError):
            nt.discrete_logs(np.array([[1, 0]], dtype=dtype), [2], [11], [10])
        with pytest.raises(ValueError):
            nt.discrete_logs(np.array([[2]], dtype=dtype), [4], [11], [5])


def _brute_logs(g, p, order):
    # every power of g mod p with its least exponent
    out, x = {}, 1
    for e in range(order):
        out.setdefault(x, e)
        x = x * g % p
    return out


def _subgroup_row(p, order):
    # a generator of the subgroup of order `order` mod p
    return pow(nt.primitive_root(p), (p - 1) // order, p), p, order


def test_discrete_logs_row_per_modulus():
    # one batch over rows of mixed orders: an odd M | q - 1, all of an even
    # q - 1, M = 1, and a q above the int64 guard (Python integers for the
    # whole batch); each row against a brute-force table of its own
    big = 4294967311
    rows = [_subgroup_row(331, 5), _subgroup_row(661, 660), _subgroup_row(881, 1),
            _subgroup_row(big, 10)]
    assert big * big >= 1 << 63 and nt.int_dtype(big) is object
    rng = random.Random(12)
    hs = [[pow(g, rng.randrange(order), p) + rng.randrange(3) * p for _ in range(30)]
          for g, p, order in rows]
    gs, ps, orders = zip(*rows)
    logs = nt.discrete_logs(hs, gs, ps, orders)
    assert logs.shape == (4, 30) and logs.dtype == object
    for row, got, (g, p, order) in zip(hs, logs.tolist(), rows):
        table = _brute_logs(g, p, order)
        assert got == [table[h % p] for h in row], p
    # the int64 rows alone give the same logs
    assert nt.discrete_logs(hs[:3], gs[:3], ps[:3], orders[:3]).tolist() == logs.tolist()[:3]
    # a non-member in one row fails the batch
    for i, bad in ((0, 2), (1, 0), (2, 3)):
        rows_bad = [list(row) for row in hs]
        rows_bad[i][7] = bad
        with pytest.raises(ValueError):
            nt.discrete_logs(rows_bad, gs, ps, orders)


def test_discrete_logs_over_several_giant_blocks():
    # 2 x 40,000 queries take one giant step per block, and about
    # sqrt(order / 40,000) + 1 blocks: more than one
    rows = [_subgroup_row(200003, 200002), _subgroup_row(200017, 100008)]
    gs, ps, orders = zip(*rows)
    rng = random.Random(13)
    hs = np.array([[pow(g, rng.randrange(order), p) for _ in range(40_000)]
                   for g, p, order in rows], dtype=np.int64)
    assert hs.size > nt._GIANT_BLOCK
    logs = nt.discrete_logs(hs, gs, ps, orders)
    for row, got, (g, p, order) in zip(hs.tolist(), logs.tolist(), rows):
        table = _brute_logs(g, p, order)
        assert got == [table[h] for h in row], p


def test_pow_vec_matches_pow():
    # int64 below the guard, Python integers at p = 4294967311 above it
    rng = random.Random(7)
    for p in (11, 65537, 3037000493, 4294967311):
        xs = [rng.randrange(-2 * p, 2 * p) for _ in range(40)] + [0, 1, p - 1]
        for e in (0, 1, 2, 5, (p - 1) // 2, p - 2, rng.randrange(1, p)):
            expect = [pow(x, e, p) for x in xs]
            assert nt.pow_vec([xs], [e], [p]).tolist() == [expect], (p, e)
            # the same xs as an int64 array and as an array of Python integers
            for dtype in (object, np.int64):
                got = nt.pow_vec(np.array([xs], dtype=dtype), [e], [p])
                assert got.tolist() == [expect], (p, e, dtype)
    assert nt.pow_vec([[]], [3], [11]).tolist() == [[]]
    for dtype in (np.int64, object):
        assert nt.pow_vec(np.zeros((1, 0), dtype=dtype), [3], [11]).tolist() == [[]]


def test_discrete_logs_above_int64_guard():
    # p * p >= 2**63: the batch runs on Python integers; a sample of residues
    p = 4294967311
    assert nt.is_prime(p) and p * p >= 1 << 63
    g = nt.primitive_root(p)
    rng = random.Random(5)
    xs = [0, 1, p - 2] + [rng.randrange(p - 1) for _ in range(5)]
    hs = [pow(g, x, p) for x in xs]
    assert nt.discrete_logs([hs], [g], [p], [p - 1]).tolist() == [xs]


def test_euler_phi_and_squarefree():
    assert nt.euler_phi(209) == 180
    assert nt.euler_phi(1) == 1
    assert nt.is_squarefree(209) and not nt.is_squarefree(12)
