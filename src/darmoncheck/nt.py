"""Elementary number theory helpers: primality, factoring, symbols, CRT."""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np


class ResourceLimitError(RuntimeError):
    """A configured search or size bound was exceeded."""


class BadAuxiliaryPrime(ValueError):
    """An auxiliary prime q hit a zero/undefined evaluation; pick another."""

    def __init__(self, message: str, q: int | None = None):
        super().__init__(message)
        self.q = q


# arithmetic mod p works in int64 while p * p stays below this
_INT64_LIMIT = 1 << 63
# at most this many (query, giant step) pairs are looked up at once
_GIANT_BLOCK = 1 << 16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond 64-bit inputs we use)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Factor n > 0 by trial division (desk scale)."""
    if n <= 0:
        raise ValueError("positive integers only")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    return sorted(factorize(n))


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factorize(n).values())


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m > 0."""
    if m <= 0 or m % 2 == 0:
        raise ValueError("m must be odd and positive")
    a %= m
    acc = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                acc = -acc
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            acc = -acc
        a %= m
    return acc if m == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), extending Jacobi to all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    acc = 1
    if n < 0:
        n = -n
        if a < 0:
            acc = -acc
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            acc = -acc
    return acc * jacobi(a, n) if n > 1 else acc


def crt(residues: list[int], moduli: list[int]) -> int:
    """Combine x = r_i mod m_i for pairwise coprime m_i."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        g = gcd(m, mi)
        if g != 1:
            raise ValueError("moduli must be coprime")
        x += m * ((r - x) * pow(m, -1, mi) % mi)
        m *= mi
    return x % m


def multiplicative_order(a: int, n: int) -> int:
    if gcd(a, n) != 1:
        raise ValueError("a must be a unit mod n")
    order = euler_phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def primitive_root(p: int) -> int:
    """Least primitive root of an odd prime p (g=1 for p=2)."""
    if p == 2:
        return 1
    if not is_prime(p):
        raise ValueError("p must be prime")
    qs = prime_factors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod odd prime p (Tonelli-Shanks); raises if none."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def discrete_logs(hs, gs, ps, orders) -> np.ndarray:
    """Solve g_i^x = h mod p_i, 0 <= x < order_i, for every h in row i of hs.

    hs has one row per modulus (see `_residues`), and one baby-step
    giant-step serves all rows: a sorted table of about sqrt(order_i * k)
    baby steps g_i^j per row, k the row length, then giant steps
    h * g_i^(-m_i t) taken for every unresolved query together, a block of
    steps at a time.  Keys carry their row, so one sort and one search serve
    every modulus.  Each x is the least solution.  The arithmetic is int64
    while max p_i^2 fits in it, and Python integers (object arrays) above
    that; the logs come back as an array of that dtype, in the shape of hs.
    Raises ValueError when some h is not a power of its row's g.
    """
    hs = _residues(hs, ps)
    if not hs.size:
        return hs
    rows, k = hs.shape
    ms = [min(o, isqrt(o * k) + 1) for o in orders]
    width, span = max(ms), max(ps)
    # value v in row i is keyed v + i * span; the baby steps are sorted by
    # (g^j + i * span) * width + j, so equal powers keep the least j first
    bound = rows * span * max(width, hs.size, _GIANT_BLOCK)
    dtype = hs.dtype if bound < _INT64_LIMIT else object
    offset = np.array([i * span for i in range(rows)], dtype=dtype)[:, None]
    keys = (_powers(gs, width, ps).astype(dtype) + offset) * width + np.arange(width)
    keys = np.sort(keys[np.arange(width) < np.array(ms)[:, None]])
    table, jay = keys // width, keys % width
    giants = [-(-o // m) for o, m in zip(orders, ms)]
    block = min(max(giants), max(1, _GIANT_BLOCK // hs.size))
    p = np.array(ps, dtype=hs.dtype)
    steps = _powers([pow(g, -m, q) for g, m, q in zip(gs, ms, ps)], block, ps)
    stride = np.array([pow(g, -m * block, q) for g, m, q in zip(gs, ms, ps)], dtype=hs.dtype)
    m_of, order_of = np.array(ms, dtype=dtype), np.array(orders, dtype=dtype)
    cur, pending = hs.ravel(), np.arange(hs.size)
    row = pending // k
    out = np.zeros(hs.size, dtype=hs.dtype)
    for i0 in range(0, max(giants), block):
        vals = cur[:, None] * steps[row] % p[row, None]
        # looking up sorted values is several times faster than scattered
        # ones; keys (value + row offset) * size + position keep positions
        size = vals.size
        vals = (vals.astype(dtype, copy=False) + offset[row]).ravel()
        keys = np.sort(vals * size + np.arange(size))
        vals, where = keys // size, keys % size
        pos = np.minimum(np.searchsorted(table, vals), len(table) - 1)
        hit = table[pos] == vals
        # in position order, a query's first hit is at its least giant step
        where = where[hit].astype(np.int64)
        by_pos = np.argsort(where)
        where, j = where[by_pos], jay[pos[hit]][by_pos]
        query, i = where // block, where % block
        first = np.ones(len(query), dtype=bool)
        first[1:] = query[1:] != query[:-1]
        query, r = query[first], row[query[first]]
        out[pending[query]] = ((i0 + i[first]) * m_of[r] + j[first]) % order_of[r]
        left = np.ones(len(pending), dtype=bool)
        left[query] = False
        cur, pending, row = cur[left], pending[left], row[left]
        if not len(pending):
            return out.reshape(hs.shape)
        cur = cur * stride[row] % p[row]
    raise ValueError("discrete log not found (h not in <g>?)")


def int_dtype(p: int):
    """The dtype of arrays of residues mod p: int64 while p*p fits in it,
    Python integers (object) above that."""
    return np.int64 if p * p < _INT64_LIMIT else object


def _residues(xs, ps) -> np.ndarray:
    """xs mod ps, row i mod ps[i], as a 2-d array of `int_dtype(max(ps))`.
    An array is reduced by numpy alone; a sequence of equal rows one Python
    integer at a time, since numpy could read big and negative ints as floats."""
    dtype = int_dtype(max(ps))
    if isinstance(xs, np.ndarray):
        return (xs % np.array(ps, dtype=dtype)[:, None]).astype(dtype, copy=False)
    return np.array([[int(x) % p for x in row] for row, p in zip(xs, ps)], dtype=dtype)


def pow_vec(xs, es, ps) -> np.ndarray:
    """x^e_i mod p_i for every x in row i of xs (rows as in `_residues`;
    e_i >= 0), by one square-and-multiply over the whole array: each bit
    squares every row, and multiplies in the rows whose exponent has it."""
    base = _residues(xs, ps)
    p = np.array(ps, dtype=base.dtype)[:, None]
    out = np.ones_like(base)
    for bit in range(max(es).bit_length()):
        use = np.array([e >> bit & 1 for e in es], dtype=bool)[:, None]
        out = np.where(use, out * base % p, out)
        base = base * base % p
    return out


def _powers(gs, count: int, ps) -> np.ndarray:
    """g_i^0, g_i^1, ..., g_i^(count-1) mod p_i in row i, by doubling, as an
    array of `int_dtype(max(ps))`."""
    dtype = int_dtype(max(ps))
    p = np.array(ps, dtype=dtype)[:, None]
    out = np.ones((len(ps), 1), dtype=dtype)
    gk = np.array([g % q for g, q in zip(gs, ps)], dtype=dtype)[:, None]
    while out.shape[1] < count:
        out = np.concatenate((out, out[:, :count - out.shape[1]] * gk % p), axis=1)
        gk = gk * gk % p
    return out


def valuation(n: int, p: int) -> int:
    """The p-adic valuation of an integer n != 0."""
    if n == 0:
        raise ValueError("valuation of 0")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k
