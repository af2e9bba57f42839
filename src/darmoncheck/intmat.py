"""Integer-lattice normal forms (Hermite/Smith) with a working modulus.

Every lattice handled here is known to contain m*Z^k for an explicit modulus
m, so all row/column operations may be performed mod m without changing the
lattice.  Pivots are corrected to gcd(pivot, m) through a row scaling by a
unit mod m (Bezout coefficient chosen coprime to m), which is the standard
modular-normal-form device.  Entries stay bounded by m, so numpy int64
arithmetic carries the whole computation.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .nt import ResourceLimitError

_INT64_GUARD = 1 << 31  # m*m must stay below 2**63
# matmul_mod multiplies in int64 while k * (m-1)^2 stays below this
INT64_PRODUCT_BOUND = 1 << 63


def check_modulus(m: int) -> None:
    if m >= _INT64_GUARD:
        raise ResourceLimitError(f"working modulus {m} too large for int64 path")


def _unit_scaling(p: int, m: int) -> tuple[int, int]:
    """Return (s, g) with g = gcd(p, m), gcd(s, m) = 1 and s*p = g mod m."""
    g = gcd(p, m)
    p1, m1 = p // g, m // g
    s = pow(p1, -1, m1) if m1 > 1 else 1
    while gcd(s, m) != 1:
        s += m1
    return s % m, g


def hnf_mod(rows: np.ndarray, m: int) -> np.ndarray:
    """Row Hermite form of the lattice spanned by `rows` together with m*Z^k.

    Returns a k x k upper-triangular basis matrix with positive diagonal
    entries dividing m; entries above each pivot are reduced into [0, pivot).
    """
    k = rows.shape[1]
    if m == 1:
        return np.eye(k, dtype=np.int64)
    check_modulus(m)
    W = np.asarray(rows, dtype=np.int64) % m
    W = W[np.any(W, axis=1)]
    piv_rows: list[np.ndarray] = []
    for c in range(k):
        nz = np.nonzero(W[:, c])[0]
        while len(nz) > 1:
            best = nz[np.argmin(W[nz, c])]
            p = W[best, c]
            rest = nz[nz != best]
            q = W[rest, c] // p
            W[rest] = (W[rest] - q[:, None] * W[best]) % m
            nz = np.nonzero(W[:, c])[0]
        if len(nz) == 0:
            row = np.zeros(k, dtype=np.int64)
            row[c] = m
            piv_rows.append(row)
            continue
        i = nz[0]
        s, g = _unit_scaling(int(W[i, c]), m)
        if s != 1:
            W[i] = (W[i] * s) % m
        W[i, c] = g
        piv_rows.append(W[i].copy())
        # (m/g) * pivot row stays in the lattice with vanishing pivot entry
        # and may carry content into later columns
        W[i] = (W[i] * (m // g)) % m
        W[i, c] = 0
    H = np.vstack(piv_rows)
    for c in range(1, k):
        p = H[c, c]
        q = H[:c, c] // p
        H[:c, c:] -= np.outer(q, H[c, c:])
        # entries right of the pivot may be reduced mod m (m*e_j row op)
        H[:c, c + 1:] %= m
    return H


def hnf_exact(rows: list[list[int]], k: int) -> list[list[int]]:
    """Row Hermite form of the lattice of rank k in Z^k spanned by `rows`.

    Exact, in Python integers, for lattices a few columns wide (the bases of
    cyclic factors in `groupring`).  Returns k rows, upper triangular with
    positive pivots, entries above each pivot reduced into [0, pivot): the
    form `hnf_mod` gives when the lattice contains m Z^k.
    """
    out = []
    for c in range(k):
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[c]))
            nxt = [p]
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    r = [x - q * y for x, y in zip(r, p)]
                    (nxt if r[c] else rows).append(r)
            live = nxt
        (p,) = live
        out.append(p if p[c] > 0 else [-x for x in p])
    for c in range(1, k):
        for i in range(c):
            q = out[i][c] // out[c][c]
            if q:
                out[i] = [x - q * y for x, y in zip(out[i], out[c])]
    return out


def hnf_solve(H, v, as_python: bool = False):
    """Solve x @ H = v over Z for upper-triangular H; None if unsolvable.

    With as_python the solve is exact in Python integers, and H may be given
    as a list of Python-int rows (`H.tolist()`), so that a caller solving
    many right-hand sides against one H converts it once.
    """
    k = len(H)
    if as_python:
        w = [int(t) for t in v]
        Hp = H.tolist() if isinstance(H, np.ndarray) else H
        x = [0] * k
        for c in range(k):
            p = Hp[c][c]
            if w[c] % p:
                return None
            xc = w[c] // p
            x[c] = xc
            if xc:
                row = Hp[c]
                for j in range(c, k):
                    w[j] -= xc * row[j]
        if any(w):
            return None
        return x
    w = np.asarray(v, dtype=np.int64).copy()
    x = np.zeros(k, dtype=np.int64)
    for c in range(k):
        p = H[c, c]
        if w[c] % p:
            return None
        xc = int(w[c] // p)
        x[c] = xc
        if xc:
            w[c:] -= xc * H[c, c:]
        hi = int(np.abs(w[c:]).max(initial=0))
        if hi > (1 << 61):
            return hnf_solve(H, v, as_python=True)
    if np.any(w):
        return None
    return x


def hnf_solve_mod(H: np.ndarray, v, m: int):
    """Solve x @ H = v, with x correct mod m; None when v is not in the lattice.

    v is one vector, or a matrix whose rows are solved together; a vector
    gives a vector, a matrix the matrix of solutions, and None if any row is
    outside the lattice.  Requires m * Z^k <= lattice(H).  Internally works
    mod m * det(H): a final residual divisible by m * det(H) differs from
    zero by m*det(H)*z @ H^{-1} = m * z @ adj(H), an integral multiple of m,
    so the returned coordinates agree with the exact solution mod m.  Falls
    back to exact big-integer arithmetic, one row at a time, when the
    working modulus outgrows int64.
    """
    w = np.array(v, dtype=np.int64)
    k = H.shape[0]
    if k == 0:
        return w
    rows = w.reshape(-1, k)
    det = 1
    for c in range(k):
        det *= int(H[c, c])
    m_work = m * det
    hmax = int(np.abs(H).max(initial=1))
    if m_work >= _INT64_GUARD or (k + 1) * m_work * hmax >= (1 << 62):
        Hp = H.tolist()
        out = []
        for row in rows:
            x = hnf_solve(Hp, row, as_python=True)
            if x is None:
                return None
            # reduce before int64: the exact coordinates can be huge
            out.append([xi % m for xi in x])
        x = np.array(out, dtype=np.int64)
    else:
        x = np.zeros_like(rows)
        for c in range(k):
            p = H[c, c]
            if np.any(rows[:, c] % p):
                return None
            q = (rows[:, c] // p) % m_work
            x[:, c] = q
            rows[:, c:] -= np.outer(q, H[c, c:])
        if np.any(rows % m_work):
            raise AssertionError("modular solve integrity check failed")
        x %= m
    return x if w.ndim == 2 else x[0]


def matmul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """a @ b mod m, exact for any integer entries.

    Both factors are reduced mod m first; the product runs in int64 while
    its inner dimension times (m - 1)^2 stays below INT64_PRODUCT_BOUND, and
    in Python integers (object arrays) above it, so it never wraps.
    """
    a, b = np.asarray(a) % m, np.asarray(b) % m
    if a.shape[-1] * (m - 1) ** 2 < INT64_PRODUCT_BOUND:
        return a @ b % m
    return (a.astype(object) @ b.astype(object) % m).astype(np.int64)


def snf_mod(rows: np.ndarray, m: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Smith presentation of Z^k / (rowspan(rows) + m*Z^k).

    Returns (d, V, W): d are the invariant factors (d_1 | d_2 | ... | m), and
    V, W = V^{-1} are the tracked column transforms mod m.  If x are the
    coordinates of a vector against the ambient basis then y = x @ V mod d
    are its coordinates in the presented group, and row i of W expresses the
    i-th Smith basis vector in ambient coordinates (mod m).
    """
    k = rows.shape[1]
    if m == 1:
        eye = np.eye(k, dtype=np.int64)
        return [1] * k, eye, eye.copy()
    check_modulus(m)
    M = np.asarray(rows, dtype=np.int64) % m
    M = M[np.any(M, axis=1)]
    if M.shape[0] == 0:
        M = np.zeros((1, k), dtype=np.int64)
    V = np.eye(k, dtype=np.int64)
    W = np.eye(k, dtype=np.int64)
    d = [m] * k

    def col_op(j, i, q):
        # col_j -= q * col_i; track V and its inverse W
        M[:, j] = (M[:, j] - q * M[:, i]) % m
        V[:, j] = (V[:, j] - q * V[:, i]) % m
        W[i] = (W[i] + q * W[j]) % m

    def col_swap(i, j):
        M[:, [i, j]] = M[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]
        W[[i, j]] = W[[j, i]]

    R = M.shape[0]
    t = 0
    while t < k and t < R:
        sub = M[t:, t:]
        if not np.any(sub):
            break
        while True:
            sub = M[t:, t:]
            nz = np.nonzero(sub)
            vals = sub[nz]
            idx = np.argmin(vals)
            r0, c0 = nz[0][idx] + t, nz[1][idx] + t
            if r0 != t:
                M[[t, r0]] = M[[r0, t]]
            if c0 != t:
                col_swap(t, c0)
            p = int(M[t, t])
            rest = np.nonzero(M[t + 1:, t])[0] + t + 1
            if len(rest):
                q = M[rest, t] // p
                M[rest] = (M[rest] - q[:, None] * M[t]) % m
                if np.any(M[t + 1:, t]):
                    continue
            dirty = False
            for j in range(t + 1, k):
                if M[t, j]:
                    col_op(j, t, int(M[t, j]) // p)
                    if M[t, j]:
                        dirty = True
            if dirty or np.any(M[t + 1:, t]):
                continue
            # fold the modulus into the pivot
            s, g = _unit_scaling(int(M[t, t]), m)
            if g != int(M[t, t]):
                M[t] = (M[t] * s) % m
                M[t, t] = g
                if np.any(M[t, t + 1:]):
                    continue
            p = int(M[t, t])
            # pivot must divide every remaining entry (and it divides m)
            sub = M[t + 1:, t + 1:]
            bad = np.nonzero(sub % p)
            if len(bad[0]):
                M[t] = (M[t] + M[bad[0][0] + t + 1]) % m
                continue
            break
        d[t] = int(M[t, t])
        t += 1
    # invariant factors for exhausted rows stay m; enforce chain with m tail
    for i in range(1, k):
        if d[i] % d[i - 1] != 0:
            raise AssertionError("Smith chain violated")
    return d, V % m, W % m
