"""Exact arithmetic in cyclotomic fields and the twisted cyclotomic units.

Elements of Q(zeta_m) are fractions of integer polynomials reduced modulo
the m-th cyclotomic polynomial.  Products of many terms (zeta^a - 1) are
accumulated in Z[x]/(x^m - 1), where multiplication by a sparse binomial is
a cyclic shift; reduction modulo Phi_m happens once at the end.  No floating
point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from . import nt
from .groupring import gamma
from .nt import ResourceLimitError
from .quadfield import QuadField, QuadNum

PHI_CAP = 4096


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    poly = tuple(num)
    for d in nt.divisors(m):
        if d < m:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return poly


def _poly_div_exact(a, b):
    """Exact division of integer polynomials (b monic up to sign)."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    lead = b[-1]
    out = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = a[i + db]
        if c % lead:
            raise ValueError("division not exact")
        q = c // lead
        out[i] = q
        if q:
            for j in range(db + 1):
                a[i + j] -= q * b[j]
    if any(a):
        raise ValueError("division not exact")
    return tuple(out)


class CycloContext:
    """Reduction tables for one cyclotomic modulus m."""

    def __init__(self, m: int):
        self.m = m
        self.phi = nt.euler_phi(m)
        if self.phi > PHI_CAP:
            raise ResourceLimitError(f"phi({m}) = {self.phi} exceeds the degree bound")
        self.Phi = cyclotomic_poly(m)
        # x^j mod Phi_m for j = 0..m-1
        deg = self.phi
        table = []
        cur = [0] * deg
        cur[0] = 1
        for j in range(m):
            table.append(tuple(cur))
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(deg):
                    nxt[i] -= top * self.Phi[i]
            cur = nxt
        self.xpow = table

    def reduce_vec(self, vec) -> tuple[int, ...]:
        """Reduce a Z[x]/(x^m - 1) coefficient vector modulo Phi_m."""
        out = [0] * self.phi
        for j, c in enumerate(vec):
            if c:
                row = self.xpow[j % self.m]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return tuple(out)

    def mul_reduced(self, p, q) -> tuple[int, ...]:
        """Product of two Phi-reduced polynomials, Phi-reduced."""
        conv = [0] * (2 * self.phi - 1 or 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    if b:
                        conv[i + j] += a * b
        out = [0] * self.phi
        for j, c in enumerate(conv):
            if c:
                if j < self.phi:
                    out[j] += c
                else:
                    row = self.xpow[j % self.m]  # x^m = 1 in the quotient
                    for i, r in enumerate(row):
                        if r:
                            out[i] += c * r
        return tuple(out)

    def subst(self, p, c: int) -> tuple[int, ...]:
        """The Galois action zeta -> zeta^c on a Phi-reduced polynomial."""
        out = [0] * self.phi
        for j, a in enumerate(p):
            if a:
                row = self.xpow[j * c % self.m]
                for i, r in enumerate(row):
                    if r:
                        out[i] += a * r
        return tuple(out)


@lru_cache(maxsize=None)
def context(m: int) -> CycloContext:
    return CycloContext(m)


def sparse_product_vec(m: int, exponents: list[int]) -> list[int]:
    """prod (x^a - 1) over the exponents, in Z[x]/(x^m - 1)."""
    v = [0] * m
    v[0] = 1
    for a in exponents:
        a %= m
        w = [0] * m
        for j, c in enumerate(v):
            if c:
                w[(j + a) % m] += c
                w[j] -= c
        v = w
    return v


class CycloNum:
    """An element of Q(zeta_m) as a fraction of Phi-reduced polynomials."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num, den=None):
        self.m = m
        self.num = tuple(num)
        self.den = tuple(den) if den is not None else _one(m)
        if not any(self.den):
            raise ZeroDivisionError("zero denominator")

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycloNum":
        ctx = context(m)
        return CycloNum(m, ctx.xpow[k % m])

    @staticmethod
    def integer(m: int, a: int) -> "CycloNum":
        v = [0] * context(m).phi
        v[0] = a
        return CycloNum(m, v)

    @staticmethod
    def from_vec(m: int, vec, den_vec=None) -> "CycloNum":
        ctx = context(m)
        return CycloNum(m, ctx.reduce_vec(vec),
                        ctx.reduce_vec(den_vec) if den_vec is not None else None)

    def _ctx(self) -> CycloContext:
        return context(self.m)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloNum(self.m, tuple(c * other for c in self.num), self.den)
        if other.m != self.m:
            raise ValueError("different cyclotomic moduli")
        ctx = self._ctx()
        return CycloNum(self.m, ctx.mul_reduced(self.num, other.num),
                        ctx.mul_reduced(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.m != self.m:
            raise ValueError("different cyclotomic moduli")
        if not any(other.num):
            raise ZeroDivisionError
        ctx = self._ctx()
        return CycloNum(self.m, ctx.mul_reduced(self.num, other.den),
                        ctx.mul_reduced(self.den, other.num))

    def __add__(self, other):
        if isinstance(other, int):
            other = CycloNum.integer(self.m, other)
        ctx = self._ctx()
        n = [a + b for a, b in zip(ctx.mul_reduced(self.num, other.den),
                                   ctx.mul_reduced(other.num, self.den))]
        return CycloNum(self.m, n, ctx.mul_reduced(self.den, other.den))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycloNum.integer(self.m, other)
        return self + (-1 * other)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloNum.integer(self.m, other)
        if not isinstance(other, CycloNum) or other.m != self.m:
            return NotImplemented
        ctx = self._ctx()
        return ctx.mul_reduced(self.num, other.den) == ctx.mul_reduced(other.num, self.den)

    def __hash__(self):
        raise TypeError("unhashable (non-canonical fraction)")

    def is_zero(self) -> bool:
        return not any(self.num)

    def galois(self, c: int) -> "CycloNum":
        if gcd(c, self.m) != 1:
            raise ValueError(f"{c} is not coprime to {self.m}")
        ctx = self._ctx()
        return CycloNum(self.m, ctx.subst(self.num, c), ctx.subst(self.den, c))

    def to_level(self, mm: int) -> "CycloNum":
        """Image under Q(zeta_m) -> Q(zeta_mm) for m | mm (zeta_m = zeta_mm^(mm/m))."""
        if mm == self.m:
            return self
        if mm % self.m:
            raise ValueError("target modulus must be a multiple")
        t = mm // self.m
        num = [0] * mm
        den = [0] * mm
        for j, c in enumerate(self.num):
            num[j * t] = c
        for j, c in enumerate(self.den):
            den[j * t] = c
        return CycloNum.from_vec(mm, num, den)

    def __repr__(self):
        return f"CycloNum(m={self.m}, num={self.num[:6]}..., den={self.den[:6]}...)"


def _one(m: int):
    v = [0] * context(m).phi
    v[0] = 1
    return tuple(v)


# ---------------------------------------------------------------------------
# the twisted cyclotomic unit alpha_n and its theta element


def alpha_exponents(F: QuadField, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponent lists (plus, minus) with alpha_n = prod (zeta_nf^a - 1)^{w(a)}.

    The product runs over the residues a mod nf with a = 1 mod n; the sign
    is the quadratic character of a.  These are the residues 1 + n j, j < f,
    that are prime to f (n is prime to f), in increasing order.
    """
    f, chi = F.conductor, F.chi
    if n > 1 and gcd(n, f) != 1:
        raise ValueError("level must be coprime to the conductor")
    plus, minus = [], []
    for a in range(1, n * f, n):
        w = chi[a % f]
        if w == 1:
            plus.append(a)
        elif w == -1:
            minus.append(a)
    return tuple(plus), tuple(minus)


def twist_exponents(F: QuadField, n: int, cs) -> tuple[np.ndarray, int]:
    """The exponents of the c-twists of alpha_n, one row per c in cs.

    Row i holds c_i a mod nf for the exponents a of `alpha_exponents`, plus
    first; the second value is the number of plus exponents.  At a prime q,
    a twist's residues are zeta_nf to the powers in its row, minus 1.
    """
    plus, minus = alpha_exponents(F, n)
    exps = np.array(plus + minus, dtype=np.int64)
    at = np.multiply.outer(np.asarray(cs, dtype=np.int64), exps) % (n * F.conductor)
    return at, len(plus)


@lru_cache(maxsize=None)
def _alpha_cached(d: int, n: int) -> CycloNum:
    F = QuadField(d)
    plus, minus = alpha_exponents(F, n)
    mf = n * F.conductor
    num = sparse_product_vec(mf, list(plus))
    den = sparse_product_vec(mf, list(minus))
    return CycloNum.from_vec(mf, num, den)


def alpha(F: QuadField, n: int) -> CycloNum:
    """The cyclotomic unit alpha_n in Q(zeta_{nf}), exact."""
    return _alpha_cached(F.d, n)


@dataclass
class ThetaElt:
    """The first-derivative theta element: gamma |-> gamma(alpha_n), lazily."""

    F: QuadField
    level: int
    r: int
    s: int

    def base(self) -> CycloNum:
        return alpha(self.F, self.level)

    def coefficient(self, g: int) -> CycloNum:
        """gamma(alpha_n) for gamma in Gamma_n given by the residue g mod n."""
        c = self.twist_residue(g)
        return self.base().galois(c)

    def twist_residue(self, g: int) -> int:
        """Lift of g to (Z/nf)^x acting trivially on F (conductor part 1)."""
        return self.twist_residues([g])[0]

    def twist_residues(self, gs) -> list[int]:
        """twist_residue of every g in gs: g + n ((1 - g) n^-1 mod f), g mod n."""
        n, f = self.level, self.F.conductor
        if n == 1:
            return [1] * len(gs)
        inv = pow(n, -1, f)
        return [g % n + n * ((1 - g % n) * inv % f) for g in gs]

    @cached_property
    def twist_table(self) -> tuple[np.ndarray, int]:
        """`twist_exponents` at the twist residues of Gamma_n, one row per
        element in the order of `gamma(n).elements`.  It does not depend on
        the auxiliary prime, so a check builds it once and every reduction
        of this theta element reads it."""
        return twist_exponents(self.F, self.level,
                               self.twist_residues(gamma(self.level).elements))


def theta_prime(F: QuadField, n: int) -> ThetaElt:
    if n > 1 and gcd(n, F.conductor) != 1:
        raise ValueError("level must be coprime to the conductor")
    return ThetaElt(F, n, F.r_of(n), F.s_of(n))


# ---------------------------------------------------------------------------
# norm relation


def norm_relation_check(F: QuadField, n: int, ell: int, perturb: bool = False) -> bool:
    """Exact check of N_{F(mu_n)/F(mu_{n/ell})} alpha_n = alpha_{n/ell}^{1 - Fr_ell^{-1}}.

    Valid for split ell | n.  With perturb=True the left side is multiplied
    by a root of unity first (soundness canary; the check must then fail).
    """
    if n % ell or F.omega(ell) != 1:
        raise ValueError("ell must be a split prime dividing the level")
    f = F.conductor
    mf = n * f
    sub = mf // ell
    plus, minus = alpha_exponents(F, n)
    # norm = product of the twists by c = 1 mod (n/ell)f
    lhs_plus: list[int] = []
    lhs_minus: list[int] = []
    for c in range(1, mf + 1):
        if gcd(c, mf) != 1 or c % sub != 1 % sub:
            continue
        lhs_plus.extend(a * c % mf for a in plus)
        lhs_minus.extend(a * c % mf for a in minus)
    num = sparse_product_vec(mf, lhs_plus)
    den = sparse_product_vec(mf, lhs_minus)
    if perturb:
        num = _shift_vec(num, 1, mf)
    lhs = CycloNum.from_vec(mf, num, den)
    # right side at level nf/ell, embedded
    a_low = alpha(F, n // ell)
    fr_inv = pow(ell, -1, sub)
    rhs = a_low / a_low.galois(fr_inv)
    return lhs == rhs.to_level(mf)


def _shift_vec(v, k, m):
    out = [0] * m
    for j, c in enumerate(v):
        out[(j + k) % m] = c
    return out


# ---------------------------------------------------------------------------
# the quadratic subfield inside Q(zeta_f)


def sqrt_disc(F: QuadField, m: int) -> CycloNum:
    """sqrt(D) inside Q(zeta_m) (f | m) via the quadratic Gauss sum."""
    f = F.conductor
    if m % f:
        raise ValueError("conductor must divide the modulus")
    t = m // f
    vec = [0] * m
    for a, w in enumerate(F.chi):
        vec[a * t] = w
    return CycloNum.from_vec(m, vec)


def quad_to_cyclo(F: QuadField, x: QuadNum, m: int) -> CycloNum:
    """Embed a + b*sqrt(d) into Q(zeta_m) using the Gauss-sum square root."""
    sd = sqrt_disc(F, m)
    if F.disc != F.d:
        sd = sd / CycloNum.integer(m, 2)  # sqrt(d) = sqrt(4d)/2
    an, ad = x.a.numerator, x.a.denominator
    bn, bd = x.b.numerator, x.b.denominator
    out = CycloNum.integer(m, an) / CycloNum.integer(m, ad)
    return out + (CycloNum.integer(m, bn) / CycloNum.integer(m, bd)) * sd


def cyclo_to_quad(F: QuadField, x: CycloNum) -> QuadNum:
    """Express an element of the quadratic subfield as a + b*sqrt(d); exact.

    Raises ValueError when x does not lie in F.
    """
    m = x.m
    f = F.conductor
    if m % f:
        raise ValueError("modulus not divisible by the conductor")
    rest = m // f
    # a Galois element acting as tau on F and trivially on mu_{m/f}
    a_nr = next(a for a in range(2, f) if gcd(a, f) == 1 and F.omega(a) == -1)
    c = nt.crt([1, a_nr], [rest, f]) if rest > 1 else a_nr
    xt = x.galois(c)
    two = CycloNum.integer(m, 2)
    tr = (x + xt)
    df = (x - xt)
    sd = sqrt_disc(F, m)
    if F.disc != F.d:
        sd = sd / two
    b2 = df / sd
    a = _as_rational(tr) / 2
    b = _as_rational(b2) / 2
    out = QuadNum(F.d, a, b)
    if quad_to_cyclo(F, out, m) != x:
        raise ValueError("element is not in the quadratic subfield")
    return out


def _as_rational(x: CycloNum):
    from fractions import Fraction

    num, den = x.num, x.den
    if any(num[1:]) and not any(den[1:]):
        raise ValueError("not rational")
    if not any(den[1:]):
        return Fraction(num[0], den[0])
    # generic: multiply by conjugate structure is overkill; solve via equality
    # x rational q iff num == q * den; try q from leading coefficients
    for i, c in enumerate(den):
        if c:
            q = Fraction(num[i], c)
            if tuple(q.numerator * d for d in den) == tuple(q.denominator * nn for nn in num):
                return q
    raise ValueError("not rational")
