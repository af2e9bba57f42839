"""Real quadratic fields: exact arithmetic, class data, and unit lattices.

A field is Q(sqrt(d)) for squarefree d > 1 with discriminant D (= d or 4d)
and conductor f = D.  The distinguished real embedding sends sqrt(d) to the
positive root; all absolute values and orientations refer to it.  Class
numbers come from cycles of reduced indefinite binary quadratic forms
(narrow class group) combined with the norm of the fundamental unit.  The
local datum of x at a place above a split ell, its valuation and its unit
residue mod ell, comes from one routine, `local_parts`, which lifts sqrt(d)
once, to ell^(v(N(x)) + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, log, prod

from . import nt
from .nt import ResourceLimitError

NORM_SEARCH_CAP = 10 ** 7


class QuadNum:
    """An element a + b*sqrt(d) of Q(sqrt(d)), with exact rational a, b."""

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a, b=0):
        self.d = d
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _lift(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.d != self.d:
                raise ValueError("different fields")
            return other
        return QuadNum(self.d, other)

    def __add__(self, other):
        o = self._lift(other)
        return QuadNum(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return QuadNum(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return QuadNum(self.d, -self.a, -self.b)

    def __mul__(self, other):
        o = self._lift(other)
        return QuadNum(self.d, self.a * o.a + self.d * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError
        return self * o.conj() * QuadNum(self.d, Fraction(1, 1) / n)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return QuadNum(self.d, 1) / self ** (-k)
        out = QuadNum(self.d, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "QuadNum":
        return QuadNum(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign under the distinguished embedding (sqrt(d) > 0)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        n = self.norm()
        if self.a > 0:  # b < 0: positive iff a^2 > d b^2
            return 1 if n > 0 else -1
        return 1 if n < 0 else -1

    def abs_cmp_one(self) -> int:
        """Compare |self| with 1 exactly: -1, 0 or +1."""
        sq = self * self
        t = sq - QuadNum(self.d, 1)
        if t.is_zero():
            return 0
        return t.sign()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadNum(self.d, other)
        return (isinstance(other, QuadNum) and self.d == other.d
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.d, self.a, self.b))

    def __repr__(self):
        return f"QuadNum({self.a} + {self.b}*sqrt({self.d}))"


@dataclass(frozen=True)
class PrimePlace:
    """A prime of F above a split rational prime: sqrt(d) = root (mod ell).

    Above ell = 2 the root is taken mod 4 (1 or 3): that fixes which 2-adic
    square root of d is meant, where mod 2 both roots are 1.
    """

    ell: int
    root: int  # a square root of d mod ell, or mod 4 when ell = 2

    def conj(self) -> "PrimePlace":
        return PrimePlace(self.ell, (-self.root) % (4 if self.ell == 2 else self.ell))

    def __repr__(self):
        return f"PrimePlace({self.ell}, sqrt->{self.root})"


class QuadField:
    """Q(sqrt(d)) with discriminant, conductor and quadratic character."""

    def __init__(self, d: int):
        if d <= 1 or not nt.is_squarefree(d):
            raise ValueError("d must be a squarefree integer > 1")
        self.d = d
        self.disc = d if d % 4 == 1 else 4 * d
        self.conductor = self.disc
        self._class_data = None
        self._fund_unit = None
        self._basis_cache: dict = {}

    def omega(self, ell: int) -> int:
        """+1 if ell splits, -1 if inert, 0 if ramified."""
        return nt.kronecker(self.disc, ell)

    @cached_property
    def chi(self) -> tuple[int, ...]:
        """(D/a) for each residue a mod f, 0 where gcd(a, f) > 1."""
        return tuple(nt.kronecker(self.disc, a) for a in range(self.conductor))

    def place_above(self, ell: int) -> PrimePlace:
        """The distinguished prime above a split ell (smaller root of d)."""
        if self.omega(ell) != 1:
            raise ValueError(f"{ell} does not split in Q(sqrt({self.d}))")
        if ell == 2:
            return PrimePlace(2, 1)
        t = nt.sqrt_mod_prime(self.d % ell, ell)
        t = min(t, ell - t)
        return PrimePlace(ell, t)

    def n_plus(self, n: int) -> int:
        return prod([p for p in nt.prime_factors(n) if self.omega(p) == 1]) if n > 1 else 1

    def split_primes(self, n: int) -> list[int]:
        return [p for p in nt.prime_factors(n) if self.omega(p) == 1]

    def r_of(self, n: int) -> int:
        return len(self.split_primes(n))

    def s_of(self, n: int) -> int:
        return len([p for p in nt.prime_factors(n) if self.omega(p) != 1])

    def __repr__(self):
        return f"QuadField(d={self.d}, disc={self.disc})"


@lru_cache(maxsize=None)
def make_field(d: int) -> QuadField:
    return QuadField(d)


# ---------------------------------------------------------------------------
# fundamental unit


def fundamental_unit(F: QuadField) -> QuadNum:
    """The fundamental unit > 1 of O_F, from one period of a continued fraction.

    The continued fraction of omega = (D%2 + sqrt(D))/2 has complete quotients
    (P + sqrt(D))/Q; its period ends where Q is 2 again, and the convergent
    p/q before that point gives eps = p - q*conj(omega) (Cohen, GTM 138, 5.7).
    """
    if F._fund_unit is not None:
        return F._fund_unit
    D, t, s = F.disc, F.disc % 2, isqrt(F.disc)
    P, Q = t, 2
    p, p_prev, q, q_prev = 1, 0, 0, 1
    while True:
        a = (P + s) // Q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == 2:
            break
    # conj(omega) = (t - sqrt(D))/2 with sqrt(D) = (2 - t) sqrt(d)
    eps = QuadNum(F.d, Fraction(2 * p - t * q, 2), Fraction((2 - t) * q, 2))
    if eps.norm() not in (1, -1):
        raise ArithmeticError(f"continued fraction gave a non-unit {eps}")
    F._fund_unit = eps
    return eps


# ---------------------------------------------------------------------------
# the local data at a split place: valuation and unit residue, from one
# lift of sqrt(d) to ell^(v(N) + 1)


def local_parts(x: QuadNum, place: PrimePlace) -> tuple[int, int]:
    """(k, residue): the valuation k of x != 0 at the place, and x/ell^k mod ell.

    Write x = (u + v sqrt(d))/den with integers u, v, den.  The place sends
    sqrt(d) to the ell-adic root t of d with t = place.root, and x to
    (u + v t)/den.  The values of u + v t at the two places multiply to
    N = u^2 - d v^2, so its valuation is at most v(N), and t mod ell^prec,
    prec = v(N) + 1, fixes both parts.  At ell = 2 the residue is 1, the only
    unit of F_2.
    """
    if x.is_zero():
        raise ValueError("valuation of 0")
    ell, d, t = place.ell, x.d, place.root
    den = lcm(x.a.denominator, x.b.denominator)
    u, v = int(x.a * den), int(x.b * den)
    prec = nt.valuation(u * u - d * v * v, ell) + 1
    mod = ell ** prec
    if ell == 2:
        # t^2 = d mod 2^(j+1) makes t right mod 2^j; each step fixes one bit,
        # and t = root mod 4 (d = 1 mod 8) picks the place
        for j in range(3, prec + 1):
            if (t * t - d) % (2 << j):
                t += 1 << (j - 1)
    else:
        m = ell
        while m < mod:  # Newton's step t - (t^2 - d)/(2t) doubles the digits that are right
            m = min(m * m, mod)
            t = (t - (t * t - d) * pow(2 * t, -1, m)) % m
    w = (u + v * t) % mod
    k, vd = nt.valuation(w, ell), nt.valuation(den, ell)
    return k - vd, w // ell ** k * pow(den // ell ** vd, -1, ell) % ell


# ---------------------------------------------------------------------------
# integral ideals as Z-modules on the basis (1, w), w = (D%2 + sqrt(D))/2


class QuadIdeal:
    """A nonzero integral ideal in Hermite form Z*(a) + Z*(b + c*w)."""

    __slots__ = ("F", "a", "b", "c")

    def __init__(self, F: QuadField, a: int, b: int, c: int):
        self.F = F
        self.a = a
        self.b = b
        self.c = c

    @staticmethod
    def from_rows(F: QuadField, rows: list[tuple[int, int]]) -> "QuadIdeal":
        """Hermite form of the Z-module spanned by (x, y) = x + y*w pairs."""
        rows = [(x, y) for x, y in rows if x or y]
        if not rows:
            raise ValueError("zero module")
        # reduce on the y-column first
        while True:
            ys = [r for r in rows if r[1]]
            if len(ys) <= 1:
                break
            ys.sort(key=lambda r: abs(r[1]))
            x0, y0 = ys[0]
            new = []
            for x, y in rows:
                if (x, y) == (x0, y0) or y == 0:
                    new.append((x, y))
                else:
                    q = y // y0
                    new.append((x - q * x0, y - q * y0))
            rows = [r for r in new if r != (0, 0)] + [(x0, y0)]
            rows = list(dict.fromkeys(rows))
        ys = [r for r in rows if r[1]]
        if not ys:
            raise ValueError("module has rank 1; not an ideal")
        bx, cy = ys[0]
        if cy < 0:
            bx, cy = -bx, -cy
        g = 0
        for x, y in rows:
            if y == 0:
                g = gcd(g, abs(x))
        if g == 0:
            raise ValueError("module has rank 1; not an ideal")
        bx %= g
        return QuadIdeal(F, g, bx, cy)

    def rows(self) -> list[tuple[int, int]]:
        return [(self.a, 0), (self.b, self.c)]

    def norm(self) -> int:
        return self.a * self.c

    def contains(self, x: int, y: int) -> bool:
        if y % self.c:
            return False
        q = y // self.c
        return (x - q * self.b) % self.a == 0

    def contains_num(self, z: QuadNum) -> bool:
        x, y = _to_w_coords(self.F, z)
        if x is None:
            return False
        return self.contains(x, y)

    def mul(self, other: "QuadIdeal") -> "QuadIdeal":
        F = self.F
        t = F.disc % 2
        nw = (F.disc - t * t) // 4  # w^2 = t*w + nw
        rows = []
        for x1, y1 in self.rows():
            for x2, y2 in other.rows():
                # (x1 + y1 w)(x2 + y2 w)
                x = x1 * x2 + y1 * y2 * nw
                y = x1 * y2 + y1 * x2 + y1 * y2 * t
                rows.append((x, y))
        return QuadIdeal.from_rows(F, rows)

    def conj(self) -> "QuadIdeal":
        t = self.F.disc % 2
        # conj(b + c*w) = (b + c*t) - c*w
        return QuadIdeal.from_rows(self.F, [(self.a, 0), (self.b + self.c * t, -self.c)])

    def pow(self, k: int) -> "QuadIdeal":
        out = QuadIdeal(self.F, 1, 0, 1)
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, QuadIdeal) and self.F is other.F
                and (self.a, self.b, self.c) == (other.a, other.b, other.c))

    def __repr__(self):
        return f"QuadIdeal({self.a}, {self.b}+{self.c}w; N={self.norm()})"


def _to_w_coords(F: QuadField, z: QuadNum):
    """Express z = x + y*w with integer x, y, or (None, None) if not in O_F."""
    t = F.disc % 2
    # w = (t + sqrt(D))/2; sqrt(D) = sqrt(d) if D odd else 2 sqrt(d)
    if F.disc == F.d:
        y = 2 * z.b  # z = x + y*(t+sqrt(d))/2
        x = z.a - Fraction(t) * y / 2
    else:
        y = z.b  # w = sqrt(d)
        x = z.a
    if y.denominator != 1 or x.denominator != 1:
        return None, None
    return int(x), int(y)


def ideal_of(F: QuadField, z: QuadNum) -> QuadIdeal:
    """The principal ideal z*O_F for integral z."""
    x, y = _to_w_coords(F, z)
    if x is None:
        raise ValueError("element is not integral")
    t = F.disc % 2
    nw = (F.disc - t * t) // 4
    return QuadIdeal.from_rows(F, [(x, y), (y * nw, x + y * t)])


def _w_residue(F: QuadField, place: PrimePlace) -> int:
    """The residue mod ell of w = (D%2 + sqrt(D))/2 at the place."""
    ell, root = place.ell, place.root
    if F.disc % 2 == 0:
        return root % ell  # w = sqrt(d)
    if ell == 2:
        return ((1 + root) // 2) % 2  # root is sqrt(d) mod 4
    return (1 + root) * pow(2, -1, ell) % ell


def prime_ideal(F: QuadField, place: PrimePlace) -> QuadIdeal:
    """The split prime ideal attached to a place descriptor."""
    ell = place.ell
    return QuadIdeal.from_rows(F, [(ell, 0), (-_w_residue(F, place) % ell, 1)])


# ---------------------------------------------------------------------------
# class group via cycles of reduced indefinite forms


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """u, v with the solutions of a x = b (mod m) being x = u + v Z."""
    g = gcd(a, m) or m
    if b % g:
        raise ValueError("no solution")
    mg = m // g
    u = (b // g) * pow((a // g) % mg, -1, mg) % mg if mg > 1 else 0
    return u, mg


class FormClassGroup:
    """The narrow class group of discriminant D > 0 via reduced form cycles."""

    def __init__(self, D: int):
        self.D = D
        self.s = isqrt(D)
        self._canon: dict = {}
        self.reduced = self._enumerate()
        reps = set()
        for f in self.reduced:
            reps.add(self.canonical(f))
        self.reps = sorted(reps)
        self.h_plus = len(reps)
        self.one = self.canonical(self.principal_form())
        self.minus_one = self.canonical((-1, D % 2, (D - (D % 2) ** 2) // 4))

    def is_reduced(self, f) -> bool:
        a, b, c = f
        if a == 0 or c == 0:
            return False
        return 0 < b <= self.s and b + 2 * abs(a) >= self.s + 1 and 2 * abs(a) - b <= self.s

    def _enumerate(self):
        out = []
        for b in range(1, self.s + 1):
            if (self.D - b * b) % 4:
                continue
            m = (self.D - b * b) // 4  # -4ac = D - b^2 > 0, so ac = -m < 0
            lo = max(1, (self.s + 1 - b + 1) // 2)
            hi = (self.s + b) // 2
            for aa in range(lo, hi + 1):
                if m % aa:
                    continue
                c = -(m // aa)
                for a in (aa, -aa):
                    f = (a, b, (self.D - b * b) // (-4 * a))
                    if self.is_reduced(f) and gcd(gcd(f[0], f[1]), f[2]) == 1:
                        out.append(f)
        return out

    def rho(self, f):
        """The reduction/cycle step."""
        a, b, c = f
        ac = abs(c)
        if ac > self.s:
            lo = -ac
        else:
            lo = self.s - 2 * ac
        # r = -b mod 2|c| in (lo, lo + 2|c|]
        r = lo + 1 + ((-b - lo - 1) % (2 * ac))
        return (c, r, (r * r - self.D) // (4 * c))

    def reduce(self, f):
        a, b, c = f
        g = gcd(gcd(a, b), c)
        if g > 1:
            raise ValueError("imprimitive form")
        n = 0
        while not self.is_reduced(f):
            f = self.rho(f)
            n += 1
            if n > 10000:
                raise RuntimeError("reduction did not terminate")
        return f

    def cycle(self, f):
        f = self.reduce(f)
        out = [f]
        g = self.rho(f)
        while g != f:
            out.append(g)
            g = self.rho(g)
        return out

    def canonical(self, f):
        f = self.reduce(f)
        if f in self._canon:
            return self._canon[f]
        cyc = self.cycle(f)
        rep = min(cyc)
        for g in cyc:
            self._canon[g] = rep
        return rep

    def principal_form(self):
        b = self.D % 2
        return (1, b, (b * b - self.D) // 4)

    def compose(self, f1, f2):
        """Gaussian composition of primitive forms of the same discriminant."""
        # use cycle representatives with positive leading coefficient
        f1 = self.reduce(f1)
        if f1[0] < 0:
            f1 = self.rho(f1)
        f2 = self.reduce(f2)
        if f2[0] < 0:
            f2 = self.rho(f2)
        a1, b1, c1 = f1
        a2, b2, c2 = f2
        g = (b1 + b2) // 2
        h = -(b1 - b2) // 2
        w = gcd(gcd(a1, a2), g)
        s = a1 // w
        t = a2 // w
        u = g // w
        mu, nu = _solve_linmod(t * u, h * u + s * c1, s * t)
        lam = _solve_linmod(t * nu, h - t * mu, s)[0] if s > 1 else 0
        k = mu + nu * lam
        l = (k * t - h) // s
        m = (t * u * k - h * u - c1 * s) // (s * t)
        A = s * t
        B = w * u - (k * t + l * s)
        C = k * l - w * m
        return self.canonical((A, B, C))

    def inverse(self, f):
        a, b, c = f
        return self.canonical((a, -b, c))

    def subgroup(self, gens) -> set:
        """Closure of the given classes (with inverses) under composition."""
        group = {self.one}
        frontier = [self.one]
        gens = [self.canonical(g) for g in gens] + [self.inverse(g) for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.compose(x, g)
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        return group


@dataclass
class ClassData:
    """Class numbers of F: the form class group plus the unit norm."""

    F: QuadField
    group: FormClassGroup
    h_plus: int
    h: int

    def form_of_place(self, place: PrimePlace):
        ell, D = place.ell, self.F.disc
        b = (2 * _w_residue(self.F, place) - D % 2) % (2 * ell)
        if (b * b - D) % (4 * ell):
            b += ell  # fix parity within mod 2*ell
        if (b * b - D) % (4 * ell):
            raise ArithmeticError(f"no form of discriminant {D} for {place}")
        return self.group.canonical((ell, b, (b * b - D) // (4 * ell)))

    def wide_subgroup_order(self, places: list[PrimePlace]) -> int:
        """Order of the subgroup of Pic(O_F) generated by the given primes."""
        G = self.group
        gens = [self.form_of_place(p) for p in places]
        big = G.subgroup(gens + [G.minus_one])
        return len(big) // len({G.one, G.minus_one})

    def order_mod(self, place: PrimePlace, prior: list[PrimePlace]) -> int:
        """Order of [lambda] in Pic(O_F[1/m]) for m = product of prior primes."""
        G = self.group
        H = G.subgroup([self.form_of_place(p) for p in prior] + [G.minus_one])
        f = self.form_of_place(place)
        x = f
        k = 1
        while x not in H:
            x = G.compose(x, f)
            k += 1
            if k > self.h + 1:
                raise RuntimeError("order computation failed")
        return k


def class_group(F: QuadField) -> ClassData:
    if F._class_data is not None:
        return F._class_data
    G = FormClassGroup(F.disc)
    eps = fundamental_unit(F)
    h = G.h_plus if eps.norm() == -1 else G.h_plus // 2
    # consistency: the minus-one class is principal iff a unit of norm -1 exists
    if (G.minus_one == G.one) != (eps.norm() == -1):
        raise ArithmeticError(f"minus-one class disagrees with N(eps) = {eps.norm()}")
    F._class_data = ClassData(F, G, G.h_plus, h)
    return F._class_data


def h_n(F: QuadField, n: int) -> int:
    """The n-class number: order of Pic(O_F[1/n])."""
    if n > 1 and gcd(n, F.conductor) != 1:
        raise ValueError("level must be coprime to the conductor")
    cd = class_group(F)
    places = [F.place_above(p) for p in F.split_primes(n)]
    return cd.h // cd.wide_subgroup_order(places)


# ---------------------------------------------------------------------------
# norm equation searches and the oriented unit lattice


def _norm_candidates(F: QuadField, target: int, y_bound: int):
    """Yield g = (x + y sqrt(D))/2 with |N(g)| = target, |y| <= y_bound."""
    D = F.disc
    for y in range(0, y_bound + 1):
        for s in (4 * target, -4 * target):
            t = D * y * y + s
            if t < 0:
                continue
            x = isqrt(t)
            if x * x != t:
                continue
            if (x - D * y) % 2:
                continue
            for sx in ((x, -x) if x else (x,)):
                # g = (sx + y sqrt(D))/2 as a QuadNum over sqrt(d)
                if D == F.d:
                    g = QuadNum(F.d, Fraction(sx, 2), Fraction(y, 2))
                else:
                    g = QuadNum(F.d, Fraction(sx, 2), y)
                if not g.is_zero():
                    yield g


def _search_bound(F: QuadField, target: int) -> int:
    eps = fundamental_unit(F)
    ef = float(eps.a) + float(eps.b) * F.d ** 0.5
    b = int((ef + 2.0) * 2.0 * (target ** 0.5) / (F.disc ** 0.5)) + 2
    if b > NORM_SEARCH_CAP:
        raise ResourceLimitError(f"norm-equation search bound {b} exceeds cap")
    return b


def lambda_generator(F: QuadField, place: PrimePlace) -> tuple[int, QuadNum]:
    """Least k with place^k principal in O_F, and a generator of place^k.

    The generator is the mixed generator with no prior primes: valuation k
    at the place, 0 at its conjugate, and norm +-ell^k.
    """
    k = class_group(F).order_mod(place, [])
    return k, _mixed_generator(F, place, k, [])


def _mixed_generator(F: QuadField, place: PrimePlace, k: int,
                     prior: list[PrimePlace]) -> QuadNum:
    """A generator of place^k times some ideal supported on the prior primes.

    Used to extend an oriented basis: the element has valuation exactly k at
    the place, 0 at its conjugate, and support inside the allowed primes.
    """
    cd = class_group(F)
    bound_exp = 2 * cd.h + 1
    combos = [1]
    for q in prior:
        combos = [m * q.ell ** e for m in combos for e in range(bound_exp)]
    for m in sorted(set(combos)):
        target = place.ell ** k * m
        try:
            yb = _search_bound(F, target)
        except ResourceLimitError:
            continue
        for g in _norm_candidates(F, target, yb):
            if local_parts(g, place)[0] != k or local_parts(g, place.conj())[0] != 0:
                continue
            if ideal_contained_support(F, g, [place.ell] + [q.ell for q in prior]):
                return g
    raise ResourceLimitError("no mixed generator found within the search bounds")


def ideal_contained_support(F: QuadField, g: QuadNum, primes: list[int]) -> bool:
    """True when (g) is supported only on primes above the given rationals."""
    n = g.norm()
    num = abs(n.numerator)
    den = n.denominator
    if den != 1:
        return False
    for p in primes:
        while num % p == 0:
            num //= p
    return num == 1


@dataclass
class UnitLattice:
    """An oriented basis of (1-tau)E_n, nested along the split primes."""

    basis: list[QuadNum]         # eps_0, ..., eps_r
    ords: list[list[int]]        # ords[i][j] = ord_{lambda_i}(eps_j), i >= 1
    places: list[PrimePlace]     # above the split primes, increasing

    def coords(self, u: QuadNum) -> list[int]:
        """The integers c_j with u = prod eps_j^(c_j).

        eps_j (j >= 1) is supported on the first j places, so `ords` is
        triangular and the c_j come off from the last place down; what is
        left over is a power of eps_0, read off from |u| and checked
        exactly.  Raises ValueError when u is not in the span.
        """
        c, v = [0] * len(self.basis), u
        for i in reversed(range(len(self.places))):
            c[i + 1], rem = divmod(local_parts(v, self.places[i])[0], self.ords[i][i + 1])
            if rem:
                break
            v = v / self.basis[i + 1] ** c[i + 1]
        else:
            c[0] = round(_log_abs(v) / _log_abs(self.basis[0]))
            if v == self.basis[0] ** c[0]:
                return c
        raise ValueError(f"{u!r} is not in the span of the unit basis")


def _log_abs(u: QuadNum) -> float:
    """log |u| for a unit u = a + b sqrt(d): one of |u| and |u^tau| = 1/|u|
    is |a| + |b| sqrt(d), which has no cancellation."""
    h = abs(u.a) + abs(u.b) * Fraction(u.d ** 0.5)
    return u.abs_cmp_one() * (log(h.numerator) - log(h.denominator))


def unit_basis(F: QuadField, n: int) -> UnitLattice:
    """An oriented nested basis of (1-tau)E_n and its places.

    It depends on n only through n_+, and is kept on F by n_+."""
    if n > 1 and gcd(n, F.conductor) != 1:
        raise ValueError("level must be coprime to the conductor")
    key = ("ub", F.n_plus(n))
    if key in F._basis_cache:
        return F._basis_cache[key]
    split = F.split_primes(n)
    places = [F.place_above(p) for p in split]
    cd = class_group(F)
    u = fundamental_unit(F)
    eps0 = u / u.conj()
    if eps0.abs_cmp_one() < 0:
        eps0 = QuadNum(F.d, 1) / eps0
    basis = [eps0]
    for i, place in enumerate(places):
        prior = places[:i]
        k = cd.order_mod(place, prior)
        g = _mixed_generator(F, place, k, prior)
        eps = g.conj() / g  # ord at place = -k < 0
        basis.append(eps)
    ords = []
    for i, place in enumerate(places):
        ords.append([local_parts(e, place)[0] for e in basis])
    lattice = UnitLattice(basis, ords, places)
    _orient(F, lattice)
    F._basis_cache[key] = lattice
    return lattice


def _orient(F: QuadField, lat: UnitLattice) -> None:
    """Flip basis elements so the regulator determinant is positive; the
    valuations are those kept in `lat.ords`."""
    sign = regulator_sign(F, lat.basis, lat.ords)
    if sign == 0:
        raise RuntimeError("degenerate unit basis")
    if sign < 0:
        lat.basis[-1] = QuadNum(F.d, 1) / lat.basis[-1]
        for row in lat.ords:
            row[-1] = -row[-1]
        if regulator_sign(F, lat.basis, lat.ords) <= 0:
            raise ArithmeticError("unit basis orientation did not flip")


def regulator_sign(F: QuadField, basis: list[QuadNum], ords: list[list[int]]) -> int:
    """Exact sign of det(log |eps_j|_{lambda_i}) with lambda_0 archimedean,
    from the valuations ords[i][j] = ord_{lambda_i}(eps_j), i >= 1.

    Expanding along integer rows leaves sum_j c_j log|eps_j| with integer
    cofactors c_j; its sign is the exact sign of (prod eps_j^{c_j})^2 - 1.
    """
    if len(basis) != len(ords) + 1:
        raise ValueError("basis size mismatch")
    r = len(ords)
    # integer matrix rows i=1..r: -ord_{lambda_i}(eps_j) (log ell > 0 factors out)
    M = [[-v for v in row] for row in ords]
    cof = []
    for j in range(r + 1):
        minor = [[M[i][jj] for jj in range(r + 1) if jj != j] for i in range(r)]
        cof.append((-1) ** j * _int_det(minor))
    y = QuadNum(F.d, 1)
    for j, c in enumerate(cof):
        y = y * basis[j] ** c
    return (y * y - QuadNum(F.d, 1)).sign()


def _int_det(M) -> int:
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * _int_det(minor)
    return total
