"""Exact arithmetic in Z[(Z/nZ)^x] and its augmentation-ideal quotients.

The augmentation ideal I_n of the group ring Z[Gamma_n] (n squarefree,
Gamma_n = (Z/nZ)^x) is a free Z-module on {g - 1 : g != 1}.  For a finite
abelian group, I^r / I^{r+1} (r >= 1) is the direct sum of the same
quotients for its Sylow subgroups G_p, through the maps induced by the
projections Gamma_n -> G_p (Passi, Group Rings and Their Augmentation
Ideals, LNM 715).  So each quotient I_n^r / I_n^{r+1} is built one Sylow
subgroup at a time.  G_p of Gamma_n is G_p of Gamma_{n_p}, n_p the product
of the primes l | n with p | l - 1, as the other factors of Gamma_n have
order prime to p.  In mixed-radix coordinates its quotients depend only on p
and the orders o_i of its cyclic factors <s_i>, so `_Lattices` keeps them on
gamma(n_p), where every degree and every level with the same n_p share them.
The embedding of G_p in Gamma_n is kept on gamma(n).

Each I(G_p)^r / I(G_p)^{r+1} is read in the monomials of Z[G_p]:

* The monomials x^beta = prod (s_i - 1)^(beta_i), 0 <= beta_i < o_i, are a
  Z-basis of Z[G_p], since Z[C_o] = Z[x]/((1+x)^o - 1).  The change from
  group elements is unitriangular: s^a = sum over beta of
  prod_i C(a_i, beta_i) x^beta, and x^beta = sum over a <= beta of
  prod_i (-1)^(beta_i - a_i) C(beta_i, a_i) s^a.  So the monomial
  coordinates of sum over h of x_h (h - 1) are y = x Mom, with
  Mom[h, beta] = prod_i C(digit_i(h), beta_i): binomial moments of the
  mixed-radix digits (`_Lattices.moments`, which both paths below share).

Where r <= 2 or r < p the quotient has explicit coordinates, the moments
(`_Lattices._moment_degree`): I^r/I^{r+1} = Sym^r(G_p), the sum over
|beta| = r of Z/d_beta, d_beta the least o_i over the support of beta,
with basis the classes of the x^beta over all such beta, not cut at
o_i - 1 (I/I^2 = G_p and I^2/I^3 = SP^2(G_p) at every p, Passi, LNM 715).
The x^beta with |beta| >= r + 1 lie in I^{r+1}, and
o_i x_i = -sum over j >= 2 of C(o_i, j) x_i^j, where o_i divides C(o_i, j)
for j < p.  So a lower term t d_beta x^beta moves only multiples of d_beta
to higher monomials of the same support: x is in I^r exactly when every
lower moment y_beta (|beta| < r) is 0 mod d_beta, and its class is
(y_beta mod d_beta), |beta| = r, with one correction at r = 2.  There the
term j = 2 at a square survives when p = 2: y_(e_i) = o_i t, and
t o_i x_i = -t C(o_i, 2) x_i^2 mod I^3, so the class at x_i^2 is
y_(2e_i) - (o_i - 1)/2 y_(e_i).  For odd p the correction is a multiple
of o_i and vanishes.  (At p = 2 the square of a factor C_2 is thus a basis
class though x_i^2 = -2 x_i is no monomial of Z[C_2].)  No normal form runs.

Every other degree (r >= 3 and r >= p) is computed in a truncation of
Z[G_p], whose rank does not depend on |G_p| (`_Lattices._lattice_degree`):

* H_{r+1}, the span of the x^beta with |beta| >= r + 1, lies in I^{r+1},
  which lies in I^r.  So I^r/I^{r+1} = (I^r/H_{r+1}) / (I^{r+1}/H_{r+1}),
  two lattices in Z^N, N = #{beta : 1 <= |beta| <= r, beta_i < o_i}: 15
  for C_2 x C_4 x C_16 at r = 3, where |G_p| - 1 = 127.
* I(G_p)^j is the sum over |alpha| = j of the tensor products of the
  I(C_o_i)^alpha_i, because I(C_o)^a = x^a Z[C_o].  For a >= 1, I(C_o)^a has
  the Z-basis x^a, ..., x^(a+o-2), reduced mod (1+x)^o - 1; `_Lattices.cyclic`
  keeps its Hermite form.  So I^{r+1}/H_{r+1} is spanned by Kronecker
  products of the rows of these small bases, and the products whose pivot
  degrees sum past r vanish.  Its Hermite form runs mod e_p^r, because
  e_p I(G_p)^r lies in I(G_p)^{r+1} for e_p = exponent(G_p) (see intmat).
  I^r/H_{r+1} is I^r/H_r, the lattice of the degree below, beside the
  monomials of degree r, which all lie in I^r.
* Each degree keeps C = m_r B_r^(-1) mod e_p^r, B_r the Hermite basis of
  I(G_p)^r/H_{r+1} and m_r = e_p^(r-1) (integral, as m_r Z^N lies in it):
  y is in I(G_p)^r exactly when y C = 0 mod m_r, and y C / m_r are its
  coordinates over B_r.  The Smith form runs only on the positions S where
  the relation matrix B_{r+1} C / m_r has a pivot other than 1.

A class holds the nontrivial coordinates of each Sylow component, in order
of p, each reduced mod its elementary divisor (one row of a `ClassTensor`,
below); within a component they ascend, as in a Smith form.
`_Sylow.smith_coords` is the one place where (g-1)-coordinates become
class coordinates, by one product x CV mod e_p^r on both paths: the first
columns of CV must give 0 mod m_r (membership), the others, divided by
m_r, are the class.  On the moment path these columns are m_r / d_beta and
m_r times the moments (and the correction); on the lattice path they are
Mom times the columns of C and of C times the Smith transform.  Reducing x
mod e_p^r first changes nothing, because
e_p^r Z^k = e_p (e_p^(r-1) Z^k) lies in e_p I(G_p)^r, which lies in
I(G_p)^{r+1}.  So a vector known only mod m has a class in
component p when e_p^r divides p^(v_p(m)), and `PrecisionError` is raised
when p | m and it does not; for p not dividing m the component of
Z/m (x) I^r/I^{r+1} is zero.  The least m that fixes every component, the
product of the e_p^r, is `AugQuot.precision`; the theta side in `darmon`
takes its odd part.

The induced maps on classes are integer matrices, built the first time they
are used and kept read-only on the quotient they start from (the products on
the one they land in), so they die with it.  They act on monomial exponents
on both paths.  A degree is read from the exponent rows `gens`: on the
moment path the basis monomials, on the lattice path all of
`monomials(r)`, with `reps` (the basis classes as rows over gens) and
`reader` (the columns [C | C V] that read monomial coordinates, so that
CV = Mom reader); on the moment path both are the identity, None.  A group
homomorphism maps G_p into the Sylow p-subgroup of its target, so the
matrices of pi_d and of the inclusions of levels are block-diagonal over p,
and it sends x_l = s_l - 1 to x'_l, or to 0 when s_l goes to 1 (Passi,
LNM 715; `_Sylow.factor_index`).  So a block moves the exponents of each
monomial of gens to the target's factors, or sends it to 0 when it touches
a dropped factor, applies the source's reps and lets the target read.
Products of classes vanish across primes, and within G_p they are bilinear,
so multiplying by a class v is the matrix `AugQuot.mult_matrix(qa, v)`,
contracted once from one table of structure constants per component and
kept on the product's quotient by the degrees of qa and v and v's row (all
three share one level).  The table is x^alpha x^beta = x^(alpha + beta)
over the factors' gens, placed on the product's gens (`_Sylow.place`): by
index on the moment path, and on the lattice path through the wrap
x^o = -sum over 0 < j < o of C(o, j) x^j of each factor, cut above degree R;
then the factors' reps and the product's read.  No map builds a |G_p|-long
vector.  The lifts, group-ring representatives of the basis classes, are
built on first read (`_Lattices.lifts`: reps times the x^beta, each a
Kronecker product of its factors' (s - 1)^b) and serve only `AugQuot.lift`,
which checks the maps and products in the group ring.

Both sides of Darmon's formula and the synthetic Kolyvagin systems take
values in A (x) I_n^r/I_n^{r+1} for a finitely generated abelian group
A = sum of Z/M_j.  `ClassTensor` is that one format: an int64 matrix with
one row per generator of A and one column per class coordinate, entry
(j, i) reduced mod gcd(M_j, d_i) (M_j = 0: a free generator).  Every
induced map acts on it as one product rows @ P with the matrices above.
A class of I^r/I^{r+1} is its one-row case A = Z, moduli (0,), and a class
in Z/m (x) I^r/I^{r+1} the one-row case with moduli (m,); every function
here that gives a class gives one of these.  `cycles_through` expands the
single-cycle sums of the determinant lemma, for the regulator and the
synthetic systems alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, lcm, prod

import numpy as np

from . import nt
from .intmat import check_modulus, hnf_exact, hnf_mod, hnf_solve_mod, matmul_mod, snf_mod
from .nt import ResourceLimitError

PHI_CAP = 1 << 14


class UnitGroupMod:
    """The unit group Gamma_n = (Z/nZ)^x of a squarefree level n."""

    def __init__(self, n: int):
        if n < 1 or not nt.is_squarefree(n):
            raise ValueError(f"level must be a squarefree positive integer, got {n}")
        self.n = n
        self.primes = tuple(nt.prime_factors(n))
        self.identity = 1 % n
        self.elements = tuple(r for r in range(n) if gcd(r, n) == 1) if n > 1 else (0,)
        self.phi = len(self.elements)
        # least primitive root of each odd prime factor, embedded via CRT
        self.gens = {}
        for p in self.primes:
            if p == 2:
                continue
            self.gens[p] = self.embed_from(p, nt.primitive_root(p))
        self.exponent = lcm(*[p - 1 for p in self.primes]) if self.primes else 1
        # by p: (lattices, elems, proj, owners) of G_p here (`sylow`), and
        # the lattices of G_p kept here when this level is n_p
        self.sylows: dict[int, tuple] = {}
        self.lattices: dict[int, _Lattices] = {}

    def sylow(self, p: int) -> tuple:
        """(lattices, elems, proj, owners) of the Sylow p-subgroup G_p.

        G_p (p | exponent) is the product of the cyclic groups <s_l> of
        orders p^v, s_l = gen_l^((l-1)/p^v) for v = v_p(l-1) > 0, and
        prod s_l^(i_l) sits at the mixed-radix index of (i_l), first digit
        fastest; owners[j] is the prime l of digit j.  elems are the elements
        other than 1, and proj, an array over the residues mod n, holds at
        each g in Gamma_n the coordinate of g^a - 1 (-1 where g^a = 1, and at
        the residues not in Gamma_n), a = 1 mod e_p and a = 0 mod e/e_p.
        """
        if p not in self.sylows:
            elems, orders, owners = [self.identity], [], []
            for l, g in self.gens.items():
                v = nt.valuation(l - 1, p)
                if v:
                    s = self.power(g, (l - 1) // p ** v)
                    elems = [self.mult(x, self.power(s, i)) for i in range(p ** v) for x in elems]
                    orders.append(p ** v)
                    owners.append(l)
            pos = {g: i for i, g in enumerate(elems[1:])}
            ep = max(orders)
            a = self.exponent // ep * pow(self.exponent // ep, -1, ep)
            proj = np.full(self.n, -1, dtype=np.int64)
            proj[list(self.elements)] = [pos.get(self.power(g, a), -1) for g in self.elements]
            home = gamma(prod(owners)).lattices
            if p not in home:
                home[p] = _Lattices(tuple(orders))
            self.sylows[p] = home[p], elems[1:], proj, tuple(owners)
        return self.sylows[p]

    def mult(self, a: int, b: int) -> int:
        return a * b % self.n if self.n > 1 else 0

    def power(self, a: int, k: int) -> int:
        return pow(a, k, self.n) if self.n > 1 else 0

    def embed_from(self, m: int, r: int) -> int:
        """Image of r in Gamma_m under Gamma_m -> Gamma_n (r mod m, 1 mod n/m)."""
        if self.n % m:
            raise ValueError(f"{m} does not divide {self.n}")
        if self.n == 1:
            return 0
        if m == 1:
            return self.identity
        return nt.crt([r % m, 1 % (self.n // m)], [m, self.n // m])

    def project(self, a: int, d: int) -> int:
        """pi_d at the group level: a mod d, re-embedded into Gamma_n."""
        if self.n % d:
            raise ValueError(f"{d} does not divide {self.n}")
        return self.embed_from(d, a % d if d > 1 else 0)

    def __len__(self):
        return self.phi

    def __repr__(self):
        return f"UnitGroupMod({self.n})"


@lru_cache(maxsize=None)
def gamma(n: int) -> UnitGroupMod:
    """The group Gamma_n with CRT data and fixed generators."""
    return UnitGroupMod(n)


class RingElt:
    """A sparse element of Z[Gamma_n]."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: dict[int, int] | None = None):
        self.level = level
        self.coeffs = {g: c for g, c in (coeffs or {}).items() if c}

    @staticmethod
    def unit(level: int, g: int | None = None) -> RingElt:
        G = gamma(level)
        return RingElt(level, {G.identity if g is None else g: 1})

    @staticmethod
    def gen_minus_one(level: int, g: int) -> RingElt:
        G = gamma(level)
        if g == G.identity:
            return RingElt(level)
        return RingElt(level, {g: 1, G.identity: -1})

    def __add__(self, other: RingElt) -> RingElt:
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return RingElt(self.level, out)

    def __sub__(self, other: RingElt) -> RingElt:
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) - c
        return RingElt(self.level, out)

    def __neg__(self) -> RingElt:
        return RingElt(self.level, {g: -c for g, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElt(self.level, {g: c * other for g, c in self.coeffs.items()})
        if other.level != self.level:
            raise ValueError("levels differ; embed first")
        G = gamma(self.level)
        out: dict[int, int] = {}
        for g1, c1 in self.coeffs.items():
            for g2, c2 in other.coeffs.items():
                g = G.mult(g1, g2)
                out[g] = out.get(g, 0) + c1 * c2
        return RingElt(self.level, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, RingElt) and self.level == other.level and self.coeffs == other.coeffs

    def aug(self) -> int:
        return sum(self.coeffs.values())

    def pi(self, d: int) -> RingElt:
        """The map pi_d: project each group element to Gamma_d inside Gamma_n."""
        G = gamma(self.level)
        out: dict[int, int] = {}
        for g, c in self.coeffs.items():
            h = G.project(g, d)
            out[h] = out.get(h, 0) + c
        return RingElt(self.level, out)

    def embed(self, n: int) -> RingElt:
        """Image under Z[Gamma_m] -> Z[Gamma_n] for m | n."""
        G = gamma(n)
        out: dict[int, int] = {}
        for g, c in self.coeffs.items():
            h = G.embed_from(self.level, g)
            out[h] = out.get(h, 0) + c
        return RingElt(n, out)

    def __repr__(self):
        return f"RingElt({self.level}, {self.coeffs})"


class _Lattices:
    """I(G_p)^r / I(G_p)^{r+1} for G_p a product of cyclic p-groups of
    `orders` (module docstring).

    Every degree is read from the monomials x^beta of its `gens`.  A degree
    with r <= 2 or r < p is read by moments (`_moment_degree`); every other
    one is computed in the truncation Z[G_p]/H_{r+1} (`_lattice_degree`),
    from the Hermite basis of I^{r+1}/H_{r+1} per degree r (`high`) and that
    of the cyclic factor's I(C_o)^a per (order, power, cut) (`cyclic`).  All
    are built on first use, and the degrees share them.
    """

    def __init__(self, orders: tuple[int, ...]):
        self.orders = orders
        self.ep = max(orders)
        self.p = nt.prime_factors(self.ep)[0]
        # mixed-radix digits of the elements other than 1, first digit fastest
        self.digits = np.array(np.unravel_index(np.arange(1, prod(orders)), orders, order="F"))
        self.highs: dict[int, np.ndarray] = {}
        self.degrees: dict[int, tuple] = {}
        self._lifts: dict[int, np.ndarray] = {}
        self._places: dict[int, np.ndarray] = {}
        self._cyclic: dict[tuple, list[list[int]]] = {}
        self._monomials: dict[int, np.ndarray] = {}

    def cuts(self, r: int) -> list[int]:
        """The top degree of each factor below H_{r+1}: min(o - 1, r)."""
        return [min(o - 1, r) for o in self.orders]

    def monomials(self, r: int) -> np.ndarray:
        """The exponents beta of the monomials with 1 <= |beta| <= r, one per
        row, ordered by total degree (so those of degree r - 1 come first)."""
        if r not in self._monomials:
            betas = [b for b in itertools.product(*[range(c + 1) for c in self.cuts(r)])
                     if 0 < sum(b) <= r]
            self._monomials[r] = np.array(sorted(betas, key=lambda b: (sum(b), b)),
                                          dtype=np.int64).reshape(-1, len(self.orders))
        return self._monomials[r]

    def moments(self, betas: np.ndarray, mod: int) -> np.ndarray:
        """Mom[h, j] = prod_i C(digit_i(h), betas[j, i]) mod `mod`, one row
        per element h != 1: the coordinate of h - 1 at x^(betas[j])."""
        mom = np.ones((self.digits.shape[1], len(betas)), dtype=np.int64)
        for o, dig, beta in zip(self.orders, self.digits, betas.T):
            binom = np.array([[comb(a, b) % mod for b in range(int(beta.max(initial=0)) + 1)]
                              for a in range(o)], dtype=np.int64)
            mom = mom * binom[dig[:, None], beta] % mod
        return mom

    def elements(self, betas: np.ndarray) -> np.ndarray:
        """x^beta = prod_i (s_i - 1)^(beta_i) in (g-1)-coordinates, one row
        per beta: the Kronecker product over the factors of
        (s - 1)^b = sum over a <= b of (-1)^(b - a) C(b, a) s^(a mod o)."""
        out = np.ones((len(betas), 1), dtype=np.int64)
        for o, beta in zip(self.orders, betas.T):
            f = np.zeros((int(beta.max(initial=0)) + 1, o), dtype=np.int64)
            for b in range(len(f)):
                for a in range(b + 1):
                    f[b, a % o] += (-1) ** (b - a) * comb(b, a)
            out = (f[beta][:, :, None] * out[:, None, :]).reshape(len(betas), -1)
        return out[:, 1:]  # x^beta has augmentation 0: drop the identity

    def lifts(self, r: int) -> np.ndarray:
        """Representatives of the basis classes of degree r, exact and valid
        mod I^{r+1}, in (g-1)-coordinates, one per row: reps times the x^beta
        of gens (`degree`).  Built on first read; only `AugQuot.lift` reads
        them."""
        if r not in self._lifts:
            _, _, gens, reps, _ = self.degree(r)
            x = self.elements(gens)
            self._lifts[r] = _frozen(x if reps is None else reps @ x)
        return self._lifts[r]

    def places(self, r: int) -> np.ndarray:
        """x^beta over the gens of degree r, one row per beta with every
        beta_i <= r, in C order; built on first read (`_Sylow.place`).

        Per factor, x^e is itself up to the top exponent c of gens in that
        factor, and past it x^e = -sum over 0 < j < o of C(o, j) x^(e-o+j),
        as Z[C_o] = Z[x]/((1+x)^o - 1); the terms of the Kronecker product
        that are no monomial of gens have degree above r, in H_{r+1}.  On
        the moment path c = r, so no exponent wraps and the rows are 0/1.
        """
        if r not in self._places:
            gens = self.degree(r)[2]
            cuts = gens.max(axis=0)
            out = np.ones((1, 1), dtype=np.int64)
            for o, c in zip(self.orders, cuts):
                W = np.eye(r + 1, c + 1, dtype=np.int64)
                for k in range(max(o, c + 1), r + 1):
                    W[k] = -sum(comb(o, j) * W[k - o + j] for j in range(1, o))
                out = (out[:, None, :, None] * W[:, None]).reshape(len(out) * (r + 1), -1)
            self._places[r] = _frozen(out[:, np.ravel_multi_index(gens.T, cuts + 1)])
        return self._places[r]

    def cyclic(self, o: int, a: int, R: int) -> list[list[int]]:
        """Hermite basis of I(C_o)^a (a >= 1) in the monomials x, ..., x^R
        of Z[C_o] = Z[x]/((1+x)^o - 1), cut below degree R + 1 (R <= o - 1).

        I^a = x I^{a-1}, so x times a basis of I^{a-1} is a basis of I^a:
        the shift of each row, where x * x^(o-1) = -sum_j C(o, j) x^j.  Cut at
        R < o - 1, the row x^(o-1) of I^{a-1} is gone, and its image under x
        is added back; every other row then ends below degree a - 1 <= R.
        """
        key = (o, a, R)
        if key not in self._cyclic:
            wrap = [-comb(o, j) for j in range(1, R + 1)]
            if a == 1:
                rows = [[int(i == j) for j in range(R)] for i in range(R)]
            else:
                rows = [wrap] if R < o - 1 else []
                for row in self.cyclic(o, a - 1, R):
                    top = row[-1] if R == o - 1 else 0
                    rows.append([x + top * w for x, w in zip([0] + row[:-1], wrap)])
                rows = hnf_exact(rows, R)
            self._cyclic[key] = rows
        return self._cyclic[key]

    def high(self, r: int) -> np.ndarray:
        """Hermite basis of I^{r+1}/H_{r+1} on `monomials(r)`; it contains
        e_p^r Z^N.  With one factor it is the cyclic basis itself."""
        if r not in self.highs:
            cuts = self.cuts(r)
            if len(cuts) == 1:
                B = np.array(self.cyclic(self.ep, r + 1, cuts[0]), dtype=np.int64)
                self.highs[r] = B.reshape(cuts[0], cuts[0])
            else:
                mod = self.ep ** r
                cols = np.ravel_multi_index(self.monomials(r).T, [c + 1 for c in cuts])
                self.highs[r] = hnf_mod(self._products(r, mod)[:, cols], mod)
        return self.highs[r]

    def _products(self, r: int, mod: int) -> np.ndarray:
        """Rows spanning I^{r+1} mod H_{r+1} and mod `mod`, on the monomials
        beta_i <= min(o_i - 1, r) in Kronecker order.

        I^{r+1} is the sum over |alpha| = r + 1 of the tensor products of the
        I(C_o_i)^alpha_i, so it is spanned by the Kronecker products of one
        row of the basis of each I(C_o_i)^alpha_i; a product whose pivots
        (least degrees) sum past r lies in H_{r+1}.
        """
        # per factor: the rows of its I^0 = Z[C_o], I^1, ..., I^{r+1} on
        # degrees 0..R, with the power and the least degree of each row
        stacks = []
        for o, R in zip(self.orders, self.cuts(r)):
            rows = [[int(i == j) for j in range(R + 1)] for i in range(R + 1)]
            powers, least = [0] * (R + 1), list(range(R + 1))
            for a in range(1, r + 2):
                rows += [[0] + [x % mod for x in row] for row in self.cyclic(o, a, R)]
                powers += [a] * R
                least += range(1, R + 1)
            stacks.append((np.array(rows, dtype=np.int64), np.array(powers), np.array(least)))
        # the choices of one row per factor with powers summing to r + 1 and
        # least degrees summing to at most r
        asum, dsum, picks = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), []
        for i, (_, powers, least) in enumerate(stacks):
            A, D = (asum[:, None] + powers).ravel(), (dsum[:, None] + least).ravel()
            ok = (D <= r) & ((A == r + 1) if i == len(stacks) - 1 else (A <= r + 1))
            parent, own = np.divmod(np.flatnonzero(ok), len(powers))
            picks = [j[parent] for j in picks] + [own]
            asum, dsum = A[ok], D[ok]
        M = stacks[0][0][picks[0]]
        for (B, _, _), j in zip(stacks[1:], picks[1:]):
            M = (M[:, :, None] * B[j][:, None, :]).reshape(len(j), -1) % mod
        return M

    def degree(self, r: int) -> tuple:
        """(CV, invariants, gens, reps, reader) of I^r/I^{r+1}, r >= 1.

        One product x CV of (g-1)-coordinates x, mod e_p^r, gives both the
        membership test and the class (`_Sylow.smith_coords`).  gens are the
        exponent rows of the monomials the degree is read from: the basis
        monomials on the moment path, where reps and reader are None (the
        identity), and `monomials(r)` on the lattice path, where the rows of
        reps are the basis classes over gens and y reader reads monomial
        coordinates y as y CV reads (g-1)-coordinates (CV = Mom reader).
        Raises ResourceLimitError when e_p^r is too large for int64
        products.
        """
        if r not in self.degrees:
            check_modulus(self.ep ** r)
            data = self._moment_degree(r) if r <= 2 or r < self.p else self._lattice_degree(r)
            _frozen(data[0])  # shared by every quotient that reads it
            self.degrees[r] = data
        return self.degrees[r]

    def _moment_degree(self, r: int) -> tuple:
        """Degree r <= 2 or r < p: I^r/I^{r+1} = Sym^r(G_p), the sum over
        |beta| = r of Z/d_beta, d_beta the least o_i over the support of
        beta, with basis the classes of the x^beta (module docstring).

        x lies in I^r exactly when every lower moment y_beta (|beta| < r)
        is 0 mod d_beta, and its class is (y_beta mod d_beta), |beta| = r,
        at r = 2 corrected at each square by the wrap term of
        o_i x_i = -C(o_i, 2) x_i^2 mod I^3.  In the format of the lattice
        path, with m_r = e_p^(r-1): the membership columns are
        m_r / d_beta times the moments, the class columns m_r times them.
        """
        mod, m_r = self.ep ** r, self.ep ** (r - 1)
        low = self.monomials(r - 1)  # every |beta| < r, as no beta_i reaches o_i
        factors = np.arange(len(self.orders))
        # the multisets of r factors, counted per factor
        top = (np.array(list(itertools.combinations_with_replacement(factors, r)))[:, :, None]
               == factors).sum(axis=1)
        def least(betas):  # d_beta of each row
            return np.where(betas > 0, self.orders, self.ep).min(axis=1)

        # by d_beta, then beta: the invariants ascend, as a Smith form's do
        top = top[np.lexsort(np.vstack([top.T[::-1], least(top)]))]
        CV = np.hstack([self.moments(low, mod) * (m_r // least(low)),
                        self.moments(top, mod) * m_r])
        if r == 2:
            # the class of x is y_(2e_i) - (y_(e_i) / o_i) C(o_i, 2) at x_i^2;
            # e_p C(o_i, 2) / o_i = e_p (o_i - 1) / 2 is an integer
            sq = np.flatnonzero(top.max(axis=1) == 2)
            i = top[sq].argmax(axis=1)
            o = np.array(self.orders)[i]
            CV[:, len(low) + sq] -= self.digits[i].T * (self.ep * (o - 1) // 2)
        return CV % mod, tuple(int(d) for d in least(top)), top, None, None

    def _lattice_degree(self, r: int) -> tuple:
        """Degree r >= 3 with r >= p, through the Hermite chain.

        B_r, the Hermite basis of I^r/H_{r+1}, is that of I^r/H_r (`high`
        of r - 1) beside the monomials of degree r, which all lie in I^r.
        It contains m_r Z^N for m_r = e_p^(r-1), so C = m_r B_r^(-1) is
        integral; it is kept mod e_p^r.  Then y lies in I^r exactly when
        y C = 0 mod m_r, and y C / m_r mod e_p are its coordinates over B_r.
        Since e_p^r Z^N lies in I^{r+1}, y may be reduced mod e_p^r first.

        The relations X = B_{r+1} C / m_r (mod e_p, as e_p I^r lies in
        I^{r+1}) are upper triangular with unit diagonal outside a small set
        S.  Back substitution expresses every basis vector through those of
        S (the map T, with T[s] = e_s), so Smith form runs on the |S| x |S|
        block X[S] T alone; V = T V_S, and reps are the rows of W_S at the
        positions S, times B_r: the basis classes over the monomials.

        The reader is the columns of C that are not 0 mod m_r (the others
        pass every y) beside C V, mod e_p^r; CV is the binomial moments Mom
        (`moments`) times it.
        """
        ep, betas = self.ep, self.monomials(r)
        k, m_r, mod = len(betas), ep ** (r - 1), ep ** r
        low = np.eye(k, dtype=np.int64)
        prev = self.high(r - 1)
        low[:len(prev), :len(prev)] = prev
        C = hnf_solve_mod(low, m_r * np.eye(k, dtype=np.int64), mod)
        Z = matmul_mod(self.high(r), C, mod)
        if np.any(Z % m_r):
            raise ValueError("I^{r+1} is not inside I^r")
        X = Z // m_r
        S = np.flatnonzero(np.diagonal(X) != 1)
        T = np.zeros((k, len(S)), dtype=np.int64)
        T[S, np.arange(len(S))] = 1
        for c in range(k - 1, -1, -1):
            if X[c, c] == 1:
                T[c] = -(X[c, c + 1:] @ T[c + 1:]) % ep
        d, V, W = snf_mod(X[S] @ T % ep, ep)
        keep = [i for i, di in enumerate(d) if di > 1]
        V = T @ V[:, keep] % ep
        reader = np.hstack([C[:, np.any(C % m_r, axis=0)], matmul_mod(C, V, mod)])
        return (matmul_mod(self.moments(betas, mod), reader, mod), tuple(d[i] for i in keep),
                betas, W[keep] @ low[S], reader)


class PrecisionError(ArithmeticError):
    """A vector known only mod m cannot fix its class: some component has
    p^(v_p(m)) < e_p^r."""


class _Sylow:
    """I(G_p)^r / I(G_p)^{r+1} for the Sylow p-subgroup G_p of Gamma_n.

    Reads the lattices of G_p from gamma(n_p), n_p the product of the
    primes l | n with p | l - 1: G_p of Gamma_n is G_p of Gamma_{n_p}, as
    the other factors of Gamma_n have order prime to p.  g maps to its
    p-part g^a (a = 1 mod e_p, a = 0 mod e/e_p).  The degree is read from
    the monomials x^beta of `gens` (`_Lattices.degree`): the induced maps
    move their exponents (`place`), take them to the basis classes
    (`spread`) and read the result (`read`).  `lifts` are built on first
    read.
    """

    def __init__(self, G: UnitGroupMod, p: int, r: int):
        self.lattices, self.elems, self.proj, self.owners = G.sylow(p)
        self.p, self.degree, self.ep, self.orders = p, r, self.lattices.ep, self.lattices.orders
        self.CV, self.invariants, self.gens, self.reps, self.reader = self.lattices.degree(r)

    @property
    def lifts(self) -> np.ndarray:
        return self.lattices.lifts(self.degree)

    def smith_coords(self, x: np.ndarray, m: int | None = None) -> np.ndarray | None:
        """Class coordinates, not yet reduced, of elements of I(G_p)^r.

        x holds (g-1)-coordinates, one vector or one per row, as exact
        integers, or known only mod m: that fixes the class when e_p^r
        divides p^(v_p(m)), and raises PrecisionError when it does not.
        One product with CV (see `_Lattices.degree`); None when some row is
        not in I(G_p)^r.
        """
        mod = self.ep ** self.degree
        if m is not None and m % mod:
            raise PrecisionError(f"p^v_p({m}) < e_p^r = {mod} for p = {self.p}")
        return self._split(matmul_mod(x, self.CV, mod))

    def _split(self, z: np.ndarray) -> np.ndarray | None:
        """The class columns of z = y CV or y reader, divided by m_r; None
        when a membership column is not 0 mod m_r."""
        j, m_r = z.shape[-1] - len(self.invariants), self.ep ** (self.degree - 1)
        if np.any(z[..., :j] % m_r):
            return None
        return z[..., j:] // m_r

    def factor_index(self, tc: _Sylow, d: int) -> list[int]:
        """Where g -> (g mod d, included in tc's level) sends each cyclic
        factor: the position in tc of its prime l, or -1 when l does not
        divide d (the factor maps to 1)."""
        return [tc.owners.index(l) if d % l == 0 else -1 for l in self.owners]

    def place(self, betas: np.ndarray) -> np.ndarray:
        """x^beta for each row of betas (entries at most r), one row over
        `gens`: an index into `_Lattices.places`."""
        strides = (self.degree + 1) ** np.arange(len(self.orders) - 1, -1, -1)
        return self.lattices.places(self.degree)[betas @ strides]

    def spread(self, y: np.ndarray, mod: int) -> np.ndarray:
        """reps @ y mod `mod`, y indexed by `gens` along its first axis: the
        same for the representatives of the basis classes; y itself on the
        moment path, where reps is None."""
        if self.reps is None:
            return y
        z = matmul_mod(self.reps, y.reshape(len(y), -1), mod)
        return z.reshape(len(self.reps), *y.shape[1:])

    def read(self, y: np.ndarray) -> np.ndarray:
        """The reduced classes of the rows y over `gens`, elements of I^r
        mod H_{r+1}: y reader on the lattice path, and y itself on the
        moment path, where gens are the basis and `place` gives 0/1 rows."""
        if self.reader is None:
            return y
        z = self._split(matmul_mod(y, self.reader, self.ep ** self.degree))
        if z is None:
            raise ArithmeticError("image does not lie in the expected ideal power")
        return z % np.array(self.invariants, dtype=np.int64)


class AugQuot:
    """The finite presentation of I_n^r / I_n^{r+1}.

    In degree r >= 1 the quotient is the direct sum of the same quotients
    for the Sylow subgroups G_p of Gamma_n, one `_Sylow` component per prime
    p dividing e = exponent(Gamma_n).  A class is the one-row `ClassTensor`
    of the components' class coordinates (moments or Smith coordinates),
    concatenated in order of p; `invariants` are the matching elementary divisors (prime powers,
    not a Smith chain: see `smith_chain`).
    """

    def __init__(self, n: int, r: int):
        if r < 0:
            raise ValueError("degree must be nonnegative")
        G = gamma(n)
        if G.phi > PHI_CAP:
            raise ResourceLimitError(f"phi({n}) = {G.phi} exceeds the configured bound")
        self.gamma = G
        self.level = n
        self.degree = r
        self.ambient_rank = G.phi
        self.exponent_m = G.exponent
        # induced maps, built on first use and read-only: pi_d by d, the
        # inclusion into level N by N, the product tables by the degrees of
        # the factors, multiplication by a class v by (degree of the left
        # factor, degree of v, bytes of v's row)
        self._pi_matrices: dict[int, np.ndarray] = {}
        self._embed_matrices: dict[int, np.ndarray] = {}
        self._mult_tables: dict[tuple[int, int], list[np.ndarray]] = {}
        self._mult_matrices: dict[tuple[int, int, bytes], np.ndarray] = {}
        self._split_cache: dict[tuple, dict] = {}
        self._dets: dict[int, tuple] = {}
        self._perm_pis: dict[tuple, ClassTensor] = {}  # Pi(sigma) by moved pairs
        self._group_classes: dict[int, ClassTensor] = {}
        # (divisors, free entries) of the tensor fold, by the moduli of A
        self._folds: dict[tuple, tuple] = {}
        self._components: list[_Sylow] = []
        self._slices: list[slice] = []  # each component's class coordinates
        if r == 0:
            # I^0/I^1 is Z via the augmentation; classes carry one integer.
            self.invariants = (0,)
            self.order = 0
            return
        self._components = [_Sylow(G, p, r) for p in nt.prime_factors(G.exponent)]
        start = 0
        for c in self._components:
            self._slices.append(slice(start, start + len(c.invariants)))
            start += len(c.invariants)
        self.invariants = tuple(d for c in self._components for d in c.invariants)
        self.order = prod(self.invariants)

    @property
    def precision(self) -> int:
        """The least m such that every vector known mod m fixes its class:
        the product over the components of e_p^r (`_Sylow.smith_coords`)."""
        return prod(c.ep ** self.degree for c in self._components)

    # -- element <-> class ------------------------------------------------

    def class_of_sum(self, keys, coeffs, moduli=None) -> ClassTensor | None:
        """Row k: the class of sum over the keys g of coeffs[k][i] (g - 1), g
        the i-th key, for degree >= 1.

        Each component takes the image under g -> g^(a_p), one index array
        over the keys, and sums each row's coefficients by `np.add.at`.  They
        are exact integers (moduli None), or row k is known only mod
        moduli[k], in Z/moduli[k] (x) I^r/I^{r+1}.  A component with p not
        dividing moduli[k] is zero there and is not read; one with p | it
        must be fixed by the vector, e_p^r dividing p^(v_p(moduli[k]))
        (PrecisionError if not).  None when some row is not in I^r.
        """
        keys, coeffs = np.asarray(keys, dtype=np.int64), np.asarray(coeffs, dtype=np.int64)
        moduli = tuple(moduli or (0,) * len(coeffs))
        y = np.zeros((len(coeffs), len(self.invariants)), dtype=np.int64)
        for comp, part in zip(self._components, self._slices):
            live = [k for k, m in enumerate(moduli) if m % comp.p == 0]
            if not live:
                continue
            # the keys with g^a = 1 (proj -1) land in an extra last slot
            x = np.zeros((len(comp.elems) + 1, len(live)), dtype=np.int64)
            for j, k in enumerate(live):
                np.add.at(x[:, j], comp.proj[keys], coeffs[k])
            x = comp.smith_coords(x[:-1].T, gcd(*(moduli[k] for k in live)) or None)
            if x is None:
                return None
            y[live if len(live) < len(y) else slice(None), part] = x
        return ClassTensor(self, moduli, y)

    def class_of(self, v: RingElt) -> ClassTensor:
        """Reduce an element of I^r to its class; raises if v is not in I^r."""
        if v.level != self.level:
            raise ValueError("level mismatch")
        if self.degree == 0:
            return ClassTensor(self, (0,), [[v.aug()]])
        if v.aug() != 0:
            raise ValueError("element is not in the augmentation ideal")
        c = self.class_of_sum(np.fromiter(v.coeffs, np.int64, len(v.coeffs)),
                              np.fromiter(v.coeffs.values(), np.int64, len(v.coeffs))[None])
        if c is None:
            raise ValueError("element does not lie in the expected ideal power")
        return c

    def group_class(self, g: int) -> ClassTensor:
        """The class of (g - 1) in I_n/I_n^2 (degree 1), kept on the quotient."""
        if self.degree != 1:
            raise ValueError("group elements give classes in degree 1")
        if g not in self._group_classes:
            self._group_classes[g] = self.class_of(RingElt.gen_minus_one(self.level, g))
        return self._group_classes[g]

    def zero(self) -> ClassTensor:
        return ClassTensor(self, (0,))

    def lift(self, c: ClassTensor) -> RingElt:
        """A group-ring representative of a class (well-defined mod I^{r+1}).

        The sum of the component lifts, through the inclusions G_p in Gamma_n.
        """
        if self.degree == 0:
            return RingElt.unit(self.level) * int(c.rows[0, 0])
        out: dict[int, int] = {}
        tot = 0
        for comp, part in zip(self._components, self._slices):
            v = c.rows[0, part] @ comp.lifts
            for i in np.nonzero(v)[0]:
                out[comp.elems[i]] = int(v[i])
                tot += int(v[i])
        if tot:
            out[self.gamma.identity] = -tot
        return RingElt(self.level, out)

    # -- induced maps ------------------------------------------------------

    def _hom_matrix(self, d: int, dst: AugQuot) -> np.ndarray:
        """Matrix on class coordinates of the map into `dst` (same degree)
        induced by Gamma_n -> Gamma_d -> dst.gamma, reduction mod d and then
        the inclusion (d divides both levels).

        It maps G_p into the Sylow p-subgroup of dst.gamma, so the matrix is
        block-diagonal over p.  A block sends x_l = s_l - 1 to x'_l, or to 0
        where s_l goes to 1 (`_Sylow.factor_index`): the exponents of each
        monomial of gens move to the target's factors, and a monomial that
        touches a dropped factor goes to 0.  The source's reps take these
        to its basis classes, and the target reads them.
        """
        if self.degree == 0:
            return np.eye(1, dtype=np.int64)  # the augmentation commutes with the map
        M = np.zeros((len(self.invariants), len(dst.invariants)), dtype=np.int64)
        target = {c.p: (c, part) for c, part in zip(dst._components, dst._slices)}
        for comp, rows in zip(self._components, self._slices):
            tc, cols = target[comp.p]
            # the exponents moved to tc's factors, and those of the dropped
            # factors (index -1) summed in a last column
            A = np.eye(len(tc.orders) + 1, dtype=np.int64)[comp.factor_index(tc, d)]
            moved = comp.gens @ A
            y = tc.place(moved[:, :-1]) * (moved[:, -1:] == 0)
            M[rows, cols] = tc.read(comp.spread(y, tc.ep ** self.degree))
        return M

    def pi_matrix(self, d: int) -> np.ndarray:
        """Matrix of pi_d acting on class coordinates."""
        if d not in self._pi_matrices:
            if self.level % d:
                raise ValueError(f"{d} does not divide {self.level}")
            self._pi_matrices[d] = _frozen(self._hom_matrix(d, self))
        return self._pi_matrices[d]

    def embed_matrix(self, n: int) -> np.ndarray:
        """Matrix of the inclusion I_m^r/I_m^{r+1} -> I_n^r/I_n^{r+1}, m | n."""
        if n not in self._embed_matrices:
            if n % self.level:
                raise ValueError(f"{self.level} does not divide {n}")
            self._embed_matrices[n] = _frozen(self._hom_matrix(self.level,
                                                               aug_quot(n, self.degree)))
        return self._embed_matrices[n]

    def mult_table(self, qa: AugQuot, qb: AugQuot) -> list[np.ndarray]:
        """Structure constants of the product qa x qb -> self, per component.

        Block p has entry [i, j] = the class in component p of the product of
        the i-th basis class of qa and the j-th of qb, both in component p;
        products across components vanish.  Each pair of monomials of the
        factors' gens multiplies as x^alpha x^beta = x^(alpha + beta), placed
        on the product's gens (`_Sylow.place`); the factors' reps take the
        pairs to pairs of basis classes, and the product's degree reads them.
        e_p^R I(G_p) lies in I(G_p)^{R+1}, so all of it runs mod e_p^R.
        """
        key = (qa.degree, qb.degree)
        if key not in self._mult_tables:
            blocks = []
            for ca, cb, ct in zip(qa._components, qb._components, self._components):
                mod = ct.ep ** self.degree
                y = ct.place((ca.gens[:, None] + cb.gens[None]).reshape(-1, len(ct.orders)))
                y = ca.spread(y.reshape(len(ca.gens), len(cb.gens), -1), mod)
                y = cb.spread(y.swapaxes(0, 1), mod).swapaxes(0, 1)
                T = ct.read(y.reshape(-1, y.shape[2]))
                blocks.append(_frozen(T.reshape(len(ca.invariants), len(cb.invariants),
                                                len(ct.invariants))))
            self._mult_tables[key] = blocks
        return self._mult_tables[key]

    def mult_matrix(self, qa: AugQuot, v: ClassTensor) -> np.ndarray:
        """Matrix of c -> c * v from qa into this quotient (the product's).

        qa and v share this quotient's level, and v is a class (one row,
        moduli (0,)), as `ClassTensor.mult_class` checks.  The matrix is
        kept here, read-only, by the degrees of qa and v and the bytes of
        v's row; the first use contracts v with the structure constants of
        `mult_table`, and a degree-0 factor multiplies as an integer.
        """
        key = (qa.degree, v.degree, v.rows.tobytes())
        M = self._mult_matrices.get(key)
        if M is None:
            M = self._mult_matrices[key] = _frozen(self._contract(qa, v.quot, v.rows[0]))
        return M

    def _contract(self, qa: AugQuot, qb: AugQuot, b: np.ndarray) -> np.ndarray:
        """The matrix of c -> c * b, b the coordinates of a class of qb."""
        if qa.degree == 0:
            return b[None]
        if qb.degree == 0:
            return int(b[0]) * np.eye(len(qa.invariants), dtype=np.int64)
        M = np.zeros((len(qa.invariants), len(self.invariants)), dtype=np.int64)
        for T, sa, sb, st, ct in zip(self.mult_table(qa, qb), qa._slices, qb._slices,
                                     self._slices, self._components):
            if T.size:
                M[sa, st] = np.einsum("j,ijk->ik", b[sb], T) % np.array(ct.invariants)
        return M

    def fold(self, moduli: tuple[int, ...], rows) -> np.ndarray:
        """Rows of A (x) I^r/I^{r+1}, A = sum of Z/M_j, reduced entrywise.

        Entry (j, i) is reduced mod gcd(M_j, d_i); 0 means not reduced (a
        free generator in degree 0).  rows is anything that numpy reads as
        integers in one row per M_j; `_fold` takes the int64 matrices of that
        shape which the induced maps give, as they are.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(len(moduli), len(self.invariants))
        return self._fold(moduli, rows)

    def _fold(self, moduli: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
        if moduli not in self._folds:
            g = np.gcd.outer(np.array(moduli, dtype=np.int64),
                             np.array(self.invariants, dtype=np.int64))
            free = g == 0
            self._folds[moduli] = np.where(free, 1, g), (free if free.any() else None)
        div, free = self._folds[moduli]
        out = rows % div
        if free is not None:
            out[free] = rows[free]
        return out

    def splitting(self, plus: tuple[int, ...]) -> dict:
        """Data for the new/old decomposition relative to designated primes.

        Valid when degree == len(plus); the new component is cut out by the
        vanishing of every pi_{n/l}, and the projector is the product of the
        commuting idempotents (1 - pi_{n/l}).
        """
        plus = tuple(sorted(plus))
        if plus in self._split_cache:
            return self._split_cache[plus]
        if len(plus) != self.degree:
            raise ValueError("splitting requires degree == number of designated primes")
        for p in plus:
            if self.level % p:
                raise ValueError(f"{p} does not divide {self.level}")
        # the generator of Gamma_p is 1 at p = 2, where Gamma_2 is trivial
        gens = [(p, self.gamma.gens.get(p, 1)) for p in plus]
        data = {"proj": None, "new_gen": monomial_class(self, gens),
                "g": gcd(*[p - 1 for p in plus]) if plus else 0}
        if self.degree:
            kq = len(self.invariants)
            P = np.eye(kq, dtype=np.int64)
            for p in plus:
                P = P @ (np.eye(kq, dtype=np.int64) - self.pi_matrix(self.level // p))
            data["proj"] = _frozen(P)
        self._split_cache[plus] = data
        return data

    def __repr__(self):
        return f"AugQuot(n={self.level}, r={self.degree}, invariants={self.invariants})"


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: the quotients keep what they hand out."""
    a.setflags(write=False)
    return a


def smith_chain(divisors) -> list[int]:
    """The invariant factors d_1 | d_2 | ... of a finite abelian group.

    `divisors` are its elementary divisors (prime powers, as in
    `AugQuot.invariants`); entries 0 and 1 are left out.
    """
    powers: dict[int, list[int]] = {}
    for d in divisors:
        if d > 1:
            p = nt.prime_factors(d)[0]
            powers.setdefault(p, []).append(d)
    chain: list[int] = []
    for ds in powers.values():
        ds.sort(reverse=True)
        chain += [1] * (len(ds) - len(chain))
        for i, d in enumerate(ds):
            chain[i] *= d
    return sorted(chain)


@lru_cache(maxsize=None)
def aug_quot(n: int, r: int) -> AugQuot:
    """The quotient I_n^r / I_n^{r+1}, computed by integer normal forms."""
    return AugQuot(n, r)


def monomial_class(quot: AugQuot, gammas: list[tuple[int, int]]) -> ClassTensor:
    """Class of prod (g_l - 1) for g_l in Gamma_l, one factor per listed prime."""
    if len(gammas) != quot.degree:
        raise ValueError(f"need exactly {quot.degree} factors, got {len(gammas)}")
    G = quot.gamma
    v = RingElt.unit(quot.level)
    for p, g in gammas:
        if quot.level % p:
            raise ValueError(f"{p} does not divide the level")
        if gcd(g, p) != 1:
            raise ValueError(f"{g} is not a unit mod {p}")
        v = v * RingElt.gen_minus_one(quot.level, G.embed_from(p, g % p))
    return quot.class_of(v)


def pi_d(x: ClassTensor, d: int) -> ClassTensor:
    """Image of a class under the induced map pi_d."""
    return x.pi(d)


def in_new_component(x: ClassTensor, plus: tuple[int, ...] | None = None) -> bool:
    """Membership test via vanishing of every pi_{n/l}, l designated."""
    plus = x.quot.gamma.primes if plus is None else plus
    return x.degree == 0 or all(x.pi(x.level // p).is_zero() for p in plus)


def subgroup_order(quot: AugQuot, classes: list[ClassTensor]) -> int:
    """Order of the subgroup of the quotient generated by the given classes."""
    if quot.degree == 0:
        raise ValueError("free quotient")
    kq = len(quot.invariants)
    if kq == 0:
        return 1
    rows = [c.rows[0].tolist() for c in classes]
    rows += [[quot.invariants[i] if j == i else 0 for j in range(kq)]
             for i in range(kq)]
    e = max(quot.exponent_m, 1)
    d, _, _ = snf_mod(np.array(rows, dtype=np.int64), e)
    cofactor = prod(d)
    return quot.order // cofactor if cofactor else 1


def embed_class(x: ClassTensor, n: int) -> ClassTensor:
    """Image of a class under the inclusion of levels m | n (same degree)."""
    return x.embed(n)


def mult_classes(a: ClassTensor, b: ClassTensor) -> ClassTensor:
    """Product I^r x I^s -> I^{r+s} on classes at a common level."""
    return a.mult_class(b)


# ---------------------------------------------------------------------------
# tensors A (x) I^r/I^{r+1}


class ClassTensor:
    """An element of A (x) I_n^r/I_n^{r+1} for A = sum over j of Z/M_j.

    `rows` is an int64 matrix with one row per generator of A (M_j = 0 marks
    a free one) and one column per class coordinate, entry (j, i) reduced mod
    gcd(M_j, d_i) by `AugQuot.fold`.  It is read-only: the quotients keep
    classes they hand out (`group_class`, `d_det`, `perm_pi`, `splitting`).
    Every induced map acts on all rows at once, as rows @ P with the matrices
    kept on the quotients.  A class of I^r/I^{r+1} is the one-row case
    A = Z, moduli (0,); a class in Z/m (x) I^r/I^{r+1} has moduli (m,).
    Subclasses name the generators of A; the attributes listed in `_extra`
    pass through the maps unchanged.
    """

    __slots__ = ("quot", "moduli", "rows")
    _extra: tuple[str, ...] = ()

    def __init__(self, quot: AugQuot, moduli, rows=None):
        self.quot = quot
        self.moduli = tuple(moduli)
        if rows is None:
            rows = np.zeros((len(self.moduli), len(quot.invariants)), dtype=np.int64)
        self.rows = _frozen(quot.fold(self.moduli, rows))

    def _with(self, quot: AugQuot, rows: np.ndarray) -> ClassTensor:
        """The same kind of element, over the same A, at quot with these rows,
        an int64 matrix of the right shape (not yet reduced)."""
        out = object.__new__(type(self))
        for name in self._extra:
            setattr(out, name, getattr(self, name))
        out.quot, out.moduli = quot, self.moduli
        out.rows = _frozen(quot._fold(self.moduli, rows))
        return out

    @property
    def level(self) -> int:
        return self.quot.level

    @property
    def degree(self) -> int:
        return self.quot.degree

    @property
    def parts(self) -> list[ClassTensor]:
        """The rows as classes of I^r/I^{r+1} (moduli (0,)), one per
        generator of A."""
        return [ClassTensor(self.quot, (0,), row[None]) for row in self.rows]

    def __add__(self, other: ClassTensor) -> ClassTensor:
        if other.quot is not self.quot or other.moduli != self.moduli:
            raise ValueError("elements belong to different groups")
        return self._with(self.quot, self.rows + other.rows)

    def __sub__(self, other: ClassTensor) -> ClassTensor:
        return self + (-other)

    def __neg__(self) -> ClassTensor:
        return self._with(self.quot, -self.rows)

    def __mul__(self, k) -> ClassTensor:  # k an integer, or a list of one per row
        k = np.array(k)[:, None] if isinstance(k, list) else k
        return self._with(self.quot, self.rows * k)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.rows.any()

    def order(self) -> int:
        """The order of the element: the lcm over the entries of
        g / gcd(entry, g), g = gcd(M_j, d_i); 0 when a free entry is
        nonzero."""
        div, free = self.quot._folds[self.moduli]  # kept when the rows were folded
        if free is not None and self.rows[free].any():
            return 0
        return lcm(1, *(div // np.gcd(self.rows, div)).ravel().tolist())

    def __eq__(self, other):
        if not isinstance(other, ClassTensor):
            return NotImplemented
        # same quotient and moduli: int64 rows of the same shape
        return (other.quot is self.quot and other.moduli == self.moduli
                and other.rows.tobytes() == self.rows.tobytes())

    def pi(self, d: int) -> ClassTensor:
        if self.level % d:
            raise ValueError(f"{d} does not divide the level {self.level}")
        rows = self.rows if self.degree == 0 else self.rows @ self.quot.pi_matrix(d)
        return self._with(self.quot, rows)

    def proj_new(self, plus) -> ClassTensor:
        P = self.quot.splitting(tuple(plus))["proj"]
        return self._with(self.quot, self.rows if P is None else self.rows @ P)

    def embed(self, n: int) -> ClassTensor:
        if n % self.level:
            raise ValueError(f"{self.level} does not divide {n}")
        if n == self.level:
            return self._with(self.quot, self.rows)
        rows = self.rows if self.degree == 0 else self.rows @ self.quot.embed_matrix(n)
        return self._with(aug_quot(n, self.degree), rows)

    def mult_class(self, v: ClassTensor) -> ClassTensor:
        """Each row times the class v (one row, moduli (0,))."""
        if v.level != self.level:
            raise ValueError("levels differ; embed first")
        if v.moduli != (0,):
            raise ValueError(f"the multiplier must be a class, moduli (0,), not {v.moduli}")
        target = aug_quot(self.level, self.degree + v.degree)
        return self._with(target, self.rows @ target.mult_matrix(self.quot, v))

    def __repr__(self):
        return (f"{type(self).__name__}(level={self.level}, degree={self.degree}, "
                f"moduli={self.moduli})")


# ---------------------------------------------------------------------------
# determinants of Frobenius matrices and permutation expansions


@dataclass(frozen=True)
class PermData:
    """A permutation of the designated primes of a level, with sign data."""

    level: int
    sigma: tuple[tuple[int, int], ...]  # (prime, image) pairs

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.sigma)

    @property
    def d_sigma(self) -> int:
        return prod([p for p, q in self.sigma if p != q]) if self.sigma else 1

    @property
    def sign(self) -> int:
        return perm_sign(self.mapping)

    def __post_init__(self):
        m = dict(self.sigma)
        if sorted(m) != sorted(m.values()):
            raise ValueError("not a permutation")
        for p in m:
            if self.level % p:
                raise ValueError(f"{p} does not divide the level")


def perm_sign(mapping: dict[int, int]) -> int:
    seen: set[int] = set()
    sign = 1
    for start in mapping:
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = mapping[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permutations_of(primes: list[int]):
    """All permutations of the given primes as PermData-style dicts."""
    for images in itertools.permutations(primes):
        yield dict(zip(primes, images))


def single_orbit_nonfixed(mapping: dict[int, int]) -> bool:
    """True when the non-fixed points form one cycle (identity included)."""
    moved = [p for p, q in mapping.items() if p != q]
    if not moved:
        return True
    start = moved[0]
    x = mapping[start]
    seen = {start}
    while x != start:
        seen.add(x)
        x = mapping[x]
    return len(seen) == len(moved)


def derangements(primes: list[int]):
    for m in permutations_of(primes):
        if all(m[p] != p for p in primes):
            yield m


def _frob_lift(n: int, target_level: int, q: int) -> RingElt:
    """(Frobenius at q projected to Gamma_{target_level}) - 1, in Z[Gamma_n]."""
    return RingElt.gen_minus_one(n, gamma(n).project(q, target_level))


def frob_class(n: int, target_level: int, q: int) -> ClassTensor:
    """The class of _frob_lift(n, target_level, q) in I_n/I_n^2."""
    return aug_quot(n, 1).group_class(gamma(n).project(q, target_level))


def d_det(n: int, d: int):
    """The Frobenius matrix M_{n,d} and its determinant class D_{n,d}.

    Row/column i corresponds to the i-th prime of d in increasing order;
    the diagonal entry is pi_{n/d}(Fr_l - 1) and the (i, j) entry is
    pi_{l_j}(Fr_{l_i} - 1).  Returns (the matrix, as rows of lifts in I_n,
    class of the determinant in I_n^t/I_n^{t+1}); the result is kept on
    that quotient, as `AugQuot.splitting` keeps its data.
    """
    ls = nt.prime_factors(d)
    if n % d or prod(ls) != d:
        raise ValueError(f"{d} must be a squarefree divisor of the level")
    t = len(ls)
    quot = aug_quot(n, t)
    if d in quot._dets:
        return quot._dets[d]
    targets = [[n // d if i == j else lj for j, lj in enumerate(ls)] for i in range(t)]
    lifts = tuple(tuple(_frob_lift(n, m, li) for m in row) for li, row in zip(ls, targets))
    quot._dets[d] = lifts, det_class(n, lifts)
    return quot._dets[d]


def det_class(n: int, rows: list[list[RingElt]]) -> ClassTensor:
    """The class in I_n^t/I_n^{t+1} of the determinant of a t x t matrix of
    elements of I_n, by the signed sum over permutations; for t = 0 the
    empty product, the class 1 of I^0/I^1 = Z."""
    det = RingElt(n)
    for images in itertools.permutations(range(len(rows))):
        term = RingElt.unit(n)
        for row, j in zip(rows, images):
            term = term * row[j]
        det = det + term * perm_sign(dict(enumerate(images)))
    return aug_quot(n, len(rows)).class_of(det)


def perm_pi(p: PermData) -> ClassTensor:
    """The product class Pi(sigma) = prod over q | d_sigma of pi_q(Fr_{sigma(q)} - 1).

    Kept on its quotient I_n^t/I_n^{t+1}, by the moved pairs of sigma, as
    `d_det` keeps D_{n,d}.
    """
    n = p.level
    moved = tuple((q, r) for q, r in p.sigma if q != r)
    quot = aug_quot(n, len(moved))
    if moved not in quot._perm_pis:
        v = RingElt.unit(n)
        for q, r in moved:
            v = v * _frob_lift(n, q, r)
        quot._perm_pis[moved] = quot.class_of(v)
    return quot._perm_pis[moved]


def cycles_through(n: int, primes, ell: int):
    """The permutations of `primes` whose moved points form one cycle through ell.

    Yields (d_sigma, sign, Pi(sigma)) for each, with Pi(sigma) the class in
    I_n^t/I_n^{t+1} (t = number of moved primes) from perm_pi: the terms of
    the single-cycle expansion in the determinant lemma.
    """
    for mp in permutations_of(list(primes)):
        if mp[ell] != ell and single_orbit_nonfixed(mp):
            p = PermData(n, tuple(sorted(mp.items())))
            yield p.d_sigma, perm_sign(mp), perm_pi(p)
