"""Both sides of Darmon's refined class number congruence.

The regulator side is exact: determinants of local symbols applied to an
oriented unit basis, with coefficients in augmentation quotients.  It is a
`TensorElt`, the `groupring.ClassTensor` with one free row per element of a
basis of (1-tau)E_N, and every reduction of it through a homomorphism on the
units (h, ord_at, the finite part at ell) is one product of a row of values
with its rows (`TensorElt.evaluate`).  `del_lift` builds its local symbols,
and `ConcreteModel` reads its local data at a split ell.  The two share one
convention: sigma_ell is the least primitive root mod ell, and the symbol at
ell of a unit u is u^{-1} - 1 = -fin (sigma_ell - 1) mod I^2, fin the log of
u to the base sigma_ell.  Both systems run through the pre-Kolyvagin checker
of `kolysys`, each over its top level's coefficients: `_RegulatorLevels`
writes every level over the unit basis of the top level, and `_ThetaLevels`
reduces every level at one auxiliary prime of it.  The theta side is
reduced through homomorphisms into Z/M attached to auxiliary primes q, with
M | q-1.  The paper proves the congruence for every odd prime p, so M is odd
(`_theta_modulus`): in degree r >= 1 the odd part of `AugQuot.precision`,
the product over the Sylow components of e_p^r, and in degree 0, where
I^0/I^1 = Z, the odd part of q-1.  Both sides land in the one-row
`ClassTensor` Z/M (x) I^r/I^{r+1}, the odd part of Z/(q-1) (x) I^r/I^{r+1};
every single class here, such as the derivative class, is a one-row
`ClassTensor` too.  The auxiliary primes are the q = 1 mod lcm(nf, M)
(`_required_congruence`), one sequence for every odd p; in degree 0 a q
with M = 1 checks nothing and is skipped.  Each reduction projects the
residues a level needs (zeta^a - 1, the units' values) into the subgroup of
order M of (Z/q)^* and solves their discrete logs there in one batched
baby-step giant-step.  A check builds the exponent table of the twists
gamma(alpha_n) once, on its `cyclo.ThetaElt`; each auxiliary prime then
makes one array pass over it, from the powers of zeta to the discrete logs
and the signed row sums.  The class of the reduced theta element is one matrix product of
its vector, known mod M, per odd Sylow component: `AugQuot.class_of_sum`
gives it as the one-row tensor with moduli (M,).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import cyclo, groupring as gr, kolysys, nt, quadfield as qf
from .groupring import ClassTensor, RingElt, aug_quot, gamma
from .nt import BadAuxiliaryPrime, ResourceLimitError
from .quadfield import PrimePlace, QuadField, QuadNum, ord_at, unit_residue


# ---------------------------------------------------------------------------
# (units) x (augmentation class)


class TensorElt(ClassTensor):
    """An element of (1-tau)E_N (x) I_n^r/I_n^{r+1}, over one unit basis.

    basis is a basis of (1-tau)E_N, N a multiple of n (a
    `quadfield.UnitLattice`'s), and row j holds the classes of basis[j]: one
    free row per unit, so the induced maps are those of `ClassTensor`.  Two
    elements over different bases are neither compared nor added
    (ValueError); `rebase` writes one over another basis.
    """

    __slots__ = ("basis",)
    _extra = ("basis",)

    def __init__(self, quot, basis, rows=None):
        self.basis = tuple(basis)
        super().__init__(quot, (0,) * len(self.basis), rows)

    def _same_basis(self, other):
        if isinstance(other, TensorElt) and other.basis != self.basis:
            raise ValueError("tensor elements over different unit bases")
        return other

    def __add__(self, other: "TensorElt") -> "TensorElt":
        return super().__add__(self._same_basis(other))

    def __eq__(self, other):
        return super().__eq__(self._same_basis(other))

    def rebase(self, lattice: qf.UnitLattice) -> "TensorElt":
        """The same element over lattice.basis: the rows C^T rows, row j of
        C the coordinates of basis[j] (`UnitLattice.coords`)."""
        basis = tuple(lattice.basis)
        if basis == self.basis:
            return self
        C = np.array([lattice.coords(u) for u in self.basis], dtype=np.int64)
        return TensorElt(self.quot, basis, C.T @ self.rows)

    def evaluate(self, values, M: int) -> ClassTensor:
        """The image in Z/M (x) I^r/I^{r+1} (M = 0: Z) under a homomorphism
        on the units; values maps a list of units to their images.  Only
        the units with nonzero rows are evaluated, in one call."""
        live = self.rows.any(axis=1)
        out = iter(values([x for x, z in zip(self.basis, live) if z]))
        return self.reduce([next(out) if z else 0 for z in live], M)


# ---------------------------------------------------------------------------
# reduction homomorphisms


@dataclass
class ReductionHom:
    """Evaluation modulo a degree-one prime above q, then discrete log mod M.

    Maps the multiplicative group generated by roots of unity of order nf,
    sqrt(d), and q-unit rationals into Z/M, for a divisor M of q-1.  The
    discrete logs are those to the base g, reduced mod M.
    """

    F: QuadField
    level: int
    q: int
    g: int              # primitive root mod q
    zeta: int           # fixed image of the nf-th root of unity
    sqrt_disc: int      # image of sqrt(D)
    modulus: int        # M, the target Z/M

    def __post_init__(self):
        if (self.q - 1) % self.modulus:
            raise ValueError(f"{self.modulus} does not divide {self.q} - 1")

    def dlog(self, x: int) -> int:
        return int(self.dlogs([x])[0])

    def dlogs(self, xs) -> np.ndarray:
        """Discrete logs mod M of the residues xs (a sequence or a
        one-dimensional array), in one batch.

        x^((q-1)/M) lies in the subgroup of order M, generated by
        g^((q-1)/M), and its log there is the log of x mod M.  It is 0 mod q
        only when x is, which no log can be.
        """
        q = self.q
        k = (q - 1) // self.modulus
        xs = nt.pow_vec(xs, k, q)
        if not xs.all():
            raise BadAuxiliaryPrime(f"zero value mod {q}")
        try:
            return nt.discrete_logs(xs, pow(self.g, k, q), q, self.modulus)
        except ValueError:
            raise RuntimeError("discrete log failed") from None

    def zeta_power(self, k: int) -> int:
        return pow(self.zeta, k % (self.level * self.F.conductor), self.q)

    def eval_quad(self, x: QuadNum) -> int:
        sd = self.sqrt_disc if self.F.disc == self.F.d \
            else self.sqrt_disc * pow(2, -1, self.q) % self.q
        num = (x.a.numerator * x.b.denominator
               + x.b.numerator * x.a.denominator * sd)
        den = x.a.denominator * x.b.denominator
        if den % self.q == 0 or num % self.q == 0:
            raise BadAuxiliaryPrime(f"degenerate value at q={self.q}")
        return num * pow(den, -1, self.q) % self.q

    def values(self, payloads) -> list[int]:
        """h of every payload (a QuadNum), with one batched discrete log."""
        return self.dlogs([self.eval_quad(x) for x in payloads]).tolist()

    def alpha_value(self, m: int, c: int) -> int:
        """h of the c-twist of the level-m cyclotomic unit."""
        return int(self.alpha_values(m, cyclo.twist_exponents(self.F, m, [c]))[0])

    def alpha_values(self, m: int, table: tuple[np.ndarray, int]) -> np.ndarray:
        """h of the twists of the level-m cyclotomic unit whose exponents are
        the rows of table (`cyclo.twist_exponents`, built once per check).

        One array pass per prime: the residues zeta_mf^(a c) - 1 of all the
        twists are read off one table of the powers of zeta_mf and go to one
        batched discrete log; each twist's value is the signed sum of its row.
        """
        at, k_plus = table
        F = self.F
        mf = m * F.conductor
        z = self.zeta_power(self.level * F.conductor // mf)  # image of zeta_mf
        zpow = nt._powers(z, mf, self.q, nt.int_dtype(self.q))
        logs = self.dlogs((zpow[at] - 1).ravel()).reshape(at.shape)
        out = logs[:, :k_plus].sum(axis=1) - logs[:, k_plus:].sum(axis=1)
        return out % self.modulus


def _theta_modulus(quot: gr.AugQuot, q: int | None = None) -> int:
    """M, the target Z/M of the theta side's reductions at quot and q.

    In degree r >= 1 the odd part of `AugQuot.precision`, the least modulus
    at which the theta vector fixes every odd component of its class; in
    degree 0 (I^0/I^1 = Z) the odd part of q - 1, and 1 without q.
    """
    m = q - 1 if q and not quot.degree else quot.precision
    return m // (m & -m)


def _required_congruence(F: QuadField, n: int) -> int:
    """The modulus L = lcm(nf, M) of the auxiliary primes, M = `_theta_modulus`.

    q = 1 mod nf puts the nf-th roots of unity in F_q, and q = 1 mod M lets
    the theta vector, known mod M, fix the odd part of its class.
    """
    return lcm(n * F.conductor, _theta_modulus(aug_quot(n, F.r_of(n))))


def find_aux_primes(F: QuadField, n: int, count: int, bound: int = 10 ** 9):
    """Smallest primes q = 1 mod L usable for reductions at this level.

    In degree 0 the target Z/M has M the odd part of q - 1, and a q with
    M = 1 (a Fermat prime) checks nothing, so it is skipped.
    """
    L = _required_congruence(F, n)
    quot = aug_quot(n, F.r_of(n))
    out = []
    q = L + 1
    while len(out) < count:
        if q > bound:
            raise ResourceLimitError("not enough auxiliary primes below the bound")
        if nt.is_prime(q) and (quot.degree or _theta_modulus(quot, q) > 1):
            out.append(q)
        q += L
    return out


def make_reduction_hom(F: QuadField, n: int, q: int) -> ReductionHom:
    """A reduction homomorphism at q (requires q = 1 mod L) into Z/M.

    M is `_theta_modulus`.  sqrt(D) maps to the Gauss sum of the
    quadratic character `F.chi`.
    """
    mf = n * F.conductor
    if (q - 1) % mf:
        raise ValueError(f"{q} is not 1 mod {mf}")
    if not nt.is_prime(q):
        raise ValueError(f"{q} is not prime")
    g = nt.primitive_root(q)
    zeta = pow(g, (q - 1) // mf, q)
    f = F.conductor
    zpow = nt._powers(pow(zeta, mf // f, q), f, q, nt.int_dtype(q))
    sd = int((zpow * F.chi).sum()) % q
    if pow(sd, 2, q) != F.disc % q:
        raise BadAuxiliaryPrime(f"Gauss sum check failed at q={q}")
    return ReductionHom(F, n, q, g, zeta, sd, _theta_modulus(aug_quot(n, F.r_of(n)), q))


def tensor_reduce(x: TensorElt, h: ReductionHom) -> ClassTensor:
    """Sum of h(payload) * class: the one-row `ClassTensor` in
    Z/M (x) I^r/I^{r+1}, M = h.modulus."""
    _check_hom_compat(x.quot, h)
    return x.evaluate(h.values, h.modulus)


def _check_hom_compat(quot, h: ReductionHom):
    """The one rule on the target Z/M: M is a multiple of `_theta_modulus`."""
    if h.modulus % _theta_modulus(quot):
        raise gr.PrecisionError(f"M = {h.modulus} is not a multiple of the odd part "
                                f"of the precision of {quot!r}")


# ---------------------------------------------------------------------------
# the regulator side (exact)


def del_lift(F: QuadField, x: QuadNum, place: PrimePlace, n: int) -> RingElt:
    """A group-ring lift of (Artin symbol of x at the place) - 1, in I_n.

    Components at odd primes q of n: the ord-power of Frobenius at ell when
    q != ell, and the inverse unit residue at q == ell (Gamma_2 is trivial).
    """
    G = gamma(n)
    k = ord_at(x, place)
    ell = place.ell
    lift = RingElt(n)
    for q in G.primes:
        if q == 2:
            continue
        if q == ell:
            u = unit_residue(x, place)
            lift = lift + RingElt.gen_minus_one(n, G.embed_from(ell, pow(u, -1, ell)))
        else:
            base = ell % q
            fr = pow(base, k, q) if k >= 0 else pow(pow(base, -1, q), -k, q)
            lift = lift + RingElt.gen_minus_one(n, G.embed_from(q, fr))
    return lift


def regulator(F: QuadField, n: int) -> TensorElt:
    """R_n as a formal sum of units tensor degree-r classes (exact)."""
    return bordered_regulator(F, n, n)


def bordered_regulator(F: QuadField, n: int, n2: int) -> TensorElt:
    """R_{n,n2}: unit basis of level n, symbols evaluated at level n2, n | n2."""
    if n2 % n:
        raise ValueError("the bordered level must be a multiple of the base level")
    ul = qf.unit_basis(F, n)
    return regulator_from_basis(F, ul.basis, ul.places, n2)


def regulator_from_basis(F: QuadField, basis, places, n2: int) -> TensorElt:
    """The minors expansion for an explicit (oriented) basis and places."""
    lifts = [[del_lift(F, e, pl, n2) for e in basis] for pl in places]
    # row j: the signed minor of the symbol matrix without the column of unit j
    return TensorElt(aug_quot(n2, len(places)), basis, [
        (-1) ** j * gr.det_class(n2, [row[:j] + row[j + 1:] for row in lifts]).rows[0]
        for j in range(len(basis))])


def _fpart_dlogs(F: QuadField, xs, ell: int) -> list[int]:
    """Discrete logs mod ell-1 of the finite (unit) parts of xs at the place."""
    place = F.place_above(ell)
    us = [unit_residue(x, place) for x in xs]
    return nt.discrete_logs(us, nt.primitive_root(ell), ell, ell - 1).tolist()


@dataclass
class ConcreteModel(kolysys.LocalModel):
    """The local data of h_n R_n: A is free on the units of the regulator.

    At a split ell the finite part of a unit is the discrete log of its unit
    residue at the place above ell (`_fpart_dlogs`), in Z/(ell-1); the
    transverse part is its valuation there, in Z.
    """

    F: QuadField
    split: tuple[int, ...]
    inert: tuple[int, ...]

    def loc(self, x: TensorElt, ell: int) -> tuple[ClassTensor, ClassTensor]:
        place = self.F.place_above(ell)
        return (x.evaluate(lambda xs: _fpart_dlogs(self.F, xs, ell), ell - 1),
                x.evaluate(lambda xs: [ord_at(y, place) for y in xs], 0))

    def fs(self, fin: ClassTensor, ell: int, at_level: int) -> ClassTensor:
        """fin lifted to Z, times -(sigma_ell - 1): sigma_ell, the least
        primitive root mod ell, is the base of the logs, and the lift is well
        defined as (ell-1)(sigma_ell - 1) lies in I^2.  Gamma has no
        2-component, and at ell = 2 the finite parts vanish: sigma_2 = 1."""
        sigma = aug_quot(at_level, 1).group_class(gamma(at_level).gens.get(ell, 1))
        return ClassTensor(fin.quot, (0,), fin.rows).embed(at_level).mult_class(-sigma)


# ---------------------------------------------------------------------------
# the theta side (reduced through homomorphisms)


def theta_values(th: cyclo.ThetaElt, h: ReductionHom) -> dict[int, int]:
    """h(gamma(alpha_n)) for every gamma in Gamma_n, n = th.level.

    The twists' exponent table is `th.twist_table`, built once per check;
    each prime makes one array pass over it (`ReductionHom.alpha_values`).
    """
    return dict(zip(gamma(th.level).elements,
                    h.alpha_values(th.level, th.twist_table).tolist()))


def theta_class(th: cyclo.ThetaElt, h: ReductionHom) -> ClassTensor:
    """The reduced theta element th in Z/M (x) I^r/I^{r+1}, M = h.modulus:
    the one-row `ClassTensor` with moduli (M,), as `AugQuot.class_of_sum`
    gives it.

    A check makes th once (`cyclo.theta_prime`) and reduces it at each of
    its auxiliary primes: the exponent table of the twists is kept on th,
    and each prime costs one array pass (`theta_values`).  The theta vector
    is known mod M, and `AugQuot.class_of_sum` reads from that the
    components of its class at the primes p | M, as `_theta_modulus` makes
    them fixed; the others are zero in Z/M (x) I^r/I^{r+1}.  An M that is
    not a multiple of `_theta_modulus` raises PrecisionError before any
    theta value is computed.
    """
    r = th.r
    quot = aug_quot(th.level, r)
    _check_hom_compat(quot, h)
    vals = theta_values(th, h)
    M = h.modulus
    aug = sum(vals.values()) % M
    if r == 0:
        return ClassTensor(quot, (M,), [[aug]])
    if aug:
        raise ArithmeticError("theta vector has nonzero augmentation; "
                              "norm compatibility violated")
    cls = quot.class_of_sum(vals, M)
    if cls is None:
        raise ArithmeticError("reduced theta element is not in the expected "
                              "ideal power (implementation or theory failure)")
    return cls


def beta_value(th: cyclo.ThetaElt, h: ReductionHom) -> int:
    """h applied to the Kolyvagin derivative D_{n+} alpha_{n+}, n+ = th.level."""
    n_plus = th.level
    G = gamma(n_plus)
    M = h.modulus
    weights = [1] * len(G.elements)
    for p in G.primes:
        if p == 2:
            weights = [0 if g % 2 == 0 else w for g, w in zip(G.elements, weights)]
            continue
        logs = nt.discrete_logs([g % p for g in G.elements], nt.primitive_root(p),
                                p, p - 1).tolist()
        weights = [w * i % M for w, i in zip(weights, logs)]
    live = [i for i, w in enumerate(weights) if w]
    at, k_plus = th.twist_table
    vals = h.alpha_values(n_plus, (at[live], k_plus)).tolist()
    return sum(weights[i] * v for i, v in zip(live, vals)) % M


def beta_class_at(F: QuadField, n: int) -> ClassTensor:
    """The monomial class prod (sigma_l - 1) over split l, at level n."""
    return gr.monomial_class(aug_quot(n, F.r_of(n)),
                             [(p, gamma(n).gens.get(p, 1)) for p in F.split_primes(n)])


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class PrimeResult:
    q: int
    residual: tuple
    verdict: str
    reason: str | None = None  # why a bad-prime was rejected


@dataclass
class VerifyReport:
    field: int
    level: int
    r: int
    s: int
    h_n: int
    primes: list[PrimeResult]
    verdict: str

    def as_dict(self):
        return {
            "field": self.field,
            "level": self.level,
            "r": self.r,
            "s": self.s,
            "h_n": self.h_n,
            "primes": [{"q": p.q, "residual": list(p.residual), "verdict": p.verdict,
                        "reason": p.reason} for p in self.primes],
            "verdict": self.verdict,
        }


def verify_darmon(F: QuadField, n: int, num_primes: int = 5,
                  wrong_sign: bool = False, bound: int = 10 ** 9) -> VerifyReport:
    """Check that theta~' + 2^s h_n R_n has trivial odd part, per aux prime.

    At each auxiliary prime the residual is the sum of the two sides in
    Z/M (x) I^r/I^{r+1}, M odd (`_theta_modulus`).  The verdict is
    "vacuous" when r >= 1 and M = 1: I^r/I^{r+1} has no odd part.
    wrong_sign flips the sign of the regulator side (soundness canary);
    bound caps the auxiliary primes searched (ResourceLimitError past it).
    The verdict is "inconclusive" when every prime was rejected as a
    bad prime at a level that is not vacuous.
    """
    if n > 1 and gcd(n, F.conductor) != 1:
        raise ValueError("level shares a factor with the conductor")
    if num_primes < 1:
        raise ValueError("a verdict needs at least one auxiliary prime")
    r, s = F.r_of(n), F.s_of(n)
    qs = find_aux_primes(F, n, num_primes, bound)
    hn = qf.h_n(F, n)
    reg = hn * (2 ** s) * (-1 if wrong_sign else 1) * regulator(F, n)
    theta = cyclo.theta_prime(F, n)
    results = []
    vacuous = r >= 1 and _theta_modulus(aug_quot(n, r)) == 1
    for q in qs:
        try:
            h = make_reduction_hom(F, n, q)
            residual = theta_class(theta, h) + tensor_reduce(reg, h)
        except BadAuxiliaryPrime as exc:
            results.append(PrimeResult(q, (), "bad-prime", str(exc)))
            continue
        ok = residual.is_zero()
        results.append(PrimeResult(q, tuple(residual.rows[0].tolist()),
                                   "pass" if ok else "fail"))
    verdicts = [p.verdict for p in results if p.verdict != "bad-prime"]
    if vacuous:
        overall = "vacuous"
    elif not verdicts:
        overall = "inconclusive"  # every prime rejected; `primes` says why
    elif all(v == "pass" for v in verdicts):
        overall = "pass"
    else:
        overall = "fail"
    return VerifyReport(F.d, n, r, s, hn, results, overall)


def verify_base_case(F: QuadField) -> tuple[bool, int]:
    """Exact check alpha_1 = +-(eps/eps^tau)^{-h}; returns (ok, sign)."""
    a1 = cyclo.alpha(F, 1)
    eps = qf.fundamental_unit(F)
    hF = qf.class_group(F).h
    target = (eps / eps.conj()) ** (-hF)
    m = F.conductor
    t = cyclo.quad_to_cyclo(F, target, m)
    if a1 == t:
        return True, 1
    minus = cyclo.quad_to_cyclo(F, QuadNum(F.d, -1) * target, m)
    if a1 == minus:
        return True, -1
    return False, 0


def prop94_residual(F: QuadField, n: int, h: ReductionHom) -> ClassTensor:
    """Residual of: sum over d | n_+ of theta~'_{n/d} prod pi_{n/d}(Fr_l - 1)
    minus 2^s beta_{n_+}, evaluated under one reduction hom, in
    Z/M (x) I^r/I^{r+1} (M = h.modulus)."""
    quot = aug_quot(n, F.r_of(n))
    total = ClassTensor(quot, (h.modulus,))
    for dd in nt.divisors(F.n_plus(n)):
        m = n // dd
        cls = theta_class(cyclo.theta_prime(F, m), _hom_at_level(F, m, h)).embed(n)
        for p in nt.prime_factors(dd):
            cls = cls.mult_class(gr.frob_class(n, n // dd, p))
        total = total + cls
    n_plus = F.n_plus(n)
    bval = beta_value(cyclo.theta_prime(F, n_plus), _hom_at_level(F, n_plus, h))
    rhs = ClassTensor(quot, (h.modulus,), beta_class_at(F, n).rows)
    return total - 2 ** F.s_of(n) * bval * rhs


def _hom_at_level(F: QuadField, m: int, h: ReductionHom) -> ReductionHom:
    """The same prime and compatible root-of-unity images at a divisor level."""
    if (h.q - 1) % (m * F.conductor):
        raise ValueError("hom not compatible with the level")
    zeta_m = pow(h.zeta, (h.level * F.conductor) // (m * F.conductor), h.q)
    return ReductionHom(F, m, h.q, h.g, zeta_m, h.sqrt_disc, h.modulus)


# ---------------------------------------------------------------------------
# pre-Kolyvagin axioms for the two concrete systems


# where ell must lie for each checked axiom: (ell divides the level, its
# splitting type or None for any)
_AXIOM_ELL = {
    ("regulator", "i"): (False, None), ("theta", "i"): (False, None),
    ("regulator", "ii"): (True, 1), ("theta", "ii"): (True, 1),
    ("regulator", "iii"): (True, 1), ("regulator", "iv"): (True, 1),
    ("regulator", "v"): (False, -1), ("theta", "v"): (True, -1),
}


def check_ell(F: QuadField, system: str, axiom: str, n: int, ell: int) -> None:
    """Raise ValueError unless ell is a prime placed as `_AXIOM_ELL` asks for
    (system, axiom) at level n; a pair it does not list is unsupported."""
    if not nt.is_prime(ell):
        raise ValueError(f"ell = {ell} is not a prime")
    if (system, axiom) not in _AXIOM_ELL:
        return
    divides, omega = _AXIOM_ELL[system, axiom]
    if (n % ell == 0) != divides or omega not in (None, F.omega(ell)):
        kind = {None: "a", 1: "a split", -1: "an inert"}[omega]
        where = "dividing" if divides else "not dividing"
        raise ValueError(f"{system} axiom ({axiom}) needs {kind} prime {where} "
                         f"the level {n}, not ell = {ell}")


class _RegulatorLevels(dict):
    """h_m R_m by level m | N, each built when it is first read and written
    over the unit basis of level N, so that every level has one basis."""

    def __init__(self, F: QuadField, N: int):
        self.F, self.lattice = F, qf.unit_basis(F, N)

    def __missing__(self, m: int) -> TensorElt:
        self[m] = x = (qf.h_n(self.F, m) * regulator(self.F, m)).rebase(self.lattice)
        return x


class _ThetaLevels(dict):
    """2^{-s(m)} theta~'_m by level m, reduced at the prime of h (a hom at a
    multiple of m) through `_hom_at_level`, each built when it is first
    read.  thetas holds one `cyclo.ThetaElt` per level for every prime of a
    check, so that each exponent table is built once."""

    def __init__(self, F: QuadField, h: ReductionHom, thetas: dict):
        self.F, self.h, self.thetas = F, h, thetas

    def __missing__(self, m: int) -> ClassTensor:
        th = self.thetas.setdefault(m, cyclo.theta_prime(self.F, m))
        h = _hom_at_level(self.F, m, self.h)
        self[m] = x = pow(2, -th.s, h.modulus) * theta_class(th, h)
        return x


def _theta_axiom_i(F: QuadField, n: int, ell: int) -> bool:
    """alpha-payloads are units above ell (ell not dividing n)."""
    return ell not in _alpha_support(F, n)


def _alpha_support(F: QuadField, n: int) -> set[int]:
    """Primes at which alpha_n can fail to be a unit (via binomial norms)."""
    mf = n * F.conductor
    plus, minus = cyclo.alpha_exponents(F, n)
    support = set()
    for a in list(plus) + list(minus):
        k = mf // gcd(a, mf)
        fac = nt.prime_factors(k)
        if len(fac) == 1:
            support.add(fac[0])
    return support


def verify_preks_axiom(F: QuadField, system: str, axiom: str, n: int, ell: int,
                       num_primes: int = 3, bound: int = 10 ** 9) -> dict:
    """Check one pre-Kolyvagin-system axiom for a concrete system.

    system: "regulator" (h_n R_n) or "theta" (2^{-s} theta~'_n).
    axiom: "i", "ii", "iii", "iv" (the primed form), or "v".
    ell must lie where `check_ell` asks (ValueError otherwise); a pair that
    `_AXIOM_ELL` does not list is unsupported.  All but theta (i) run
    through `kolysys.preks_holds` at (n ell, ell) for regulator (v), else at
    (n, ell), with the primes of that level sorted by splitting type; (i)
    at a non-split ell, which `kolysys.preks_axioms` does not list, passes.
    The regulator checks are exact (`ConcreteModel`).  Theta (ii), after the
    exact norm relation, and theta (v) compare under reduction homs at
    num_primes auxiliary primes below bound, which only they read.
    """
    check_ell(F, system, axiom, n, ell)
    if system not in ("regulator", "theta") or axiom not in ("i", "ii", "iii", "iv", "v"):
        raise ValueError(f"unknown system or axiom: {system!r}, {axiom!r}")
    ok, method = True, "exact"
    if (system, axiom) not in _AXIOM_ELL:
        method = "unsupported"
    elif system == "theta" and axiom == "i":
        ok = _theta_axiom_i(F, n, ell)
    else:
        top = n * ell if (system, axiom) == ("regulator", "v") else n
        primes = nt.prime_factors(lcm(top, ell))
        split = tuple(p for p in primes if F.omega(p) == 1)
        inert = tuple(p for p in primes if F.omega(p) != 1)
        if system == "regulator":
            model, colls = ConcreteModel(F, split, inert), [_RegulatorLevels(F, top)]
        else:
            ok = axiom != "ii" or cyclo.norm_relation_check(F, n, ell)
            method = "exact+reductions" if axiom == "ii" else "reductions"
            model, thetas = kolysys.LocalModel(split, inert), {}
            colls = [_ThetaLevels(F, make_reduction_hom(F, n, q), thetas)
                     for q in find_aux_primes(F, n, num_primes, bound)]
        label = "iv'" if axiom == "iv" else axiom
        ok = ok and (label not in kolysys.preks_axioms(model, top, ell, True) or all(
            kolysys.preks_holds(coll, model, label, top, ell) for coll in colls))
    verdict = "unsupported" if method == "unsupported" else "pass" if ok else "fail"
    return {"system": system, "axiom": axiom, "level": n, "ell": ell,
            "method": method, "verdict": verdict}
