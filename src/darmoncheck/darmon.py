"""Both sides of Darmon's refined class number congruence.

The regulator side is exact: determinants of local symbols applied to an
oriented unit basis, with coefficients in augmentation quotients.  It is a
`TensorElt`, the `groupring.ClassTensor` with one free row per element of a
basis of (1-tau)E_N, and every reduction of it through homomorphisms on the
units (h, and the valuation and finite part at ell) is one product of rows
of values with its rows (`TensorElt.evaluate`).  `del_lift` builds its local
symbols, and `ConcreteModel` reads its local data at a split ell, each from
one `quadfield.local_parts` call per unit and place.  The two share one
convention: sigma_ell is the least primitive root mod ell, and the symbol at
ell of a unit u is u^{-1} - 1 = -fin (sigma_ell - 1) mod I^2, fin the log of
u to the base sigma_ell.  Both systems run through the pre-Kolyvagin checker
of `kolysys`, each over its top level's coefficients: `_RegulatorLevels`
writes every level over the unit basis of the top level, and `_ThetaLevels`
reduces every level at all the auxiliary primes of the check.  The theta
side is reduced through homomorphisms into Z/M attached to auxiliary primes
q, M | q-1.  The paper proves the congruence for every odd prime p, so M is
odd (`_theta_modulus`): in degree r >= 1 the odd part of
`AugQuot.precision`, the product over the Sylow components of e_p^r, and in
degree 0, where I^0/I^1 = Z, the odd part of q-1.  The auxiliary primes are
the q = 1 mod lcm(nf, M) (`_required_congruence`), one sequence for every
odd p; in degree 0 a q with M = 1 checks nothing and is skipped.  A
reduction is a stack of `ReductionHom` rows, one per prime, and a check
makes one array pass over all of them (`_reduce`): the theta twists'
residues zeta^j - 1 (their exponent table is built once, on the
`cyclo.ThetaElt`) and the regulator's units go to one row-wise batch of
discrete logs in the subgroups of order M.  Only j <= nf/2 is logged; the
other half follows from zeta^-j - 1 = -zeta^-j (zeta^j - 1).  Both sides,
and the residual, are `ClassTensor`s with a row per prime and moduli
(M_q1, ..., M_qP); `AugQuot.class_of_sum` reads the theta side's rows, each
known mod M, one matrix product per odd Sylow component.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

import numpy as np

from . import cyclo, groupring as gr, kolysys, nt, quadfield as qf
from .groupring import ClassTensor, RingElt, aug_quot, gamma
from .nt import BadAuxiliaryPrime, ResourceLimitError
from .quadfield import PrimePlace, QuadField, QuadNum, local_parts


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

    @property
    def units(self) -> list:
        """The basis elements with a nonzero row: the units a reduction reads."""
        return [x for x, z in zip(self.basis, self.rows.any(axis=1)) if z]

    def evaluate(self, values, moduli) -> ClassTensor:
        """The image in the sum of the Z/moduli[k] (x) I^r/I^{r+1} (0: Z)
        under homomorphisms on the units, one per row k of values, which
        holds the images of `units`: values @ rows, in exact integers."""
        live = self.rows[self.rows.any(axis=1)]
        rows = (np.asarray(values, dtype=object) @ live.astype(object)).tolist()
        return ClassTensor(self.quot, moduli, [[x % M if M else x for x in row]
                                               for row, M in zip(rows, moduli)])


# ---------------------------------------------------------------------------
# reduction homomorphisms


@dataclass
class ReductionHom:
    """Evaluation modulo a degree-one prime above q, then discrete log mod M.

    Maps the multiplicative group generated by roots of unity of order nf,
    sqrt(d), and q-unit rationals into Z/M, for a divisor M of q-1.  The
    discrete logs are those to the base g, reduced mod M.  A hom at level n
    reduces every level m | n, through the powers of zeta.  It is one row of
    a reduction: a check reduces at all of its primes at once, a row per
    prime (`_reduce`), and the methods here are its one-row case.
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
        """Discrete logs mod M of the residues xs (a sequence), in one batch."""
        return _dlogs((self,), [xs])[0]

    def zeta_power(self, k: int) -> int:
        return pow(self.zeta, k % (self.level * self.F.conductor), self.q)

    def values(self, payloads) -> list[int]:
        """h of every payload (a QuadNum), with one batched discrete log."""
        return _reduce((self,), units=payloads)[1][0].tolist()

    def alpha_value(self, m: int, c: int) -> int:
        """h of the c-twist of the level-m cyclotomic unit."""
        return int(_reduce((self,), (m, cyclo.twist_exponents(self.F, m, [c])))[0][0, 0])


def _rows(h) -> tuple[ReductionHom, ...]:
    """A reduction as its rows: one `ReductionHom`, or a sequence at one level."""
    return (h,) if isinstance(h, ReductionHom) else tuple(h)


def _dlogs(hs, xs) -> np.ndarray:
    """Discrete logs mod M of the residues xs, row i at hs[i], in one batch:
    x^((q-1)/M) lies in the subgroup of order M, generated by g^((q-1)/M),
    and its log there is the log of x mod M.  A zero x has none."""
    qs, Ms = [h.q for h in hs], [h.modulus for h in hs]
    ks = [(q - 1) // M for q, M in zip(qs, Ms)]
    xs = nt.pow_vec(xs, ks, qs)
    for q, ok in zip(qs, xs.all(axis=1)):
        if not ok:
            raise BadAuxiliaryPrime(f"zero value mod {q}", q)
    try:
        return nt.discrete_logs(xs, [pow(h.g, k, h.q) for h, k in zip(hs, ks)], qs, Ms)
    except ValueError:
        raise RuntimeError("discrete log failed") from None


def _unit_residues(h: ReductionHom, payloads) -> list[int]:
    """The residues mod q of payloads (QuadNums), 0 for a non-q-unit."""
    q, F = h.q, h.F
    sd = h.sqrt_disc if F.disc == F.d else h.sqrt_disc * pow(2, -1, q) % q
    pairs = [(x.a.numerator * x.b.denominator + x.b.numerator * x.a.denominator * sd,
              x.a.denominator * x.b.denominator) for x in payloads]
    return [num * pow(den, -1, q) % q if den % q else 0 for num, den in pairs]


def _reduce(hs, twists=None, units=()) -> tuple[np.ndarray | None, np.ndarray]:
    """h of twists of a cyclotomic unit and of units of F at every row of hs,
    from one batch of discrete logs: (twist values or None, unit values),
    arrays with a row per hom.

    twists is (m, table): the twists of alpha_m whose exponents are the rows
    of table (`cyclo.twist_exponents`).  Their residues are zeta_mf^j - 1, j
    prime to mf, and only j <= mf/2 is logged: zeta^-j - 1 = -zeta^-j
    (zeta^j - 1) gives L(mf - j) = L(j) + L(-1) - j L(zeta).  A twist's value
    is the signed sum of its row.  A row is rejected (BadAuxiliaryPrime) for
    a zero twist residue, then for a unit that is not a q-unit.
    """
    qs = [h.q for h in hs]
    dtype = nt.int_dtype(max(qs))
    us = np.array([_unit_residues(h, units) for h in hs], dtype=dtype)
    blocks = [np.where(us == 0, 1, us)]  # a non-q-unit is rejected after the logs
    if twists:
        m, (at, k_plus) = twists
        if any(h.level % m for h in hs):
            raise ValueError(f"level {m} does not divide the level of the homs")
        mf = m * hs[0].F.conductor
        js = np.flatnonzero(np.bincount(np.minimum(at, mf - at).ravel()))
        z = [h.zeta_power(h.level * h.F.conductor // mf) for h in hs]  # zeta_mf
        blocks += [nt._powers(z, mf // 2 + 1, qs)[:, js] - 1,
                   np.array([[q - 1, x] for q, x in zip(qs, z)], dtype=dtype)]
    logs = _dlogs(hs, np.hstack(blocks))
    for q, ok in zip(qs, us.all(axis=1)):
        if not ok:
            raise BadAuxiliaryPrime(f"degenerate value at q={q}", q)
    if not twists:
        return None, logs
    k = us.shape[1]
    M = np.array([h.modulus for h in hs], dtype=logs.dtype)[:, None]
    L = np.zeros((len(hs), mf), dtype=logs.dtype)
    lj, minus_one, zeta = logs[:, k:-2], logs[:, -2:-1], logs[:, -1:]
    L[:, js], L[:, mf - js] = lj, (lj + minus_one - js * zeta) % M
    tw = L[:, at]
    return (tw[..., :k_plus].sum(axis=2) - tw[..., k_plus:].sum(axis=2)) % M, logs[:, :k]


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
    """A reduction homomorphism at a prime q = 1 mod L into Z/M (ValueError
    for any other q: `nt.primitive_root` rejects a composite one).

    M is `_theta_modulus`.  sqrt(D) maps to the Gauss sum of the
    quadratic character `F.chi`.
    """
    mf = n * F.conductor
    if (q - 1) % mf:
        raise ValueError(f"{q} is not 1 mod {mf}")
    g = nt.primitive_root(q)
    zeta = pow(g, (q - 1) // mf, q)
    f = F.conductor
    zpow = nt._powers([pow(zeta, mf // f, q)], f, [q])[0]
    sd = int((zpow * F.chi).sum()) % q
    if pow(sd, 2, q) != F.disc % q:
        raise BadAuxiliaryPrime(f"Gauss sum check failed at q={q}")
    return ReductionHom(F, n, q, g, zeta, sd, _theta_modulus(aug_quot(n, F.r_of(n)), q))


def tensor_reduce(x: TensorElt, h, values=None) -> ClassTensor:
    """Sum of h(payload) * class at every row of h: the `ClassTensor` with a
    row per hom in Z/M (x) I^r/I^{r+1}, M = h.modulus.  values, if given,
    are the logs of `x.units`, taken in a caller's larger batch."""
    hs = _rows(h)
    _check_hom_compat(x.quot, hs)
    values = _reduce(hs, units=x.units)[1] if values is None else values
    return x.evaluate(values, [h.modulus for h in hs])


def _check_hom_compat(quot, h):
    """The one rule on the target Z/M of each row: M is a multiple of
    `_theta_modulus`."""
    for h in _rows(h):
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
    k, u = local_parts(x, place)
    ell = place.ell
    lift = RingElt(n)
    for q in G.primes:
        if q == 2:
            continue
        if q == ell:
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


@dataclass
class ConcreteModel(kolysys.LocalModel):
    """The local data of h_n R_n: A is free on the units of the regulator.

    At a split ell both parts of a unit come from its `local_parts` at the
    place above ell: the finite part is the discrete log of its unit residue
    to the base sigma_ell, in Z/(ell-1), and the transverse part is its
    valuation, in Z.
    """

    F: QuadField
    split: tuple[int, ...]
    inert: tuple[int, ...]

    def loc(self, x: TensorElt, ell: int) -> tuple[ClassTensor, ClassTensor]:
        place = self.F.place_above(ell)
        parts = [local_parts(y, place) for y in x.units]
        fin = nt.discrete_logs([[r for _, r in parts]], [nt.primitive_root(ell)], [ell], [ell - 1])
        return x.evaluate(fin, (ell - 1,)), x.evaluate([[k for k, _ in parts]], (0,))

    def fs(self, fin: ClassTensor, ell: int, at_level: int) -> ClassTensor:
        """fin lifted to Z, times -(sigma_ell - 1): sigma_ell, the least
        primitive root mod ell, is the base of the logs, and the lift is well
        defined as (ell-1)(sigma_ell - 1) lies in I^2.  Gamma has no
        2-component, and at ell = 2 the finite parts vanish: sigma_2 = 1."""
        sigma = aug_quot(at_level, 1).group_class(gamma(at_level).gens.get(ell, 1))
        return ClassTensor(fin.quot, (0,), fin.rows).embed(at_level).mult_class(-sigma)


# ---------------------------------------------------------------------------
# the theta side (reduced through homomorphisms)


def theta_values(th: cyclo.ThetaElt, h) -> np.ndarray:
    """h(gamma(alpha_n)) for every gamma in Gamma_n, n = th.level, in the
    order of `gamma(n).elements`: an array with a row per hom of h, from one
    array pass over `th.twist_table`, built once per check (`_reduce`)."""
    return _reduce(_rows(h), (th.level, th.twist_table))[0]


def theta_class(th: cyclo.ThetaElt, h, values=None) -> ClassTensor:
    """The reduced theta element th in Z/M (x) I^r/I^{r+1} at every row of h:
    the `ClassTensor` with a row per hom and moduli (M_1, ..., M_P), as
    `AugQuot.class_of_sum` gives it.

    A check makes th once (`cyclo.theta_prime`) and reduces it at all of its
    auxiliary primes in one array pass (`theta_values`; values, if given,
    come from a caller's larger batch).  The theta vector is known mod M,
    and `AugQuot.class_of_sum` reads from that the components of its class
    at the primes p | M, as `_theta_modulus` makes them fixed; the others
    are zero in Z/M (x) I^r/I^{r+1}.  An M that is not a multiple of
    `_theta_modulus` raises PrecisionError before any theta value is
    computed.
    """
    hs = _rows(h)
    quot = aug_quot(th.level, th.r)
    _check_hom_compat(quot, hs)
    vals = theta_values(th, hs) if values is None else values
    moduli = tuple(h.modulus for h in hs)
    aug = vals.sum(axis=1) % np.array(moduli, dtype=vals.dtype)
    if th.r == 0:
        return ClassTensor(quot, moduli, aug[:, None])
    if aug.any():
        raise ArithmeticError("theta vector has nonzero augmentation; "
                              "norm compatibility violated")
    cls = quot.class_of_sum(gamma(th.level).elements, vals, moduli)
    if cls is None:
        raise ArithmeticError("reduced theta element is not in the expected "
                              "ideal power (implementation or theory failure)")
    return cls


def beta_value(th: cyclo.ThetaElt, h) -> list[int]:
    """h applied to the Kolyvagin derivative D_{n+} alpha_{n+}, n+ = th.level,
    a value per row of h."""
    hs, G = _rows(h), gamma(th.level)
    odd, weights = [p for p in G.primes if p != 2], [1] * len(G.elements)
    if odd:  # Gamma_n has no 2-component
        logs = nt.discrete_logs([[g % p for g in G.elements] for p in odd],
                                [nt.primitive_root(p) for p in odd], odd, [p - 1 for p in odd])
        weights = [prod(col) for col in logs.T.tolist()]
    live = [i for i, w in enumerate(weights) if w]
    at, k_plus = th.twist_table
    vals = _reduce(hs, (th.level, (at[live], k_plus)))[0].tolist()
    return [sum(weights[i] * v for i, v in zip(live, row)) % h.modulus
            for h, row in zip(hs, vals)]


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
    vacuous = r >= 1 and _theta_modulus(aug_quot(n, r)) == 1
    hs, bad = [], {}
    for q in qs:
        try:
            hs.append(make_reduction_hom(F, n, q))
        except BadAuxiliaryPrime as exc:
            bad[q] = str(exc)
    while hs:  # both sides at every prime in one batch; a rejected prime leaves it
        try:
            twists, units = _reduce(hs, (n, theta.twist_table), reg.units)
            break
        except BadAuxiliaryPrime as exc:
            if exc.q not in {h.q for h in hs}:
                raise
            bad[exc.q] = str(exc)
            hs = [h for h in hs if h.q != exc.q]
    residual = theta_class(theta, hs, twists) + tensor_reduce(reg, hs, units) if hs else None
    rows = dict(zip((h.q for h in hs), residual.rows.tolist() if hs else []))
    results = [PrimeResult(q, (), "bad-prime", bad[q]) if q in bad else
               PrimeResult(q, tuple(rows[q]), "fail" if any(rows[q]) else "pass")
               for q in qs]
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
    minus 2^s beta_{n_+}, evaluated at every row of h, in
    Z/M (x) I^r/I^{r+1} (M = h.modulus)."""
    hs = _rows(h)
    quot = aug_quot(n, F.r_of(n))
    moduli = [h.modulus for h in hs]
    total = ClassTensor(quot, moduli)
    for dd in nt.divisors(F.n_plus(n)):
        m = n // dd
        cls = theta_class(cyclo.theta_prime(F, m), hs).embed(n)
        for p in nt.prime_factors(dd):
            cls = cls.mult_class(gr.frob_class(n, n // dd, p))
        total = total + cls
    n_plus = F.n_plus(n)
    bval = beta_value(cyclo.theta_prime(F, n_plus), hs)
    rhs = ClassTensor(quot, moduli, np.outer(bval, beta_class_at(F, n).rows[0]))
    return total - 2 ** F.s_of(n) * rhs


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
    """2^{-s(m)} theta~'_m by level m, reduced at every row of h (homs at a
    multiple of m), a row per prime, each level built when it is first read."""

    def __init__(self, F: QuadField, h):
        self.F, self.hs = F, _rows(h)

    def __missing__(self, m: int) -> ClassTensor:
        th = cyclo.theta_prime(self.F, m)
        self[m] = x = theta_class(th, self.hs) * [pow(2, -th.s, h.modulus) for h in self.hs]
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
    exact norm relation, and theta (v) compare reductions at num_primes
    auxiliary primes below bound, which only they read, a row per prime.
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
            model, coll = ConcreteModel(F, split, inert), _RegulatorLevels(F, top)
        else:
            ok = axiom != "ii" or cyclo.norm_relation_check(F, n, ell)
            method = "exact+reductions" if axiom == "ii" else "reductions"
            model = kolysys.LocalModel(split, inert)
            coll = _ThetaLevels(F, [make_reduction_hom(F, n, q)
                                    for q in find_aux_primes(F, n, num_primes, bound)])
        label = "iv'" if axiom == "iv" else axiom
        ok = ok and (label not in kolysys.preks_axioms(model, top, ell, True)
                     or kolysys.preks_holds(coll, model, label, top, ell))
    verdict = "unsupported" if method == "unsupported" else "pass" if ok else "fail"
    return {"system": system, "axiom": axiom, "level": n, "ell": ell,
            "method": method, "verdict": verdict}
