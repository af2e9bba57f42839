"""Local symbols at split primes of a real quadratic field.

The boundary map sends x to (Artin symbol - 1) in I_n/I_n^2, computed
componentwise: at components away from ell the symbol is the ord-power of
Frobenius, and at the ell component the unit part u of x acts on mu_ell
through zeta -> zeta^(1/u).  The uniformizer ell itself is a local norm, so
it contributes nothing at the ell component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groupring import ClassTensor, RingElt, aug_quot, gamma
from .quadfield import PrimePlace, QuadField, QuadNum, ord_at, unit_residue


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


def del_symbol(F: QuadField, x: QuadNum, place: PrimePlace, n: int) -> ClassTensor:
    """The class of (Artin symbol of x at the place) - 1 in I_n/I_n^2.

    When the residue prime of the place does not divide n the extension is
    unramified there and only Frobenius components appear.
    """
    if x.is_zero():
        raise ValueError("the symbol of 0 is undefined")
    return aug_quot(n, 1).class_of(del_lift(F, x, place, n))


@dataclass(frozen=True)
class LocalDecomp:
    """Finite/transverse data of x at a split prime ell = lambda * lambda^tau."""

    ell: int
    ord_lambda: int
    ord_lambda_tau: int
    unit_residue: int  # residue mod ell of the unit part at lambda


def fin_tr_split(F: QuadField, x: QuadNum, ell: int) -> LocalDecomp:
    """Split x into transverse exponents and the finite (unit) residue."""
    if F.omega(ell) != 1:
        raise ValueError(f"{ell} is not split in the field")
    if x.is_zero():
        raise ValueError("cannot decompose 0")
    place = F.place_above(ell)
    return LocalDecomp(
        ell,
        ord_at(x, place),
        ord_at(x, place.conj()),
        unit_residue(x, place),
    )


@dataclass(frozen=True)
class FSClass:
    """(ell, ell^{-1})-coefficient tensored with a class in I_ell/I_ell^2,
    the one-row `ClassTensor` aug_class."""

    ell: int
    transverse_exponent: int
    aug_class: ClassTensor  # in I_ell/I_ell^2, well-defined mod ell-1

    def normalized(self) -> ClassTensor:
        """The class with the transverse coefficient folded in."""
        return self.transverse_exponent * self.aug_class

    def is_zero(self) -> bool:
        return self.normalized().is_zero()


def phi_fs(F: QuadField, x: QuadNum, ell: int, use_conjugate: bool = False) -> FSClass:
    """The finite-singular image of a unit at ell.

    Returns (ell, ell^{-1}) tensor (symbol - 1); independent of the choice of
    lambda versus lambda^tau when x lies in the minus part (use_conjugate
    recomputes it the other way for that check).
    """
    place = F.place_above(ell)
    if use_conjugate:
        place = place.conj()
    if ord_at(x, place) != 0 or ord_at(x, place.conj()) != 0:
        raise ValueError("finite-singular map needs a unit at ell")
    u = unit_residue(x, place)
    sym = pow(u, -1, ell)
    cls = aug_quot(ell, 1).group_class(sym % ell)
    # via lambda^tau the transverse generator is (1, ell) = (ell, ell^{-1})^{-1}
    return FSClass(ell, -1 if use_conjugate else 1, cls)
