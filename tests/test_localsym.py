"""Local symbols, the finite/transverse split, and the finite-singular map.

The symbol of x at a place, in I_n/I_n^2, is the class of `darmon.del_lift`.
At level ell it is the finite-singular image phi^fs of a unit x at the
place: (ell, ell^{-1}) tensor (symbol - 1).  Through the conjugate place the
transverse generator is (1, ell) = (ell, ell^{-1})^{-1}, so that form is
minus the class of the symbol at the conjugate place.
"""

import random

import pytest

from darmoncheck import groupring as gr
from darmoncheck.darmon import ConcreteModel, del_lift, regulator
from darmoncheck.groupring import RingElt, aug_quot, pi_d
from darmoncheck.quadfield import (QuadNum, fundamental_unit, lambda_generator,
                                   local_parts, make_field)

F = make_field(5)
PL = F.place_above(11)
EPS = fundamental_unit(F)
E0 = EPS / EPS.conj()
_, G11 = lambda_generator(F, PL)
E1 = G11.conj() / G11


def sym(x, n, place=PL):
    """The class of (Artin symbol of x at the place) - 1 in I_n/I_n^2."""
    return aug_quot(n, 1).class_of(del_lift(F, x, place, n))


def test_del_additivity():
    rng = random.Random(0)
    for _ in range(15):
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        x = (E0 ** a) * (E1 ** b)
        assert sym(x, 11) == a * sym(E0, 11) + b * sym(E1, 11)


def test_del_unramified_law():
    # at a level prime to ell the symbol is ord * (Frobenius - 1)
    k = local_parts(E1, PL)[0]
    assert k == -1
    c3 = sym(E1, 3)
    fr_inv = pow(11 % 3, -1, 3)
    assert c3 == aug_quot(3, 1).class_of(RingElt.gen_minus_one(3, fr_inv))


def test_del_component_decomposition():
    c33 = sym(E1, 33)
    assert pi_d(c33, 3) == gr.embed_class(sym(E1, 3), 33)
    assert pi_d(c33, 11) == gr.embed_class(sym(E1, 11), 33)


def test_del_unit_case():
    # for a unit at the place, the symbol is tame: zero away from ell
    c = sym(E0, 33)
    assert pi_d(c, 3).is_zero()
    assert pi_d(c, 11) == gr.embed_class(sym(E0, 11), 33)


def test_del_rejects_zero():
    with pytest.raises(ValueError):
        sym(QuadNum(5, 0), 11)


def test_fin_tr_split_examples():
    # the transverse exponents at lambda and lambda^tau
    assert (local_parts(E0, PL)[0], local_parts(E0, PL.conj())[0]) == (0, 0)
    x = G11 / G11.conj()
    assert (local_parts(x, PL)[0], local_parts(x, PL.conj())[0]) == (1, -1)
    with pytest.raises(ValueError):
        ConcreteModel(F, (11,), (3,)).loc(regulator(F, 11), 3)  # 3 is inert


def test_fin_tr_unit_residues_inverse_for_minus_part():
    # for x = u/u^tau the residues at the two places are mutually inverse
    for x in (E0, E1 * E0, E1):
        if local_parts(x, PL)[0] or local_parts(x, PL.conj())[0]:
            continue
        u = local_parts(x, PL)[1]
        v = local_parts(x, PL.conj())[1]
        assert u * v % 11 == 1


def test_phi_fs_conventions():
    # phi^fs of a minus-part unit is the same through either place
    for x in (E0, E0 * E0, E0 ** 3):
        assert sym(x, 11) == -sym(x, 11, PL.conj())
    # x = 1 mod lambda gives the zero class
    assert sym(E0 ** 10, 11).is_zero()


def test_phi_fs_generator():
    # a residue of multiplicative order 10 maps to a generator
    u = local_parts(E0, PL)[1]
    assert nt_order(u, 11) == 10
    assert sym(E0, 11).order() == 10


def nt_order(u, p):
    order, y = 1, u
    while y != 1:
        y = y * u % p
        order += 1
    return order


def test_phi_fs_kills_ell_minus_one():
    assert (10 * sym(E0, 11)).is_zero()
