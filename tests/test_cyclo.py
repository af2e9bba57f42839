"""Exact cyclotomic arithmetic and the twisted units."""

import random
from math import gcd

import pytest

from darmoncheck import nt
from darmoncheck.groupring import gamma
from darmoncheck.cyclo import (CycloNum, alpha, alpha_exponents, cyclo_to_quad,
                               cyclotomic_poly, norm_relation_check, quad_to_cyclo,
                               sqrt_disc, theta_prime)
from darmoncheck.quadfield import QuadNum, fundamental_unit, make_field


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # degree = phi(m) and Phi_m(1) = p for prime powers, 1 otherwise
    for m in (3, 4, 5, 9, 15, 21, 40, 55):
        poly = cyclotomic_poly(m)
        assert len(poly) - 1 == nt.euler_phi(m)
        val = sum(poly)
        fac = nt.prime_factors(m)
        assert val == (fac[0] if len(fac) == 1 else 1)


def test_field_arithmetic():
    z = CycloNum.zeta(5)
    one = CycloNum.integer(5, 1)
    assert z ** 5 if False else True
    zz = z
    for _ in range(4):
        zz = zz * z
    assert zz == one  # zeta^5 = 1
    # cyclotomic relation 1 + z + z^2 + z^3 + z^4 = 0
    s = one + z + z * z + z * z * z + z * z * z * z
    assert s.is_zero()
    # division
    x = (one + z) / (one + z)
    assert x == one


def test_galois_action_composition():
    m = 55
    rng = random.Random(0)
    z = CycloNum.zeta(m)
    x = z + CycloNum.integer(m, 3) * z * z
    assert x.galois(1) == x
    for _ in range(10):
        c1 = rng.choice([c for c in range(1, m) if gcd(c, m) == 1])
        c2 = rng.choice([c for c in range(1, m) if gcd(c, m) == 1])
        assert x.galois(c2).galois(c1) == x.galois(c1 * c2 % m)
    # conjugation inverts roots of unity
    assert z.galois(m - 1) * z == CycloNum.integer(m, 1)


def test_alpha_exponents_partition():
    F = make_field(5)
    plus, minus = alpha_exponents(F, 11)
    assert len(plus) == 2 and len(minus) == 2  # phi(f)=4 split in halves
    for a in plus:
        assert a % 11 == 1 and F.omega(a) == 1
    for a in minus:
        assert a % 11 == 1 and F.omega(a) == -1
    # the definition, scanning every residue mod nf
    for d, levels in ((5, (1, 11, 33, 209)), (2, (1, 3, 21)), (13, (1, 7, 35)),
                      (10, (1, 39, 57)), (34, (1, 3, 19))):
        F = make_field(d)
        for n in levels:
            mf = n * F.conductor
            units = [a for a in range(mf) if gcd(a, mf) == 1 and a % n == 1 % n]
            assert alpha_exponents(F, n) == (
                tuple(a for a in units if F.omega(a) == 1),
                tuple(a for a in units if F.omega(a) == -1)), (d, n)


def test_alpha_base_case_value():
    # alpha_1 = eps^{-2} for d = 5
    F = make_field(5)
    v = cyclo_to_quad(F, alpha(F, 1))
    eps = fundamental_unit(F)
    assert v == QuadNum(5, 1) / (eps * eps)


def test_alpha_galois_invariance_and_minus_part():
    F = make_field(5)
    a11 = alpha(F, 11)
    one = CycloNum.integer(55, 1)
    for c in range(2, 55):
        if gcd(c, 55) != 1 or c % 11 != 1:
            continue
        if F.omega(c) == 1:
            assert a11.galois(c) == a11
        else:
            assert a11.galois(c) * a11 == one


def test_alpha_rejects_bad_level():
    with pytest.raises(ValueError):
        alpha(make_field(5), 15)


def test_theta_prime_fields():
    F = make_field(5)
    th = theta_prime(F, 11)
    assert (th.r, th.s) == (1, 0)
    th33 = theta_prime(F, 33)
    assert (th33.r, th33.s) == (1, 1)
    assert th.coefficient(1) == alpha(F, 11)


def test_theta_coefficient_reduction_consistency():
    # evaluating a coefficient then reducing equals twisting the reduction
    from darmoncheck.darmon import find_aux_primes, make_reduction_hom
    F = make_field(5)
    th = theta_prime(F, 11)
    qs = find_aux_primes(F, 11, 2)
    G_elems = [g for g in range(1, 11)]
    for q in qs:
        h = make_reduction_hom(F, 11, q)
        for g in (2, 6, 7):
            direct = h.alpha_value(11, th.twist_residue(g))
            # oracle: evaluate the full fraction polynomial of the twist
            x = th.coefficient(g)
            num = sum(c * pow(h.zeta_power(1), j, h.q) * 0 for j, c in enumerate(x.num))
            zq = h.zeta_power(1)
            nv = sum(c * pow(zq, j, h.q) for j, c in enumerate(x.num)) % h.q
            dv = sum(c * pow(zq, j, h.q) for j, c in enumerate(x.den)) % h.q
            val = (h.dlog(nv) - h.dlog(dv)) % h.modulus
            assert val == direct


def test_norm_relation_exact():
    F = make_field(5)
    assert norm_relation_check(F, 11, 11)
    assert norm_relation_check(F, 33, 11)
    assert not norm_relation_check(F, 11, 11, perturb=True)
    with pytest.raises(ValueError):
        norm_relation_check(F, 33, 3)  # 3 is inert


def test_sqrt_disc_squares():
    for d in (2, 5, 10, 13):
        F = make_field(d)
        for mult in (1, 3):
            m = F.conductor * mult
            sd = sqrt_disc(F, m)
            assert sd * sd == CycloNum.integer(m, F.disc)


def test_quad_cyclo_roundtrip():
    rng = random.Random(1)
    for d in (5, 2, 10):
        F = make_field(d)
        for _ in range(5):
            x = QuadNum(d, rng.randrange(-5, 6), rng.randrange(-5, 6))
            m = F.conductor
            y = quad_to_cyclo(F, x, m)
            assert cyclo_to_quad(F, y) == x


def test_alpha_unit_support():
    # the numerator/denominator binomial exponents only meet prime powers
    # dividing nf, so alpha is a unit away from nf
    F = make_field(5)
    for n in (1, 11, 33):
        mf = n * F.conductor
        plus, minus = alpha_exponents(F, n)
        for a in list(plus) + list(minus):
            k = mf // gcd(a, mf)
            fac = nt.prime_factors(k)
            if len(fac) == 1:
                assert fac[0] in (5, 11, 3)


def test_twist_residues_are_the_crt_lifts(workloads):
    # the closed form agrees with nt.crt at every level of the benchmark sweep
    for _, pairs in workloads.SWEEP_STRATA:
        for d, n in pairs:
            th = theta_prime(make_field(d), n)
            gs = gamma(n).elements
            f = th.F.conductor
            assert th.twist_residues(gs) == [nt.crt([g, 1], [n, f]) for g in gs], (d, n)
            assert th.twist_residue(gs[-1]) == nt.crt([gs[-1], 1], [n, f])
