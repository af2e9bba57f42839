"""Real quadratic field arithmetic against brute-force oracles."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from darmoncheck import nt
from darmoncheck.quadfield import (QuadNum, class_group,
                                   fundamental_unit, h_n, ideal_of,
                                   lambda_generator, local_parts, make_field,
                                   prime_ideal, unit_basis)


def brute_fundamental_unit(d):
    """Least unit > 1 by direct search over the discriminant norm form."""
    D = d if d % 4 == 1 else 4 * d
    b = 1
    while True:
        cands = []
        for s in (-4, 4):
            t = D * b * b + s
            if t > 0:
                a = isqrt(t)
                if a * a == t and (a - D * b) % 2 == 0:
                    cands.append(a)
        if cands:
            a = min(cands)
            if D == d:
                return QuadNum(d, Fraction(a, 2), Fraction(b, 2))
            return QuadNum(d, Fraction(a, 2), b)
        b += 1


def test_make_field_examples():
    assert make_field(5).disc == 5 and make_field(5).conductor == 5
    assert make_field(2).disc == 8
    assert make_field(10).disc == 40
    with pytest.raises(ValueError):
        make_field(12)
    with pytest.raises(ValueError):
        make_field(1)


def test_omega_examples():
    F = make_field(5)
    assert F.omega(11) == 1
    assert F.omega(3) == -1
    assert F.omega(5) == 0
    # brute-force quadratic-residue oracle
    for ell in (3, 7, 11, 13, 19, 23, 29):
        squares = {x * x % ell for x in range(1, ell)}
        expected = 1 if F.disc % ell in squares else -1
        if F.disc % ell == 0:
            expected = 0
        assert F.omega(ell) == expected


def test_fundamental_units_vs_brute_force():
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29,
              30, 31, 33, 34, 35, 37, 38, 39, 41, 46):
        F = make_field(d)
        eps = fundamental_unit(F)
        assert eps == brute_fundamental_unit(d), d
        assert eps.norm() in (1, -1)


def test_fundamental_units_vs_pell_solutions():
    # eps or eps^3 is the least solution of x^2 - d y^2 = +-1 (the cube when
    # eps is half-integral); this reaches fields with large regulators
    from sympy.solvers.diophantine.diophantine import diop_DN
    for d in range(2, 1200):
        if not nt.is_squarefree(d):
            continue
        eps = fundamental_unit(make_field(d))
        assert abs(eps.norm()) == 1, d
        sols = diop_DN(d, -1) or diop_DN(d, 1)
        x, y = min(sols)
        assert QuadNum(d, x, y) in (eps, eps ** 3), d


def test_class_numbers_table():
    known = {2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 11: 1, 13: 1, 14: 1, 15: 2,
             17: 1, 19: 1, 21: 1, 22: 1, 23: 1, 26: 2, 29: 1, 30: 2, 31: 1,
             33: 1, 34: 2, 35: 2, 37: 1, 38: 1, 39: 2, 41: 1, 42: 2, 43: 1,
             46: 1, 47: 1, 51: 2, 53: 1, 55: 2, 57: 1, 58: 2, 59: 1, 61: 1,
             62: 1, 65: 2, 66: 2, 67: 1, 69: 1, 70: 2, 71: 1, 73: 1, 74: 2,
             79: 3, 82: 4, 85: 2, 87: 2, 89: 1, 91: 2, 93: 1, 94: 1, 95: 2,
             97: 1}
    for d, h in known.items():
        if nt.is_squarefree(d):
            assert class_group(make_field(d)).h == h, d


def test_form_group_axioms():
    rng = random.Random(0)
    for d in (10, 79, 82):
        G = class_group(make_field(d)).group
        reps = G.reps
        for _ in range(20):
            a, b, c = rng.choice(reps), rng.choice(reps), rng.choice(reps)
            assert G.compose(a, b) == G.compose(b, a)
            assert G.compose(G.compose(a, b), c) == G.compose(a, G.compose(b, c))
            assert G.compose(a, G.one) == G.canonical(a)
            assert G.compose(a, G.inverse(a)) == G.one


def test_h_n_examples():
    F5 = make_field(5)
    assert h_n(F5, 1) == 1 and h_n(F5, 11) == 1
    F10 = make_field(10)
    assert h_n(F10, 1) == 2
    # 3 splits in Q(sqrt(10)) with a nontrivial class
    assert h_n(F10, 3) == 1
    # inert primes leave the class number unchanged
    F5 = make_field(5)
    assert h_n(F5, 3) == 1
    with pytest.raises(ValueError):
        h_n(F5, 15)


def test_lambda_generator_examples():
    F5 = make_field(5)
    pl = F5.place_above(11)
    k, g = lambda_generator(F5, pl)
    assert k == 1 and abs(g.norm()) == 11
    assert ideal_of(F5, g) == prime_ideal(F5, pl)
    F10 = make_field(10)
    pl3 = F10.place_above(3)
    k3, g3 = lambda_generator(F10, pl3)
    assert k3 == 2 and abs(g3.norm()) == 9
    assert ideal_of(F10, g3) == prime_ideal(F10, pl3).pow(2)


def test_ord_at_against_ideal_powers():
    F = make_field(5)
    pl = F.place_above(11)
    lam = prime_ideal(F, pl)
    _, g = lambda_generator(F, pl)
    eps = fundamental_unit(F)
    for x in (g, g * g, g * g.conj(), (g ** 3) / 11, eps, g / g.conj()):
        v = local_parts(x, pl)[0]
        den = x.a.denominator * x.b.denominator
        y = x * den
        vy = 0
        while lam.pow(vy + 1).contains_num(y):
            vy += 1
        v_den = 0
        dd = den
        while dd % 11 == 0:
            dd //= 11
            v_den += 1
        assert local_parts(y, pl)[0] == vy and v == vy - v_den


def test_ord_norm_compatibility():
    F = make_field(5)
    pl = F.place_above(11)
    rng = random.Random(1)
    for _ in range(30):
        x = QuadNum(5, Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)))
        if x.is_zero():
            continue
        n = x.norm()
        v_l = local_parts(x, pl)[0] + local_parts(x, pl.conj())[0]
        v_n = 0
        num, den = abs(n.numerator), n.denominator
        while num % 11 == 0:
            num //= 11
            v_n += 1
        while den % 11 == 0:
            den //= 11
            v_n -= 1
        assert v_l == v_n


def test_unit_residue_multiplicative():
    F = make_field(5)
    pl = F.place_above(11)
    eps = fundamental_unit(F)
    _, g = lambda_generator(F, pl)
    rng = random.Random(2)
    xs = [eps, g, g.conj(), eps * g, g / g.conj()]
    for _ in range(20):
        a, b = rng.choice(xs), rng.choice(xs)
        assert (local_parts(a * b, pl)[1]
                == local_parts(a, pl)[1] * local_parts(b, pl)[1] % 11)


@pytest.mark.parametrize("d, ell", [(17, 2), (41, 2), (73, 2), (10, 3)])
def test_local_parts_against_ideal_powers(d, ell):
    # at both places above 2, where sqrt(d) is lifted bit by bit, and at an
    # odd ell in a field of class number 2: k is the largest power of the
    # prime ideal P holding x, and x - r ell^k lies in P^(k+1)
    F = make_field(d)
    eps = fundamental_unit(F)
    for pl in (F.place_above(ell), F.place_above(ell).conj()):
        lam = prime_ideal(F, pl)
        _, g = lambda_generator(F, pl)
        xs = [g ** j * g.conj() ** i * eps ** e * c for j in range(6) for i in (0, 1)
              for e in (-1, 0, 1) for c in (1, -3, ell, 5 * ell * ell)]
        parts = [local_parts(x, pl) for x in xs]
        for x, (k, r) in zip(xs, parts):
            assert lam.pow(k).contains_num(x) and not lam.pow(k + 1).contains_num(x)
            assert lam.pow(k + 1).contains_num(x - r * ell ** k)
        rng = random.Random(d)
        for _ in range(30):
            a, b = rng.randrange(len(xs)), rng.randrange(len(xs))
            assert local_parts(xs[a] * xs[b], pl)[1] == parts[a][1] * parts[b][1] % ell


def test_unit_basis_and_orientation(sign_at):
    F = make_field(5)
    ul = unit_basis(F, 11)
    assert len(ul.basis) == 2  # rank r+1
    assert ul.ords[0][0] == 0 and ul.ords[0][1] == -1  # nested, oriented
    assert sign_at(F, ul.basis, ul.places) > 0
    ul2 = unit_basis(F, 209)
    assert len(ul2.basis) == 3
    # triangular valuation structure
    assert ul2.ords[0][1] == -1 and ul2.ords[0][2] == 0
    assert ul2.ords[1][1] == 0 and ul2.ords[1][2] == -1
    # the level-11 basis is the prefix (nesting)
    assert ul2.basis[0] == ul.basis[0] and ul2.basis[1] == ul.basis[1]


def test_unit_basis_inert_part_invisible():
    F = make_field(5)
    u11 = unit_basis(F, 11)
    u33 = unit_basis(F, 33)
    assert u11.basis == u33.basis  # (1-tau)E_n depends only on n_+


@pytest.mark.parametrize("d, n", [(5, 209), (10, 39), (17, 26)])
def test_unit_lattice_coords_round_trip(d, n):
    # products of powers of the basis come back as their exponents: h = 1,
    # h = 2, and a split 2 at d = 17
    F = make_field(d)
    ul = unit_basis(F, n)
    rng = random.Random(d)
    for _ in range(10):
        c = [rng.randrange(-3, 4) for _ in ul.basis]
        u = QuadNum(d, 1)
        for e, k in zip(ul.basis, c):
            u = u * e ** k
        assert ul.coords(u) == c, (d, n, c)


def test_unit_lattice_coords_outside_the_span():
    # 2 + sqrt(5) is a unit, but eps_0 = -((1 + sqrt(5))/2)^2 spans only
    # the even powers; -1 and the 11-unit 11 are outside too
    ul = unit_basis(make_field(5), 11)
    for u in (QuadNum(5, 2, 1), QuadNum(5, -1), QuadNum(5, 11)):
        with pytest.raises(ValueError):
            ul.coords(u)


def test_cnr_valuation_law():
    # ord_{lambda_r}(eps_r) = -h_{n/l}/h_n for the nested oriented basis
    for d, n in ((5, 11), (5, 209), (10, 3)):
        F = make_field(d)
        ul = unit_basis(F, n)
        split = F.split_primes(n)
        for i, ell in enumerate(split):
            m = 1
            for p in split[:i + 1]:
                m *= p
            expected = -(h_n(F, m // ell) // h_n(F, m))
            assert ul.ords[i][i + 1] == expected, (d, n, ell)


def test_minus_one_not_in_unit_lattice():
    # no product of basis elements over a small exponent box equals -1
    F = make_field(5)
    ul = unit_basis(F, 11)
    minus_one = QuadNum(5, -1)
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert (ul.basis[0] ** a) * (ul.basis[1] ** b) != minus_one


def test_norm_of_alpha_search_guard():
    from darmoncheck.nt import ResourceLimitError
    import darmoncheck.quadfield as qf
    old = qf.NORM_SEARCH_CAP
    qf.NORM_SEARCH_CAP = 1
    try:
        F = make_field(5)
        with pytest.raises(ResourceLimitError):
            lambda_generator(F, F.place_above(11))
    finally:
        qf.NORM_SEARCH_CAP = old
