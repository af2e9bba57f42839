"""Group rings of (Z/n)^x and augmentation-ideal quotients."""

import itertools
import random
from functools import lru_cache
from math import comb, gcd, prod

import numpy as np
import pytest

from darmoncheck import cyclo, groupring as gr, nt
from darmoncheck.darmon import find_aux_primes, make_reduction_hom, theta_class, theta_values
from darmoncheck.groupring import (ClassTensor, PermData, RingElt, aug_quot, d_det,
                                   derangements, embed_class, gamma,
                                   in_new_component, monomial_class, mult_classes,
                                   perm_pi, perm_sign, pi_d, single_orbit_nonfixed,
                                   smith_chain)
from darmoncheck.groupring import _frob_lift
from darmoncheck import intmat
from darmoncheck.intmat import hnf_mod, hnf_solve, hnf_solve_mod, snf_mod
from darmoncheck.quadfield import make_field


def test_gamma_basic():
    assert len(gamma(1)) == 1
    assert len(gamma(11)) == 10
    G = gamma(209)
    assert len(G) == 180
    with pytest.raises(ValueError):
        gamma(12)


def test_gamma_crt_exhaustive():
    # the CRT bijection Gamma_209 <-> Gamma_11 x Gamma_19, exhaustively
    G = gamma(209)
    seen = set()
    for g in G.elements:
        pair = (g % 11, g % 19)
        assert pair not in seen
        seen.add(pair)
        assert G.embed_from(11, g % 11) * G.embed_from(19, g % 19) % 209 == g
    assert len(seen) == 180


def test_gamma_crt_large_sample():
    rng = random.Random(0)
    for n in (2310, 4199, 9965):  # up to ~10^4
        if not nt.is_squarefree(n):
            continue
        G = gamma(n)
        assert G.phi == nt.euler_phi(n)
        for _ in range(50):
            a = rng.choice(G.elements)
            b = rng.choice(G.elements)
            # multiplication is componentwise under CRT
            for p in G.primes:
                assert (G.mult(a, b)) % p == (a * b) % p


def test_generators_generate():
    for n in (11, 15, 35, 209):
        G = gamma(n)
        span = {G.identity}
        frontier = [G.identity]
        while frontier:
            x = frontier.pop()
            for s in G.gens.values():
                y = G.mult(x, s)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        assert len(span) == G.phi


def test_ring_axioms_sample():
    rng = random.Random(1)
    n = 15
    G = gamma(n)
    elems = []
    for _ in range(6):
        elems.append(RingElt(n, {rng.choice(G.elements): rng.randrange(-3, 4)
                                 for _ in range(3)}))
    a, b, c = elems[:3]
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a  # abelian group ring
    # augmentation is a ring homomorphism
    assert (a * b).aug() == a.aug() * b.aug()
    assert (a + b).aug() == a.aug() + b.aug()


def test_cached_classes_are_read_only():
    # the quotients keep the classes they hand out, so writing to one would
    # change what every later caller reads
    n = 209
    cached = [aug_quot(n, 1).group_class(gamma(n).gens[11]), gr.frob_class(n, 11, 19),
              d_det(n, n)[1], perm_pi(PermData(n, ((11, 19), (19, 11)))),
              aug_quot(n, 2).splitting((11, 19))["new_gen"]]
    for c in cached:
        assert c.rows.size, c
        with pytest.raises(ValueError):
            c.rows[0, 0] = 0
    # and so do the matrices of the induced maps
    q1, q2 = aug_quot(105, 1), aug_quot(105, 2)
    v = q1.group_class(gamma(105).gens[7])
    kept = [q2.pi_matrix(35), aug_quot(35, 2).embed_matrix(105), *q2.mult_table(q1, q1),
            q2.splitting((5, 7))["proj"], q2.mult_matrix(q1, v),
            aug_quot(105, 0).pi_matrix(35), q1.mult_matrix(aug_quot(105, 0), v)]
    for M in kept:
        assert M.size, M
        with pytest.raises(ValueError):
            M.flat[0] = 1


def test_mult_class_refuses_a_multiplier_that_is_not_a_class():
    q = aug_quot(35, 1)
    a, b = (q.group_class(gamma(35).gens[p]) for p in (5, 7))
    assert a.mult_class(b).rows.tolist() == [[0, 1, 0, 0]]
    for v in (ClassTensor(q, (0, 0), [a.rows[0], b.rows[0]]),  # two rows: [a; b]
              ClassTensor(q, (3,), b.rows)):  # b in Z/3 (x) I/I^2
        with pytest.raises(ValueError):
            a.mult_class(v)


def test_aug_quot_examples():
    assert aug_quot(11, 1).order == 10
    q0 = aug_quot(1, 0)
    assert q0.invariants == (0,)  # Z, rank one
    q = aug_quot(209, 2)
    sp = q.splitting((11, 19))
    assert sp["new_gen"].order() == 2  # gcd(10, 18)


def test_monomial_class_examples():
    G = gamma(11)
    q = aug_quot(11, 1)
    zero = monomial_class(q, [(11, 1)])
    assert zero.is_zero()
    gen = monomial_class(q, [(11, G.gens[11] % 11)])
    assert gen.order() == 10
    q2 = aug_quot(209, 2)
    G2 = gamma(209)
    c = monomial_class(q2, [(11, G2.gens[11] % 11), (19, G2.gens[19] % 19)])
    assert c.order() == 2 and in_new_component(c)
    with pytest.raises(ValueError):
        monomial_class(q2, [(11, 3)])  # wrong arity


def test_pi_d_examples():
    q2 = aug_quot(209, 2)
    G = gamma(209)
    c = monomial_class(q2, [(11, G.gens[11] % 11), (19, G.gens[19] % 19)])
    assert pi_d(c, 209) == c  # pi_n is the identity
    assert pi_d(c, 19).is_zero()  # kills the Gamma_11 factor
    assert pi_d(c, 1).is_zero()  # augmentation in positive degree
    with pytest.raises(ValueError):
        pi_d(c, 7)


def test_embed_needs_a_multiple_of_the_level():
    for r in (0, 1):  # degree 0 has no matrix to catch it
        with pytest.raises(ValueError):
            embed_class(aug_quot(5, r).zero(), 7)


def test_proj_new_properties():
    # at prime level the new part is everything
    q = aug_quot(11, 1)
    rng = random.Random(2)
    for _ in range(10):
        x = ClassTensor(q, (0,), [[rng.randrange(d) if d > 1 else 0 for d in q.invariants]])
        assert x.proj_new((11,)) == x
    # idempotence and old-component kill at 209
    q2 = aug_quot(209, 2)
    G = gamma(209)
    old = monomial_class(q2, [(11, G.gens[11] % 11), (11, G.gens[11] % 11)])
    assert old.proj_new((11, 19)).is_zero()
    for _ in range(20):
        x = ClassTensor(q2, (0,), [[rng.randrange(d) if d > 1 else 0 for d in q2.invariants]])
        p = x.proj_new((11, 19))
        assert p.proj_new((11, 19)) == p
        assert in_new_component(p)


def test_membership_criterion_random():
    rng = random.Random(3)
    for n in (35, 143, 209):
        G = gamma(n)
        r = len(G.primes)
        q = aug_quot(n, r)
        plus = G.primes
        sp = q.splitting(plus)
        M = sp["new_gen"]
        g = sp["g"]
        for _ in range(30):
            x = ClassTensor(q, (0,), [[rng.randrange(d) if d > 1 else 0
                                       for d in q.invariants]])
            crit = all(pi_d(x, n // p).is_zero() for p in plus)
            in_span = any((a * M) == x for a in range(max(g, 1)))
            assert crit == in_span


def test_new_order_is_gcd_sample():
    for n in (15, 21, 33, 35, 77, 105, 143, 209, 221):
        if not nt.is_squarefree(n):
            continue
        G = gamma(n)
        q = aug_quot(n, len(G.primes))
        sp = q.splitting(G.primes)
        g = gcd(*[p - 1 for p in G.primes])
        assert sp["new_gen"].order() == g or (g == 1 and sp["new_gen"].is_zero())


def test_projection_lemma():
    # proj_n(v w) = v proj_d(pi_d(w)) for v in the new part of level n/d
    n, d = 105, 15  # n/d = 7
    G = gamma(n)
    rng = random.Random(4)
    qd = aug_quot(n, 2)  # degree of w = r(d) = 2
    v_low = monomial_class(aug_quot(7, 1), [(7, gamma(7).gens[7] % 7)])
    v = embed_class(v_low, n)
    for _ in range(10):
        w = ClassTensor(qd, (0,), [[rng.randrange(dd) if dd > 1 else 0
                                    for dd in qd.invariants]])
        lhs = mult_classes(v, w).proj_new(G.primes)
        pw = pi_d(w, d)
        # proj at level d of pi_d(w), embedded and multiplied by v
        pd_w = pw.proj_new(tuple(nt.prime_factors(d)))
        rhs = mult_classes(v, pd_w).proj_new(G.primes)
        assert lhs == rhs


def test_d_det_conventions():
    _, one = d_det(209, 1)
    assert one.rows.tolist() == [[1]]
    _, dl = d_det(11, 11)
    assert dl.is_zero()  # 1x1 with vanishing diagonal
    m, d2 = d_det(209, 209)
    a = _frob_lift(209, 19, 11)
    b = _frob_lift(209, 11, 19)
    assert d2 == aug_quot(209, 2).class_of(-1 * (a * b))
    with pytest.raises(ValueError):
        d_det(209, 7)


def test_detp_derangement_expansion():
    for n in (209, 35, 143):
        primes = nt.prime_factors(n)
        _, dd = d_det(n, n)
        quot = aug_quot(n, len(primes))
        tot = quot.zero()
        for mp in derangements(primes):
            tot = tot + perm_sign(mp) * perm_pi(PermData(n, tuple(sorted(mp.items()))))
        assert tot == dd


def test_perm_pi_examples():
    p = PermData(209, ((11, 11), (19, 19)))
    assert perm_pi(p).rows.tolist() == [[1]]  # empty product in degree 0
    assert p.sign == 1 and p.d_sigma == 1
    q = PermData(209, ((11, 19), (19, 11)))
    assert q.sign == -1 and q.d_sigma == 209
    v = perm_pi(q)
    a = _frob_lift(209, 11, 19)
    b = _frob_lift(209, 19, 11)
    assert v == aug_quot(209, 2).class_of(a * b)


def _det_lemma_instance(n, d, ell):
    """Check the three projection identities for Frobenius determinants."""
    t = len(nt.prime_factors(d))
    _, D_nd = d_det(n, d)
    if d % ell == 0:
        lhs = pi_d(D_nd, n // ell)
        _, low = d_det(n // ell, d // ell)
        fr = _frob_lift(n, n // d, ell)
        rhs_lift = fr * aug_quot(n // ell, t - 1).lift(low).embed(n) \
            if t - 1 >= 1 else fr * int(low.rows[0, 0])
        rhs = aug_quot(n, t).class_of(rhs_lift)
        assert lhs == rhs
    else:
        lhs = pi_d(D_nd, n // ell)
        _, low = d_det(n // ell, d)
        assert lhs == embed_class(low, n)
    # (iii)
    _, dd = d_det(d, d)
    assert pi_d(D_nd, d) == embed_class(dd, n)
    assert in_new_component(embed_class(dd, n) if n != d else dd,
                            tuple(nt.prime_factors(d))) or dd.is_zero()


def test_det_lemma_small_pool():
    pool = [3, 5, 7, 11]
    count = 0
    for k in (1, 2, 3):
        for combo in itertools.combinations(pool, k):
            n = prod(combo)
            for dd in nt.divisors(n):
                if dd == 1:
                    continue
                for ell in combo:
                    _det_lemma_instance(n, dd, ell)
                    count += 1
    assert count >= 50


def test_single_orbit_filter():
    mp = {3: 3, 5: 5}
    assert single_orbit_nonfixed(mp)
    mp = {3: 5, 5: 3, 7: 11, 11: 7}
    assert not single_orbit_nonfixed(mp)
    mp = {3: 5, 5: 7, 7: 3, 11: 11}
    assert single_orbit_nonfixed(mp)


def _full_rank_chain(mult, elems, gens, e, r):
    """I^r / I^{r+1} of a finite abelian group built directly: lattices of
    rank len(elems) in the (g-1)-coordinates of `elems` (the elements other
    than 1), mod e^j, e the exponent.

    Returns the Smith invariants of the quotient and the Hermite bases of I^r
    and I^{r+1}.
    """
    pos = {g: i for i, g in enumerate(elems)}

    def times_gen_minus_one(B, s):
        # (g - 1)(s - 1) = (gs - 1) - (g - 1) - (s - 1)
        out = -B
        for i, g in enumerate(elems):
            j = pos.get(mult(s, g))
            if j is not None:
                out[:, j] += B[:, i]
        out[:, pos[s]] -= B.sum(axis=1)
        return out

    low = np.eye(len(elems), dtype=np.int64)
    for j in range(1, r + 1):
        high = hnf_mod(np.vstack([times_gen_minus_one(low, s) for s in gens]), e ** j)
        if j < r:
            low = high
    X = high if r == 1 else hnf_solve_mod(low, high, e ** (r - 1))
    d, _, _ = snf_mod(X, e)
    return d, low, high


def _full_rank_reference(n, r):
    """I_n^r / I_n^{r+1} built directly: lattices of rank phi(n) - 1 mod e^j."""
    G = gamma(n)
    return _full_rank_chain(G.mult, [g for g in G.elements if g != G.identity],
                            list(G.gens.values()), G.exponent, r)


@lru_cache(maxsize=None)
def _sylow_reference(n, p, r):
    """The full-rank chain of G_p in the coordinates of its component of
    aug_quot(n, r): the invariants > 1 and the Hermite bases of I(G_p)^r and
    I(G_p)^{r+1}."""
    G = gamma(n)
    comp = next(c for c in aug_quot(n, r)._components if c.p == p)
    gens = [comp.elems[prod(comp.orders[:j]) - 1] for j in range(len(comp.orders))]
    d, low, high = _full_rank_chain(G.mult, list(comp.elems), gens, comp.ep, r)
    return [x for x in d if x > 1], low, high


def _elementary_divisors(invariants):
    return sorted(p ** nt.valuation(d, p) for d in invariants if d > 1
                  for p in nt.prime_factors(d))


def test_sylow_build_matches_full_rank():
    for n, r in ((35, 2), (105, 3), (195, 3), (209, 2), (210, 4), (330, 4)):
        d, low, high = _full_rank_reference(n, r)
        q = aug_quot(n, r)
        index_low = prod(int(low[c, c]) for c in range(len(low)))    # [I : I^r]
        index_high = prod(int(high[c, c]) for c in range(len(high)))  # [I : I^{r+1}]
        assert _elementary_divisors(d) == sorted(q.invariants), (n, r)
        assert prod(d) == q.order == index_high // index_low, (n, r)
        assert index_low == prod(aug_quot(n, j).order for j in range(1, r)), (n, r)
        assert smith_chain(q.invariants) == [x for x in d if x > 1], (n, r)


def test_lift_then_class_with_three_components():
    rng = random.Random(6)
    for n, r in ((1155, 2), (1155, 3), (483, 2), (483, 3)):
        q = aug_quot(n, r)
        assert len({nt.prime_factors(d)[0] for d in q.invariants}) == 3, (n, r)
        for _ in range(20):
            c = ClassTensor(q, (0,), [[rng.randrange(d) for d in q.invariants]])
            assert q.class_of(q.lift(c)) == c, (n, r)


def test_cross_prime_products_vanish():
    # Gamma_105 = C_2 x C_4 x C_6 has Sylow subgroups G_2 (order 16) and G_3
    n = 105
    G = gamma(n)
    q = aug_quot(n, 2)
    g2 = [g for g in G.elements if g != G.identity and G.power(g, 4) == G.identity]
    g3 = [g for g in G.elements if g != G.identity and G.power(g, 3) == G.identity]
    assert (len(g2), len(g3)) == (15, 2)
    for g in g2:
        for h in g3:
            v = RingElt.gen_minus_one(n, g) * RingElt.gen_minus_one(n, h)
            assert q.class_of(v).is_zero(), (g, h)
    # while products inside one Sylow subgroup need not vanish
    w = RingElt.gen_minus_one(n, g3[0])
    assert not q.class_of(w * w).is_zero()


def test_induced_maps_match_their_definitions():
    # each matrix against the map it induces on group-ring representatives
    rng = random.Random(9)

    def basis(q):
        k = len(q.invariants)
        return [ClassTensor(q, (0,), [[int(i == j) for j in range(k)]]) for i in range(k)]

    def rand(q):
        return ClassTensor(q, (0,), [[rng.randrange(d) for d in q.invariants]])

    # 255 has G_2 = C_2 x C_4 x C_16: its products into the lattice degree 3
    # wrap x^2 = -2 x in the factor C_2
    for n in (35, 105, 195, 209, 210, 255, 330, 483, 1155):
        w = len(nt.prime_factors(n))
        for r in range(1, w + 1):
            q = aug_quot(n, r)
            for d in nt.divisors(n):
                P = q.pi_matrix(d)
                for i, e in enumerate(basis(q)):
                    assert P[i].tolist() == q.class_of(q.lift(e).pi(d)).rows[0].tolist(), \
                        (n, r, d)
            for m in nt.divisors(n):
                low = aug_quot(m, r)
                for e in basis(low):
                    assert embed_class(e, n) == q.class_of(low.lift(e).embed(n)), (m, n, r)
            for s in range(1, w + 1 - r):
                qs, target = aug_quot(n, s), aug_quot(n, r + s)
                for _ in range(3):
                    a, b = rand(q), rand(qs)
                    assert mult_classes(a, b) == target.class_of(q.lift(a) * qs.lift(b)), \
                        (n, r, s)


class _Calls(list):
    def __init__(self):
        super().__init__()
        self.widths = []
        self.others = []


@pytest.fixture
def cold(monkeypatch):
    """Empty gamma and aug_quot caches for one test, and the moduli of the
    hnf_mod calls that groupring makes meanwhile; `widths` holds their
    column counts, `others` the names of its snf_mod and hnf_solve_mod
    calls."""
    monkeypatch.setattr(gr, "gamma", lru_cache(maxsize=None)(gr.UnitGroupMod))
    monkeypatch.setattr(gr, "aug_quot", lru_cache(maxsize=None)(gr.AugQuot))
    moduli = _Calls()
    real = gr.hnf_mod

    def counting(rows, m):
        moduli.append(m)
        moduli.widths.append(rows.shape[1])
        return real(rows, m)

    def named(name):
        f = getattr(gr, name)

        def call(*args):
            moduli.others.append(name)
            return f(*args)
        return call

    monkeypatch.setattr(gr, "hnf_mod", counting)
    for name in ("snf_mod", "hnf_solve_mod"):
        monkeypatch.setattr(gr, name, named(name))
    return moduli


def test_sylow_coordinates_are_mixed_radix():
    # the level-independent lattices and the binomial moments assume that
    # the element at mixed-radix index i is prod s_j^(digit_j(i)); check
    # against multiplication in Gamma_n
    for n in (35, 105, 255, 273, 330, 1155):
        G = gamma(n)
        for p in nt.prime_factors(G.exponent):
            lattices, elems = G.sylow(p)[:2]
            gens = [G.power(g, (l - 1) // p ** nt.valuation(l - 1, p))
                    for l, g in G.gens.items() if nt.valuation(l - 1, p)]
            assert len(gens) == len(lattices.orders), (n, p)
            for g, digits in zip(elems, lattices.digits.T):
                want = G.identity
                for s, a in zip(gens, digits):
                    want = G.mult(want, G.power(s, int(a)))
                assert g == want, (n, p, g)


def test_chain_is_built_once_per_level(cold):
    # Gamma_255 = C_2 x C_4 x C_16 is a 2-group, read by moments up to
    # degree 2: degrees 3 and 4 need I^3/H_3, I^4/H_4 and I^5/H_5, one
    # hnf_mod each (I^r/H_{r+1} is I^r/H_r beside the monomials of degree r)
    for t in (3, 4):
        gr.aug_quot(255, t)
    assert len(cold) == 3


def test_quotient_builds_stay_narrow(cold):
    # Gamma_255 = C_2 x C_4 x C_16 has 127 elements other than 1, but in
    # degree 3 the truncation Z[G_2]/H_4 has N_3 = 15 monomials
    gr.aug_quot(255, 3)
    assert max(cold.widths) == 15, cold.widths


def test_moment_degrees_make_no_normal_form(cold):
    # every component of these is read by moments (r <= 2, or r < p):
    # G_2 = C_2 x C_4 x C_16 in degrees 1 and 2, and G_2 = C_2 x C_4 and
    # G_3 = C_3 x C_3 of Gamma_91 in degree 2
    for n, r in ((255, 1), (255, 2), (91, 2)):
        gr.aug_quot(n, r)
    assert not cold and not cold.others, (list(cold), cold.others)


def test_levels_with_the_same_n_p_share_lattices(cold):
    # 273 = 3 * 7 * 13 and 91 = 7 * 13 have the same Sylow 3-subgroup
    # C_3 x C_3 (n_3 = 91), so the second build makes no 3-power hnf_mod
    # call; degree 3 takes the lattice path at p = 2 and p = 3
    gr.aug_quot(91, 3)
    cold.clear()
    gr.aug_quot(273, 3)
    assert cold and not [m for m in cold if m % 3 == 0], cold
    assert gr.gamma(273).sylow(3)[0] is gr.gamma(91).sylow(3)[0]


def test_degree_order_does_not_matter(cold):
    def data(order):
        gr.gamma.cache_clear()
        gr.aug_quot.cache_clear()
        out = {}
        for t in order:
            q = gr.aug_quot(n, t)
            out[t] = (q.invariants, [(c.CV.tolist(), c.lifts.tolist()) for c in q._components])
        return out

    # the lattice path shares the Hermite bases of I^r/H_r between degrees
    for n in (105, 210, 255, 330):
        assert data((2, 3, 4)) == data((4, 3, 2)), n


def test_cleared_caches_rebuild_the_lattices(cold):
    # degree 3 of the 2-group Gamma_255 takes the lattice path
    gr.aug_quot(255, 3)
    assert len(cold) == 2
    gr.aug_quot(255, 3)
    assert len(cold) == 2
    gr.gamma.cache_clear()
    gr.aug_quot.cache_clear()
    gr.aug_quot(255, 3)
    assert len(cold) == 4


def test_factor_index_matches_generator_images():
    # pi_d and the inclusions of levels send the generator s_l of each
    # cyclic factor of G_p to the generator of the factor that factor_index
    # names, or to 1; s_l sits at the mixed-radix index with one digit 1
    def generators(comp):
        return [comp.elems[prod(comp.orders[:j]) - 1] for j in range(len(comp.orders))]

    def images(comp, tc, d, G):
        gens = generators(tc)
        return [gens[j] if j >= 0 else G.identity for j in comp.factor_index(tc, d)]

    for n in (35, 105, 195, 209, 210, 255, 330, 483, 1155):
        G = gamma(n)
        q = aug_quot(n, 1)
        target = {c.p: c for c in q._components}
        for d in nt.divisors(n):
            for comp in q._components:
                want = images(comp, comp, d, G)
                assert [G.project(s, d) for s in generators(comp)] == want, (n, d, comp.p)
            for comp in aug_quot(d, 1)._components:
                want = images(comp, target[comp.p], d, G)
                assert [G.embed_from(d, s) for s in generators(comp)] == want, (d, n, comp.p)


def test_smith_coords_against_exact_membership():
    rng, prng = random.Random(16), random.Random(18)
    cases = [(n, r) for n in (35, 105, 195, 209, 210, 255, 330, 483, 1155, 1173)
             for r in range(1, min(len(nt.prime_factors(n)), 4) + 1)]
    for n, r in cases:
        q = aug_quot(n, r)
        if n in (35, 105, 195, 209, 210, 255, 330):
            d, _, _ = _full_rank_reference(n, r)
            assert _elementary_divisors(d) == sorted(q.invariants), (n, r)
        outcomes = set()
        for comp in q._components:
            invariants, low, high = _sylow_reference(n, comp.p, r)
            assert list(comp.invariants) == invariants, (n, r, comp.p)
            k = len(comp.elems)
            inv = np.array(comp.invariants)
            low_py, high_py = low.tolist(), high.tolist()

            def rand(B, zero_p=0.3):
                u = np.array([0 if rng.random() < zero_p else rng.randrange(-3, 4)
                              for _ in range(k)], dtype=np.int64)
                return u @ B

            for _ in range(6):
                # x in I^r, and in I^{r+1} (class zero) when its B_r part vanishes
                x = rand(low, zero_p=rng.choice([0.3, 0.97, 1.0])) + rand(high)
                y = rand(low) * rng.choice([1, comp.ep])
                cx, cy, cxy = (comp.smith_coords(v) % inv for v in (x, y, x + y))
                zero = not cx.any()
                assert zero == (hnf_solve(high_py, x, as_python=True) is not None), (n, r)
                outcomes.add(zero)
                assert np.array_equal(cxy, (cx + cy) % inv), (n, r, comp.p)
                v = np.array([rng.randrange(-2, 3) for _ in range(k)], dtype=np.int64)
                inside = hnf_solve(low_py, v, as_python=True) is not None
                assert (comp.smith_coords(v) is not None) == inside, (n, r, comp.p)
                if r >= 2:
                    e0 = np.eye(1, k, dtype=np.int64)[0]  # s_1 - 1 is not in I^2
                    assert comp.smith_coords(e0) is None, (n, r, comp.p)
            for _ in range(6):
                # x = c (g_1 - 1) ... (g_r - 1) + y, y in I^{r+1}, the
                # product taken in the group ring, with g_i in G_p
                v = RingElt.unit(n)
                for _ in range(r):
                    v = v * RingElt.gen_minus_one(n, comp.elems[prng.randrange(k)])
                x = np.array([v.coeffs.get(g, 0) for g in comp.elems], dtype=np.int64)
                x = prng.choice([1, 2, comp.p, comp.ep]) * x + rand(high)
                zero = not (comp.smith_coords(x) % inv).any()
                assert zero == (hnf_solve(high_py, x, as_python=True) is not None), (n, r)
                outcomes.add(zero)
        assert outcomes == {True, False}, (n, r)


def test_moment_path_against_the_full_rank_chain():
    # every Sylow component (G_p, r) read by moments (r <= 2, or r < p) at
    # the tier-1 levels, while e_p^r fits the int64 path; 255 has
    # G_2 = C_2 x C_4 x C_16, so its squares x_i^2 carry the correction.
    # The moment map is onto the invariants and kills I^{r+1}, and
    # I^r/I^{r+1} has the same order, so it is the isomorphism
    rng = random.Random(29)
    seen, zeros, insides = set(), set(), set()
    for n in (35, 105, 195, 209, 210, 255, 330, 483, 1155, 1173):
        G = gamma(n)
        for p in nt.prime_factors(G.exponent):
            elems, orders = G.sylow(p)[1], G.sylow(p)[0].orders
            gens = [elems[prod(orders[:j]) - 1] for j in range(len(orders))]
            r = 1
            while (r <= 2 or r < p) and max(orders) ** r < 1 << 31:
                comp = gr._Sylow(G, p, r)
                assert comp.reps is None and comp.reader is None, (n, p, r)
                d, low, high = _full_rank_chain(G.mult, list(elems), gens, comp.ep, r)
                assert list(comp.invariants) == [x for x in d if x > 1], (n, p, r)
                inv, k = np.array(comp.invariants), len(elems)
                # onto: the images of a basis of I^r generate the invariants
                Y = comp.smith_coords(low) % inv
                cokernel, _, _ = snf_mod(np.vstack([Y, np.diag(inv)]), comp.ep)
                assert set(cokernel) == {1}, (n, p, r)
                # I^{r+1} goes to 0
                assert not (comp.smith_coords(high) % inv).any(), (n, p, r)
                low_py, high_py = low.tolist(), high.tolist()
                for _ in range(8):
                    u = np.array([rng.randrange(-2, 3) if rng.random() < 0.3 else 0
                                  for _ in range(k)], dtype=np.int64)
                    x = u @ (low if rng.random() < 0.7 else high)
                    zero = not (comp.smith_coords(x) % inv).any()
                    assert zero == (hnf_solve(high_py, x, as_python=True) is not None), (n, p, r)
                    zeros.add(zero)
                    v = x + rng.choice([1, p, comp.ep]) * np.eye(1, k, rng.randrange(k),
                                                                 dtype=np.int64)[0]
                    inside = hnf_solve(low_py, v, as_python=True) is not None
                    assert (comp.smith_coords(v) is not None) == inside, (n, p, r)
                    insides.add(inside)
                seen.add((orders, r))
                r += 1
    assert ((2, 4, 16), 2) in seen and ((11,), 8) in seen and ((5,), 4) in seen
    assert zeros == insides == {True, False}


def test_cyclic_bases_are_hermite_forms():
    # the basis of I(C_o)^a over the monomials x, ..., x^(o-1), against the
    # full-rank chain of C_o = Z/o taken to monomials (s^i - 1 =
    # sum_b C(i, b) x^b) and put in Hermite form; cut at R, the rows and
    # columns up to R
    for o in (2, 3, 4, 5, 8, 9, 16, 25):
        lattices = gr._Lattices((o,))
        mom = np.array([[comb(i, b) for b in range(1, o)] for i in range(1, o)])
        for a in range(1, 9 if o <= 5 else 6):  # o = 4 needs a >= 6 to see the sign of x^o
            _, low, _ = _full_rank_chain(lambda x, y: (x + y) % o, list(range(1, o)), [1], o, a)
            want = hnf_mod(low @ mom, o ** (a - 1)).tolist()
            assert lattices.cyclic(o, a, o - 1) == want, (o, a)
            for R in range(max(a - 1, 1), o - 1):
                assert lattices.cyclic(o, a, R) == [row[:R] for row in want[:R]], (o, a, R)


def test_class_of_sum_modulus_must_fix_the_class():
    # Gamma_105 = C_2 x C_4 x C_6: e_2 = 4 and e_3 = 3, so in degree 2 a
    # vector known mod m has a class when 16 * 9 divides m; when only one
    # of 2 and 3 divides m, the class in Z/m (x) I^2/I^3 is that component
    q = aug_quot(105, 2)
    G = q.gamma
    s7 = RingElt.gen_minus_one(105, G.gens[7])
    v = (RingElt.gen_minus_one(105, G.gens[5]) + s7) * s7  # both components nonzero
    exact = q.class_of(v)
    for m in (144, 144 * 5, 144 * 16 * 27, 80, 9 * 7):
        want = gr.ClassTensor(q, (m,), exact.rows)
        coeffs = [[c % m for c in v.coeffs.values()]]
        assert q.class_of_sum(list(v.coeffs), coeffs, (m,)) == want, m
        assert (want.parts[0] == exact) == (m % 144 == 0)
    for m in (12, 48, 72, 3 * 5):
        with pytest.raises(gr.PrecisionError):
            q.class_of_sum(list(v.coeffs), [list(v.coeffs.values())], (m,))

    def by_loop(q, coeffs, m=None):
        # the class by one loop over the coefficients per component
        y = []
        for comp in q._components:
            x = np.zeros(len(comp.elems), dtype=np.int64)
            for g, c in coeffs.items():
                if comp.proj[g] >= 0:
                    x[comp.proj[g]] += c
            y += ([0] * len(comp.invariants) if m and m % comp.p
                  else comp.smith_coords(x, m).tolist())
        return gr.ClassTensor(q, (m or 0,), [y])

    # a dense theta vector known mod M at r = 0..3, and a sparse element
    rng = random.Random(11)
    for d, n in ((5, 1), (5, 11), (5, 209), (73, 114)):
        F = make_field(d)
        q = aug_quot(n, F.r_of(n))
        h = make_reduction_hom(F, n, find_aux_primes(F, n, 1)[0])
        vals = dict(zip(q.gamma.elements, theta_values(cyclo.theta_prime(F, n), h)[0].tolist()))
        M = h.modulus
        want = by_loop(q, vals, M) if q.degree else gr.ClassTensor(q, (M,), [[sum(vals.values())]])
        assert theta_class(cyclo.theta_prime(F, n), h) == want, (d, n)
        v = RingElt.unit(n) * rng.randrange(1, 9)
        for _ in range(q.degree):
            v = v * RingElt.gen_minus_one(n, rng.choice(q.gamma.elements))
        want = by_loop(q, v.coeffs) if q.degree else gr.ClassTensor(q, (0,), [[v.aug()]])
        assert q.class_of(v) == want, (d, n)


def test_matmul_bound_edge_gives_the_same_classes(cold, monkeypatch):
    # 255, r = 3 (e_2 = 16) built and read once with int64 products and once
    # with every product in Python integers
    def data():
        gr.gamma.cache_clear()
        gr.aug_quot.cache_clear()
        q = gr.aug_quot(255, 3)
        rng = random.Random(3)
        G = q.gamma
        classes = []
        for _ in range(20):
            v = RingElt.unit(255)
            for _ in range(3):
                v = v * RingElt.gen_minus_one(255, rng.choice(G.elements[1:]))
            classes.append(q.class_of(v).rows.tolist())
        comp = q._components[0]
        return (q.invariants, comp.CV.tolist(), comp.lifts.tolist(), classes,
                q.pi_matrix(15).tolist(), q.pi_matrix(17).tolist())

    fast = data()
    monkeypatch.setattr(intmat, "INT64_PRODUCT_BOUND", 0)
    assert data() == fast
