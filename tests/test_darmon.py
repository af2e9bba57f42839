"""Both sides of the congruence, reductions, and the axiom verifiers."""

import random
from math import gcd, isqrt, lcm

import pytest

from darmoncheck import cyclo, groupring as gr, nt
from darmoncheck import quadfield as qf
from darmoncheck.darmon import (ConcreteModel, TensorElt, beta_class_at, beta_value,
                                bordered_regulator, del_lift,
                                find_aux_primes, make_reduction_hom,
                                prop94_residual, regulator,
                                regulator_from_basis, tensor_reduce,
                                theta_class, theta_values, verify_base_case,
                                verify_darmon, verify_preks_axiom,
                                _ThetaLevels, _required_congruence)
from darmoncheck.groupring import ClassTensor, RingElt, aug_quot, gamma
from darmoncheck.kolysys import (LocalModel, check_ks, check_preks, inverse_transform,
                                 preks_holds, transform)
from darmoncheck.quadfield import QuadNum, h_n, make_field, unit_basis

F5 = make_field(5)


def test_base_cases_exact():
    for d in (2, 5, 10):
        ok, sign = verify_base_case(make_field(d))
        assert ok, d


def test_reduction_hom_multiplicative():
    q = find_aux_primes(F5, 11, 1)[0]
    h = make_reduction_hom(F5, 11, q)
    rng = random.Random(0)
    vals = []
    for _ in range(100):
        x = QuadNum(5, rng.randrange(-9, 10), rng.randrange(-9, 10))
        y = QuadNum(5, rng.randrange(-9, 10), rng.randrange(-9, 10))
        if x.is_zero() or y.is_zero():
            continue
        try:
            hx, hy, hxy = h.values([x, y, x * y])
            assert (hx + hy) % h.modulus == hxy
        except nt.BadAuxiliaryPrime:
            continue


def test_reduction_hom_zeta_order():
    q = find_aux_primes(F5, 11, 1)[0]
    h = make_reduction_hom(F5, 11, q)
    assert nt.multiplicative_order(h.zeta, q) == 55


@pytest.mark.parametrize("q", [56, 111, 45])
def test_reduction_hom_rejects_a_composite_or_unfit_q(q):
    # 56 and 111 are 1 mod nf = 55 but composite; 45 is not 1 mod 55.  Each
    # is the caller's fault, not a BadAuxiliaryPrime that a check would skip
    with pytest.raises(ValueError) as err:
        make_reduction_hom(F5, 11, q)
    assert not isinstance(err.value, nt.BadAuxiliaryPrime)


def _residual_zero_under_two_generators(h1):
    # the residual's verdict under h1 and under the hom into the same Z/M
    # built from the next primitive root mod q
    q = h1.q
    g2 = next(g for g in range(h1.g + 1, q)
              if nt.multiplicative_order(g, q) == q - 1)
    from darmoncheck.darmon import ReductionHom
    zeta2 = pow(g2, (q - 1) // 55, q)
    sd = 0
    zf = pow(zeta2, 11, q)
    for a in range(1, 6):
        if gcd(a, 5) == 1:
            sd += F5.omega(a) * pow(zf, a, q)
    h2 = ReductionHom(F5, 11, q, g2, zeta2, sd % q, h1.modulus)
    th = cyclo.theta_prime(F5, 11)
    t1 = theta_class(th, h1)
    t2 = theta_class(th, h2)
    r1 = tensor_reduce(regulator(F5, 11), h1)
    r2 = tensor_reduce(regulator(F5, 11), h2)
    return (t1 + r1).is_zero(), (t2 + r2).is_zero()


def test_two_generators_same_verdicts(full_homs):
    # homs into all of Z/(q - 1), 2-component included, built from different
    # primitive roots agree on verdicts
    (h1,) = full_homs(F5, 11, 1)
    assert h1.modulus == h1.q - 1
    z1, z2 = _residual_zero_under_two_generators(h1)
    assert z1 == z2


def test_two_generators_same_verdicts_odd():
    # the same on the odd modulus of make_reduction_hom
    h1 = make_reduction_hom(F5, 11, find_aux_primes(F5, 11, 1)[0])
    z1, z2 = _residual_zero_under_two_generators(h1)
    assert z1 == z2


def test_regulator_shapes():
    r1 = regulator(F5, 1)
    assert r1.degree == 0 and sum(not c.is_zero() for c in r1.parts) == 1
    r11 = regulator(F5, 11)
    assert r11.degree == 1 and sum(not c.is_zero() for c in r11.parts) == 2


def test_regulator_2x2_expansion():
    # r = 1: R = e0 (x) del(e1) - e1 (x) del(e0)
    ul = unit_basis(F5, 11)
    quot = aug_quot(11, 1)
    manual = TensorElt(quot, ul.basis, [
        quot.class_of(del_lift(F5, ul.basis[1], ul.places[0], 11)).rows[0],
        (-1 * quot.class_of(del_lift(F5, ul.basis[0], ul.places[0], 11))).rows[0]])
    assert manual == regulator(F5, 11)


def test_regulator_basis_independence(sign_at):
    # permuting the basis and reorienting yields the identical element
    ul = unit_basis(F5, 209)
    perm = [ul.basis[0], ul.basis[2], ul.basis[1]]
    places = [ul.places[1], ul.places[0]]
    sign = sign_at(F5, perm, places)
    assert sign != 0
    if sign < 0:
        perm[0] = QuadNum(5, 1) / perm[0]
    base = regulator(F5, 209)
    other = regulator_from_basis(F5, perm, places, 209)
    assert base == other.rebase(ul)
    # inverting one element (and compensating) also matches
    flipped = [ul.basis[0], QuadNum(5, 1) / ul.basis[1], ul.basis[2]]
    s2 = sign_at(F5, flipped, ul.places)
    assert s2 < 0
    flipped[2] = QuadNum(5, 1) / flipped[2]
    assert sign_at(F5, flipped, ul.places) > 0
    assert regulator_from_basis(F5, flipped, ul.places, 209).rebase(ul) == base


def test_bordered_equals_regulator():
    assert bordered_regulator(F5, 11, 11) == regulator(F5, 11)
    b = bordered_regulator(F5, 11, 209)
    assert b.degree == 1 and b.level == 209
    with pytest.raises(ValueError):
        bordered_regulator(F5, 209, 11)


def test_finlem_no_transverse_part():
    # away from the level, every regulator payload is a unit
    ul = unit_basis(F5, 11)
    for ell in (19, 29, 31):
        if F5.omega(ell) != 1:
            continue
        pl = F5.place_above(ell)
        for e in ul.basis:
            assert qf.local_parts(e, pl)[0] == 0 and qf.local_parts(e, pl.conj())[0] == 0


def test_reduction_hom_zero_residue():
    q = find_aux_primes(F5, 11, 1)[0]
    h = make_reduction_hom(F5, 11, q)
    with pytest.raises(nt.BadAuxiliaryPrime):
        h.dlogs([1, 2, q])
    with pytest.raises(nt.BadAuxiliaryPrime):
        h.dlog(0)
    assert h.dlogs([1, h.g, q + 1]).tolist() == [0, 1, 0]


@pytest.mark.parametrize("d, n", [(5, 11), (13, 21), (10, 39), (7, 87)])
def test_theta_values_match_scalar_reference(d, n):
    # h(gamma(alpha_n)) one gamma at a time, from the definition of alpha_n
    # and scalar discrete logs
    F = make_field(d)
    mf = n * F.conductor
    units = [a for a in range(mf) if gcd(a, mf) == 1 and a % n == 1]
    q = find_aux_primes(F, n, 1)[0]
    h = make_reduction_hom(F, n, q)
    th = cyclo.theta_prime(F, n)
    expect = {}
    for g in gamma(n).elements:
        c = th.twist_residue(g)
        tot = 0
        for a in units:
            x = int(nt.discrete_logs([[pow(h.zeta, a * c, q) - 1]], [h.g], [q], [q - 1])[0, 0])
            tot += F.omega(a) * x
        expect[g] = tot % h.modulus
    assert _theta_values_by_element(th, h) == expect


def _theta_values_by_element(th, h):
    # the one row of theta_values at a single hom, keyed by element
    return dict(zip(gamma(th.level).elements, theta_values(th, h)[0].tolist()))


def _subgroup_log_theta_values(th, h):
    # h(gamma(alpha_n)) one residue at a time: the scalar log of
    # (zeta^(a c) - 1)^((q-1)/M) to the base g^((q-1)/M), in Z/M
    F, n, q, M = th.F, th.level, h.q, h.modulus
    k = (q - 1) // M
    plus, minus = cyclo.alpha_exponents(F, n)
    out = {}
    for g in gamma(n).elements:
        c = th.twist_residue(g)
        tot = 0
        for sign, exps in ((1, plus), (-1, minus)):
            for a in exps:
                x = pow(pow(h.zeta, a * c, q) - 1, k, q)
                tot += sign * int(nt.discrete_logs([[x]], [pow(h.g, k, q)], [q], [M])[0, 0])
        out[g] = tot % M
    return out


def _prime_above_int64_guard(F, n):
    # the least auxiliary prime for (F, n) with q * q >= 2**63
    L = _required_congruence(F, n)
    q = (isqrt(1 << 63) // L + 1) * L + 1
    while not nt.is_prime(q):
        q += L
    return q


@pytest.mark.parametrize("d, n, big", [(5, 1, False), (5, 11, False), (5, 209, False),
                                       (73, 114, False), (5, 11, True), (5, 209, True)])
def test_theta_values_array_path_matches_scalar_logs(d, n, big):
    # r = 0, 1, 2 and 3; above the int64 guard the array path runs on
    # Python integers
    F = make_field(d)
    q = _prime_above_int64_guard(F, n) if big else find_aux_primes(F, n, 1)[0]
    assert (q * q >= 1 << 63) == big
    h = make_reduction_hom(F, n, q)
    th = cyclo.theta_prime(F, n)
    assert th.r == {1: 0, 11: 1, 209: 2, 114: 3}[n]
    assert _theta_values_by_element(th, h) == _subgroup_log_theta_values(th, h)


@pytest.mark.parametrize("d, n", [(5, 1), (5, 11), (13, 21), (5, 209)])
def test_theta_values_at_even_modulus(d, n, full_homs):
    # into all of Z/(q - 1) the log of -1 is (q - 1)/2, not 0, so the values
    # read off zeta^-j - 1 = -zeta^-j (zeta^j - 1) depend on it
    F = make_field(d)
    th = cyclo.theta_prime(F, n)
    for h in full_homs(F, n, 2):
        assert h.modulus % 2 == 0
        assert _theta_values_by_element(th, h) == _subgroup_log_theta_values(th, h)


def test_one_exponent_table_per_check(monkeypatch):
    # the twists' exponent table is built once per theta element, not once
    # per auxiliary prime
    calls = []
    counted = cyclo.alpha_exponents

    def counting(F, n):
        calls.append(n)
        return counted(F, n)

    monkeypatch.setattr(cyclo, "alpha_exponents", counting)
    cyclo._alpha_cached.cache_clear()
    verify_darmon(F5, 209, num_primes=5)
    assert calls == [209]
    calls.clear()
    cyclo._alpha_cached.cache_clear()
    # alpha_33 and alpha_3 in the exact norm relation, then one table for
    # each of the two levels, whatever the number of primes
    assert verify_preks_axiom(F5, "theta", "ii", 33, 11)["verdict"] == "pass"
    assert sorted(calls) == [3, 3, 33, 33]


def test_theta_class_closed_form_rank_one(full_homs):
    # at a split prime level: sum_a sigma^a(alpha) (x) (sigma^a - 1), in
    # every Sylow component
    (h,) = full_homs(F5, 11, 1)
    th = theta_class(cyclo.theta_prime(F5, 11), h).parts[0]
    G = gamma(11)
    quot = aug_quot(11, 1)
    thp = cyclo.theta_prime(F5, 11)
    acc = quot.zero()
    g = G.identity
    sigma = G.gens[11]
    for a in range(1, 10):
        g = G.mult(g, sigma)
        val = h.alpha_value(11, thp.twist_residue(g))
        acc = acc + val * quot.class_of(RingElt.gen_minus_one(11, g))
    assert acc == th
    # at level 2 in a field where 2 splits, Gamma_2 and hence I_2 are trivial
    F17 = make_field(17)
    (h2,) = full_homs(F17, 2, 1)
    assert theta_class(cyclo.theta_prime(F17, 2), h2).parts == [aug_quot(2, 1).zero()]


def test_theta_class_inert_closed_form(full_homs):
    # theta~'_33 = 2 sum_a sigma^a(alpha_11) (x) (sigma^a-1) - alpha_1^2 (x) (Fr_3 - 1)
    (h,) = full_homs(F5, 33, 1)
    th = theta_class(cyclo.theta_prime(F5, 33), h).parts[0]
    G = gamma(33)
    quot = aug_quot(33, 1)
    thp = cyclo.theta_prime(F5, 11)
    acc = quot.zero()
    sigma11 = gamma(11).gens[11]
    g = 1
    for a in range(1, 10):
        g = g * sigma11 % 11
        val = h.alpha_value(11, thp.twist_residue(g))  # the level-33 hom at level 11
        acc = acc + (2 * val) * quot.class_of(
            RingElt.gen_minus_one(33, G.embed_from(11, g)))
    a1val = h.alpha_value(1, 1)
    fr3 = gr._frob_lift(33, 3, 11)
    acc = acc - (2 * a1val) * quot.class_of(fr3)
    assert acc == th


def test_verify_darmon_pass():
    assert verify_darmon(F5, 1, num_primes=3).verdict == "pass"
    rep = verify_darmon(F5, 11, num_primes=5)
    assert rep.verdict == "pass" and len([p for p in rep.primes
                                          if p.verdict == "pass"]) >= 5
    assert verify_darmon(F5, 33, num_primes=3).verdict == "pass"
    # even levels in fields where 2 splits (d = 1 mod 8)
    for d, n in ((17, 26), (33, 14)):
        assert verify_darmon(make_field(d), n).verdict == "pass", (d, n)


def test_verify_darmon_wrong_sign_canary():
    rep = verify_darmon(F5, 11, num_primes=5, wrong_sign=True)
    assert rep.verdict == "fail"


def test_degree_zero_skips_primes_that_check_nothing():
    # in degree 0 the theta side lands in the odd part of Z/(q - 1), so a
    # Fermat prime q checks nothing; at (2, 1), nf = 8, that is q = 17
    F = make_field(2)
    right = verify_darmon(F, 1)
    assert [p.q for p in right.primes] == [41, 73, 89, 97, 113]
    assert [p.verdict for p in right.primes] == ["pass"] * 5
    wrong = verify_darmon(F, 1, wrong_sign=True)
    assert [p.verdict for p in wrong.primes] == ["fail"] * 5


def test_verify_report_schema():
    rep = verify_darmon(F5, 11, num_primes=2)
    d = rep.as_dict()
    assert set(d) >= {"field", "level", "r", "s", "h_n", "primes", "verdict"}
    assert all(set(p) == {"q", "residual", "verdict", "reason"} for p in d["primes"])
    assert all(p["reason"] is None for p in d["primes"] if p["verdict"] != "bad-prime")


def test_verify_darmon_needs_an_auxiliary_prime():
    # no auxiliary prime is no evidence: an error, not a "fail" verdict
    for k in (0, -1):
        with pytest.raises(ValueError):
            verify_darmon(F5, 11, num_primes=k)


def test_bad_prime_keeps_its_reason(monkeypatch):
    from darmoncheck import darmon

    def rejecting(F, n, q):
        raise nt.BadAuxiliaryPrime(f"Gauss sum check failed at q={q}")

    monkeypatch.setattr(darmon, "make_reduction_hom", rejecting)
    rep = verify_darmon(F5, 11, num_primes=2)
    assert [p.verdict for p in rep.primes] == ["bad-prime", "bad-prime"]
    assert rep.verdict == "inconclusive"
    assert [p["reason"] for p in rep.as_dict()["primes"]] == [
        f"Gauss sum check failed at q={p.q}" for p in rep.primes]


@pytest.mark.parametrize("wrong_sign", [False, True])
def test_bad_primes_stay_independent_per_row(monkeypatch, wrong_sign):
    # all primes of a check share one batch; a prime it rejects leaves with
    # its reason (Gauss sum, then a zero theta residue, then a non-unit
    # regulator value), and every other prime keeps its verdict and residual
    from dataclasses import replace
    from darmoncheck import darmon
    real = darmon.make_reduction_hom
    qs = find_aux_primes(F5, 11, 4)
    full = verify_darmon(F5, 11, num_primes=4, wrong_sign=wrong_sign).primes
    assert wrong_sign == any(any(p.residual) for p in full)
    u = regulator(F5, 11).units[0]

    def degenerate(h):
        # sqrt(5) sent to the root of the numerator of u = a + b sqrt(5)
        a, b = u.a.numerator * u.b.denominator, u.b.numerator * u.a.denominator
        return replace(h, sqrt_disc=-a * pow(b, -1, h.q) % h.q)

    def tweaked(bad):
        def make(F, n, q):
            if q == qs[1]:
                raise nt.BadAuxiliaryPrime(f"Gauss sum check failed at q={q}")
            return bad.get(q, lambda h: h)(real(F, n, q))
        return make

    monkeypatch.setattr(darmon, "make_reduction_hom", tweaked({}))
    rep = verify_darmon(F5, 11, num_primes=3, wrong_sign=wrong_sign)
    assert [p.q for p in rep.primes] == qs[:3]
    assert rep.primes[1].reason == f"Gauss sum check failed at q={qs[1]}"
    assert [rep.primes[0], rep.primes[2]] == [full[0], full[2]]
    monkeypatch.setattr(darmon, "make_reduction_hom", tweaked(
        {qs[2]: lambda h: degenerate(replace(h, zeta=1)), qs[3]: degenerate}))
    rep = verify_darmon(F5, 11, num_primes=4, wrong_sign=wrong_sign)
    assert [p.reason for p in rep.primes] == [
        None, f"Gauss sum check failed at q={qs[1]}", f"zero value mod {qs[2]}",
        f"degenerate value at q={qs[3]}"]
    assert rep.primes[0] == full[0]
    assert rep.verdict == ("fail" if any(full[0].residual) else "pass")


def test_prop94_levels(full_homs):
    # in every Sylow component, 2 included
    for n in (11, 33):
        for h in full_homs(F5, n, 3):
            assert prop94_residual(F5, n, h).is_zero()


def test_beta_depends_only_on_plus_part():
    # beta_{33+} = beta_11
    q = find_aux_primes(F5, 33, 1)[0]
    h = make_reduction_hom(F5, 33, q)
    th33, th11 = (cyclo.theta_prime(F5, F5.n_plus(n)) for n in (33, 11))
    cls33, cls11 = beta_class_at(F5, 33), beta_class_at(F5, 11)
    assert beta_value(th33, h) == beta_value(th11, h)
    assert cls33.quot.level == 33 and cls11.quot.level == 11


def test_regreg1lem_exact():
    ok, method = verify_preks_axiom(F5, "regulator", "ii", 11, 11)["verdict"], None
    res = verify_preks_axiom(F5, "regulator", "ii", 11, 11)
    assert res["verdict"] == "pass" and res["method"] == "exact"


def test_axioms_battery():
    cases = [
        ("regulator", "ii", 11, 11), ("regulator", "iii", 11, 11),
        ("regulator", "iv", 11, 11), ("regulator", "v", 11, 3),
        ("regulator", "iii", 33, 11), ("regulator", "iv", 33, 11),
        ("theta", "ii", 11, 11), ("theta", "v", 33, 3),
        ("theta", "i", 11, 7), ("regulator", "i", 11, 19),
    ]
    for system, axiom, n, ell in cases:
        res = verify_preks_axiom(F5, system, axiom, n, ell)
        assert res["verdict"] == "pass", (system, axiom, n, ell, res)


def test_preks_axiom_honours_num_primes(monkeypatch):
    from darmoncheck import darmon
    built = []
    real = darmon.make_reduction_hom

    def counting(F, n, q):
        built.append(q)
        return real(F, n, q)

    monkeypatch.setattr(darmon, "make_reduction_hom", counting)
    res = verify_preks_axiom(make_field(5), "theta", "ii", 11, 11, num_primes=1)
    assert res["verdict"] == "pass"
    assert len(built) == 1


def test_theta_local_axioms_unsupported():
    for axiom in ("iii", "iv"):
        res = verify_preks_axiom(F5, "theta", axiom, 11, 11)
        assert res["verdict"] == "unsupported"


def test_indstep_ii_identity():
    # h_n proj_{nl}(R_{n,nl} v) = proj_n(R_n) pi_l(v)
    #   - sum_q h_{n/q} proj_n(R_{n/q,n} v) pi_l(Fr_q - 1)
    n, ell = 11, 19
    nl = n * ell
    v = RingElt.gen_minus_one(n, gamma(n).gens[11])  # an element of I_n
    v_cls_l = aug_quot(nl, 1).class_of(v.embed(nl))
    plus_nl = tuple(F5.split_primes(nl))
    plus_n = tuple(F5.split_primes(n))
    hn = h_n(F5, n)
    lhs = hn * bordered_regulator(F5, n, nl).mult_class(v_cls_l).proj_new(plus_nl)
    pi_l_v = aug_quot(nl, 1).class_of(v.embed(nl).pi(ell))
    term1 = regulator(F5, n).proj_new(plus_n).embed(nl).mult_class(pi_l_v)
    total = term1
    for q2 in F5.split_primes(n):
        m = n // q2
        hq = h_n(F5, m)
        fr_cls = aug_quot(nl, 1).class_of(gr._frob_lift(nl, ell, q2))
        v_cls_n = aug_quot(n, 1).class_of(v)
        inner = bordered_regulator(F5, m, n).mult_class(v_cls_n).proj_new(plus_n)
        inner = inner.rebase(unit_basis(F5, n))
        total = total - hq * inner.embed(nl).mult_class(fr_cls)
    assert lhs == total


def _odd(m):
    return m >> nt.valuation(m, 2)


@pytest.mark.parametrize("d, n", [(5, 1), (5, 3), (5, 11), (10, 39), (5, 181),
                                  (7, 87), (29, 35), (13, 138)])
def test_reduction_hom_modulus(d, n):
    # M | q - 1 is odd, every odd elementary divisor of the quotient divides
    # M, and the free degree-0 quotient keeps the odd part of Z/(q - 1); in
    # degree r >= 1 M is the odd part of the precision of the quotient, and
    # L = lcm(nf, M)
    F = make_field(d)
    r = F.r_of(n)
    quot = aug_quot(n, r)
    odd = _odd(quot.precision)
    assert _required_congruence(F, n) == lcm(n * F.conductor, odd)
    for q in find_aux_primes(F, n, 2):
        M = make_reduction_hom(F, n, q).modulus
        assert (q - 1) % M == 0 and M % 2 == 1
        assert M % _odd(lcm(1, *[d for d in quot.invariants if d > 1])) == 0
        if r == 0:
            assert M == _odd(q - 1)
        else:
            assert M == odd
            assert all(gamma(n).exponent % p == 0 for p in nt.prime_factors(M))


@pytest.mark.parametrize("d, n", [(10, 39), (7, 87), (29, 35), (13, 138), (29, 70)])
def test_precision_is_the_least_modulus(d, n, monkeypatch):
    # the odd part M of the precision, divided by an odd p, is still a
    # multiple of the odd part of the class exponent, but the theta vector
    # known mod M / p cannot fix its class: the hom is refused before any
    # theta value is computed
    from darmoncheck import darmon
    from darmoncheck.darmon import ReductionHom, _check_hom_compat
    F = make_field(d)
    quot = aug_quot(n, F.r_of(n))
    assert quot.degree == 2
    h = make_reduction_hom(F, n, find_aux_primes(F, n, 1)[0])
    _check_hom_compat(quot, h)

    def unreachable(*args):
        raise AssertionError("theta_values ran on a hom that cannot fix the class")

    monkeypatch.setattr(darmon, "theta_values", unreachable)
    assert h.modulus == _odd(quot.precision) > 1
    for p in nt.prime_factors(h.modulus):
        weak = ReductionHom(F, n, h.q, h.g, h.zeta, h.sqrt_disc, h.modulus // p)
        assert weak.modulus % _odd(lcm(1, *[d for d in quot.invariants if d > 1])) == 0
        with pytest.raises(gr.PrecisionError):
            _check_hom_compat(quot, weak)
        with pytest.raises(gr.PrecisionError):
            theta_class(cyclo.theta_prime(F, n), weak)


@pytest.mark.parametrize("d, n", [(5, 11), (5, 33), (10, 39), (7, 87), (29, 35)])
def test_restricted_hom_matches_full(d, n, full_homs):
    # the hom into Z/M and the one into all of Z/(q - 1), from the same q and
    # g, give the same classes on both sides of the congruence once the one
    # in Z/(q - 1) (x) I^r/I^{r+1} is reduced to Z/M; and the derivative
    # identity holds in every Sylow component
    F = make_field(d)
    r = F.r_of(n)
    assert r in (1, 2)
    reg = h_n(F, n) * 2 ** F.s_of(n) * regulator(F, n)
    n_plus = F.n_plus(n)
    th, th_plus = cyclo.theta_prime(F, n), cyclo.theta_prime(F, n_plus)
    for full in full_homs(F, n, 2):
        h = make_reduction_hom(F, n, full.q)
        M = h.modulus
        assert M < full.modulus == full.q - 1

        def restricted(x):
            return gr.ClassTensor(x.quot, (M,), x.rows)

        assert theta_class(th, h) == restricted(theta_class(th, full))
        assert tensor_reduce(reg, h) == restricted(tensor_reduce(reg, full))
        (beta_m,) = beta_value(th_plus, h)
        (beta_full,) = beta_value(th_plus, full)
        assert beta_m == beta_full % M
        assert prop94_residual(F, n, h) == restricted(prop94_residual(F, n, full))
        assert prop94_residual(F, n, full).is_zero()


def test_required_congruence_monotone():
    assert _required_congruence(F5, 1) == 5
    assert _required_congruence(F5, 11) % 55 == 0
    assert _required_congruence(F5, 209) % 1045 == 0


def test_tensor_elt_normalisation():
    quot = aug_quot(11, 1)
    ul = unit_basis(F5, 11)
    x, y = ul.basis
    c = ClassTensor(quot, (0,), [[1 if d > 1 else 0 for d in quot.invariants]])
    zero = quot.zero().rows[0]
    t1 = TensorElt(quot, ul.basis, [c.rows[0], zero])
    t2 = TensorElt(quot, [QuadNum(5, 1) / x, y], [(-1 * c).rows[0], zero])
    assert t1 == t2.rebase(ul)  # x^{-1} (x) -v is rewritten as x (x) v
    t3 = TensorElt(quot, [x, x], [c.rows[0], (-1 * c).rows[0]])
    assert t3.rebase(ul).is_zero()


def test_tensor_elts_over_different_bases_do_not_mix():
    # at h = 2 the basis of level 13 is not a prefix of the basis of 39:
    # elements over the two are not compared or added until one is rebased
    F = make_field(10)
    low = regulator(F, 13)
    top = unit_basis(F, 39)
    high = low.rebase(top)
    assert high.basis == tuple(top.basis) != low.basis
    for mix in (lambda: low == high, lambda: low + high, lambda: high - low):
        with pytest.raises(ValueError):
            mix()
    assert high == (2 * low - low).rebase(top) and not high.is_zero()


def test_vacuous_detection():
    # a level whose quotient has no odd part: in degree r >= 1 the target
    # Z/M of the theta side is Z/1
    from darmoncheck.darmon import _theta_modulus
    assert _theta_modulus(aug_quot(3, 1)) == 1  # Z/2
    assert _theta_modulus(aug_quot(11, 1)) == 5
    assert _theta_modulus(aug_quot(3, 0)) == 1
    assert _theta_modulus(aug_quot(3, 0), 13) == 3
    # even levels where 2 splits and the odd part of the quotient is trivial
    for d, n in ((17, 2), (41, 6), (41, 10)):
        assert verify_darmon(make_field(d), n).verdict == "vacuous", (d, n)


def _concrete(d, universe):
    """The model of h_m R_m over a prime universe, and the collection, each
    level over the unit basis of the universe's top level."""
    F = make_field(d)
    model = ConcreteModel(F, tuple(p for p in universe if F.omega(p) == 1),
                          tuple(p for p in universe if F.omega(p) == -1))
    top = unit_basis(F, max(model.levels()))
    return model, {m: (h_n(F, m) * regulator(F, m)).rebase(top) for m in model.levels()}


@pytest.mark.parametrize("d, universe", [
    (5, (11, 19, 3)), (13, (3, 17, 23, 2)), (17, (2, 13, 3)),
    (10, (3, 13, 7)), (34, (3, 5)), (26, (5, 11))])
def test_regulator_transform_is_a_kolyvagin_system(d, universe):
    # h_n R_n is a pre-Kolyvagin system, and its transform by the Frobenius
    # determinants D_{n,d} is a Kolyvagin system that transforms back
    model, pre = _concrete(d, universe)
    assert check_preks(pre, model)["ok"]
    assert check_preks(pre, model, use_primed_iv=True)["ok"]
    kappa = transform(pre, model)
    assert check_ks(kappa, model)["ok"]
    back = inverse_transform(kappa, model)
    assert all(back[n] == pre[n] for n in pre)


def test_regulator_preks_canary():
    # negating h_11 R_11 breaks every axiom that compares level 11 with
    # another level
    model, pre = _concrete(5, (11, 19, 3))
    pre[11] = -pre[11]
    for primed in (False, True):
        rep = check_preks(pre, model, use_primed_iv=primed)
        assert rep["failures"] == [("iii", 11, 11), ("v", 33, 3), ("ii", 209, 19)]


@pytest.mark.parametrize("d, n, ell", [
    (10, 39, 3), (10, 201, 3), (34, 15, 3), (26, 55, 5), (15, 119, 7),
    (30, 91, 7), (39, 35, 5), (42, 143, 11)])
def test_regulator_axiom_ii_at_class_number_two(d, n, ell):
    # h = 2: the unit basis of n/ell is not a prefix of the basis of n unless
    # ell is the largest split prime of n, so the two levels are compared
    # over the basis of n
    assert verify_preks_axiom(make_field(d), "regulator", "ii", n, ell)["verdict"] == "pass"


def test_theta_preks_canary():
    # the theta side through the one checker: negating theta_11 breaks (ii)
    # at (209, 19) and (v) at (33, 3) at every prime where its class is not 0
    for axiom, n, ell, model in (("ii", 209, 19, LocalModel((11, 19), ())),
                                 ("v", 33, 3, LocalModel((11,), (3,)))):
        caught = []
        for q in find_aux_primes(F5, n, 3):
            levels = _ThetaLevels(F5, make_reduction_hom(F5, n, q))
            assert preks_holds(levels, model, axiom, n, ell)
            levels[11] = -levels[11]
            caught.append(not preks_holds(levels, model, axiom, n, ell))
            assert caught[-1] == (not levels[11].is_zero()), (axiom, q)
        assert any(caught), axiom


def test_check_preks_localises_each_level_once(monkeypatch):
    # one check localises coll[k] at ell once, however many axioms above k
    # read it: 16 levels times the 3 split primes 3, 17 and 23
    model, pre = _concrete(13, (3, 17, 23, 2))
    calls = []
    real = ConcreteModel.loc

    def counting(self, x, ell):
        calls.append((x.level, ell))
        return real(self, x, ell)

    monkeypatch.setattr(ConcreteModel, "loc", counting)
    for primed in (False, True):
        calls.clear()
        assert check_preks(pre, model, use_primed_iv=primed)["ok"]
        assert len(calls) == len(set(calls)) == 48, primed


@pytest.mark.parametrize("d, n, ell, vanishes", [
    (5, 33, 11, False), (5, 209, 19, True), (17, 26, 2, True)])
def test_concrete_fs_is_phi_fs(d, n, ell, vanishes):
    # the concrete finite-singular map on the finite part of h_m R_m is the
    # sum over its units x of class * phi_fs(x), phi_fs(x) the class of
    # del_lift at level ell: two paths through the one convention for
    # sigma_ell; at ell = 2 both vanish, as Gamma_n has no 2-component
    F = make_field(d)
    m = n // ell
    model = ConcreteModel(F, tuple(F.split_primes(n)), ())
    reg_m = (h_n(F, m) * regulator(F, m)).proj_new(model.plus(m))
    got = model.fs(model.loc(reg_m, ell)[0], ell, n)
    want = aug_quot(n, F.r_of(n)).zero()
    place = F.place_above(ell)
    for x, c in zip(reg_m.basis, reg_m.embed(n).parts):
        fs_x = aug_quot(ell, 1).class_of(del_lift(F, x, place, ell))
        want = want + gr.mult_classes(c, gr.embed_class(fs_x, n))
    assert got.parts == [want]
    assert want.is_zero() == vanishes


@pytest.mark.parametrize("d, n, wrong_zero", [
    (13, 138, [False, False, False, True, False]),
    (29, 70, [False, True, False, True, False]),
    *((d, n, None) for d, n in ((10, 39), (7, 57), (7, 87), (29, 35), (34, 33),
                                (14, 55), (10, 93), (2, 119), (7, 93), (15, 77),
                                (13, 69)))])
def test_rank_two_verdicts_under_the_precision_rule(d, n, wrong_zero):
    # the r = 2 inputs of the congruence sweep: theta known mod the odd M
    # fixes every odd component's class (e_p^r divides p^(v_p(M))), and the
    # verdicts and the zero pattern of the residuals are those of the solve
    # over the whole Hermite basis at the same primes
    F = make_field(d)
    assert F.r_of(n) == 2
    for q in find_aux_primes(F, n, 5):
        M = make_reduction_hom(F, n, q).modulus
        for comp in aug_quot(n, 2)._components:
            assert M % comp.ep ** 2 == 0 if comp.p > 2 else M % 2, (q, comp.p)
    right = verify_darmon(F, n)
    assert right.verdict == "pass"
    assert all(not any(p.residual) for p in right.primes)
    wrong = verify_darmon(F, n, wrong_sign=True)
    assert wrong.verdict == "fail"
    if wrong_zero is not None:
        assert [not any(p.residual) for p in wrong.primes] == wrong_zero


@pytest.mark.parametrize("d, n", [(73, 114), (89, 110)])
def test_rank_three_even_levels_reach_a_verdict(d, n):
    # q = 1 mod lcm(nf, M) leaves enough primes below 10^9 at these r = 3
    # levels, where 2 splits
    F = make_field(d)
    assert F.r_of(n) == 3
    right = verify_darmon(F, n)
    assert right.verdict == "pass"
    assert all(not any(p.residual) for p in right.primes)
    assert verify_darmon(F, n, wrong_sign=True).verdict == "fail"


@pytest.mark.parametrize("d, n, L", [(73, 138, 13_408_494), (97, 186, 20_297_250),
                                     (13, 1173, 20_296_419)])
def test_odd_modulus_reaches_a_verdict(d, n, L):
    # with the 2-part of the precision, L = 53.6M, 81.2M and 8.3e10 left
    # fewer than five primes q = 1 mod L below 10^9 at these r = 3 levels
    F = make_field(d)
    assert F.r_of(n) == 3 and _required_congruence(F, n) == L
    right = verify_darmon(F, n)
    assert right.verdict == "pass"
    assert all(not any(p.residual) for p in right.primes)
    assert verify_darmon(F, n, wrong_sign=True).verdict == "fail"


def test_sweep_verdicts(workloads):
    # every input of the benchmark's congruence sweep: the right sign passes
    # and the wrong sign fails, unless the quotient has no odd part, which
    # makes both vacuous
    for _, pairs in workloads.SWEEP_STRATA:
        for d, n in pairs:
            F = make_field(d)
            right = verify_darmon(F, n).verdict
            wrong = verify_darmon(F, n, wrong_sign=True).verdict
            assert right in ("pass", "vacuous") and wrong in ("fail", "vacuous"), (d, n)
            assert (right == "vacuous") == (wrong == "vacuous"), (d, n)
