"""Acceptance criteria: one pass/fail line per criterion (run with -s)."""

import itertools
import random
import time
from math import gcd, prod

from darmoncheck import cyclo, groupring as gr, kolysys as ks, nt
from darmoncheck.darmon import (prop94_residual, verify_base_case, verify_darmon,
                                verify_preks_axiom)
from darmoncheck.groupring import (ClassTensor, aug_quot, d_det, derangements,
                                   embed_class, gamma, in_new_component,
                                   monomial_class, perm_pi, perm_sign, pi_d,
                                   subgroup_order, PermData)
from darmoncheck.nt import ResourceLimitError
from darmoncheck.quadfield import make_field

PHI_BATCH_CAP = 480


def _report(num, ok, dt, text):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({dt:.1f}s): {text}"
    print(line)
    assert ok, line


def test_criterion_1_base_case():
    t0 = time.time()
    ok = all(verify_base_case(make_field(d))[0] for d in (2, 5, 10))
    dt = time.time() - t0
    _report(1, ok and dt < 5, dt,
            "alpha_1 = +-(eps/eps^tau)^(-h) exactly for d in {2, 5, 10}")


def test_criterion_2_main_congruence():
    t0 = time.time()
    F = make_field(5)
    lines = []
    ok = True
    for n in (11, 33, 209):
        t1 = time.time()
        try:
            rep = verify_darmon(F, n, num_primes=5)
        except ResourceLimitError:
            if n == 209:
                lines.append("n=209 resource-skipped")
                continue
            raise
        dt1 = time.time() - t1
        good = rep.verdict == "pass" and dt1 < 60
        ok = ok and good
        lines.append(f"n={n}:{rep.verdict}({dt1:.1f}s)")
    _report(2, ok, time.time() - t0,
            "odd part of theta~' + 2^s h_n R_n vanishes under 5 reductions; "
            + ", ".join(lines))


def test_criterion_3_augmentation_structure():
    t0 = time.time()
    rng = random.Random(3)
    levels = checked = 0
    for n in range(2, 301):
        if not nt.is_squarefree(n):
            continue
        G = gamma(n)
        if G.phi > PHI_BATCH_CAP:
            continue
        r = len(G.primes)
        quot = aug_quot(n, r)
        plus = G.primes
        sp = quot.splitting(plus)
        M = sp["new_gen"]
        g = gcd(*[p - 1 for p in plus])
        # cyclic new component of the right order
        assert M.order() == g or (g == 1 and M.is_zero()), n
        assert subgroup_order(quot, [M]) == g, n
        # direct sum: |new| * |old| = |quotient| and they span
        old_rows = _old_monomials(quot, plus)
        old_order = subgroup_order(quot, old_rows)
        assert g * old_order == quot.order, n
        assert subgroup_order(quot, [M] + old_rows) == quot.order, n
        # membership criterion on 50 random classes
        for _ in range(50):
            x = ClassTensor(quot, (0,), [[rng.randrange(d) if d > 1 else 0
                                          for d in quot.invariants]])
            crit = all(pi_d(x, n // p).is_zero() for p in plus)
            via_proj = x.proj_new(plus) == x
            assert crit == via_proj, n
            checked += 1
        levels += 1
    dt = time.time() - t0
    _report(3, dt < 120, dt,
            f"new-component order, splitting and membership criterion on "
            f"{levels} levels / {checked} random classes (n <= 300)")


def _old_monomials(quot, plus):
    n = quot.level
    G = quot.gamma
    r = quot.degree
    rows = []
    for combo in itertools.combinations_with_replacement(G.primes, r):
        if tuple(sorted(combo)) == tuple(sorted(plus)):
            continue
        gammas = [(p, (G.gens[p] % p) if p in G.gens else 1) for p in combo]
        rows.append(monomial_class(quot, gammas))
    return rows


def test_criterion_4_determinant_machinery():
    t0 = time.time()
    pool = [3, 5, 7, 11, 13, 17, 19, 23]
    instances = 0
    levels = 0
    for k in (1, 2, 3, 4):
        for combo in itertools.combinations(pool, k):
            n = prod(combo)
            if nt.euler_phi(n) > PHI_BATCH_CAP:
                continue
            levels += 1
            for dd in nt.divisors(n):
                if dd == 1:
                    continue
                t = len(nt.prime_factors(dd))
                _, D_nd = d_det(n, dd)
                # (iii): pi_d(D_{n,d}) = D_d inside the new part of level d
                _, D_dd = d_det(dd, dd)
                assert pi_d(D_nd, dd) == embed_class(D_dd, n)
                assert D_dd.is_zero() or in_new_component(
                    embed_class(D_dd, n) if n != dd else D_dd,
                    tuple(nt.prime_factors(dd)))
                instances += 1
                for ell in combo:
                    if dd % ell == 0:
                        # (i)
                        lhs = pi_d(D_nd, n // ell)
                        _, low = d_det(n // ell, dd // ell)
                        fr = gr._frob_lift(n, n // dd, ell)
                        if t - 1 >= 1:
                            q_low = aug_quot(n // ell, t - 1)
                            rhs_lift = fr * q_low.lift(low).embed(n)
                        else:
                            rhs_lift = fr * int(low.rows[0, 0])
                        assert lhs == aug_quot(n, t).class_of(rhs_lift)
                    else:
                        # (ii)
                        lhs = pi_d(D_nd, n // ell)
                        _, low = d_det(n // ell, dd)
                        assert lhs == embed_class(low, n)
                    instances += 1
                # determinant equals the signed derangement expansion
                quot = aug_quot(n, t)
                tot = quot.zero()
                for mp in derangements(nt.prime_factors(dd)):
                    full = dict(mp)
                    tot = tot + perm_sign(mp) * perm_pi(
                        PermData(n, tuple(sorted(full.items()))))
                assert tot == pi_d(D_nd, dd)
                instances += 1
    dt = time.time() - t0
    _report(4, instances >= 200 and dt < 60, dt,
            f"determinant projection lemma + derangement expansion on "
            f"{instances} instances over {levels} levels")


UNIVERSES = [((5, 13), ()), ((5, 7), ()), ((7, 13), ()), ((5, 13), (3,)),
             ((5, 7), (11,)), ((7, 13), (3,))]


def test_criterion_5_transform():
    t0 = time.time()
    count = 0
    for t in range(102):
        split, inert = UNIVERSES[t % len(UNIVERSES)]
        model = ks.block_model(split, inert, seed=t,
                               extra_factor=12 if t % 2 else None)
        kappa = ks.random_ks(model, seed=1000 + t)
        pre = ks.inverse_transform(kappa, model)
        image = ks.transform(pre, model)
        assert ks.check_ks(image, model)["ok"], t
        assert image[1] == pre[1], t
        back = ks.inverse_transform(image, model)
        assert all(back[n] == pre[n] for n in pre), t
        count += 1
    dt = time.time() - t0
    _report(5, count >= 100 and dt < 60, dt,
            f"transform of {count} synthetic pre-systems: KS axioms, fixed "
            f"bottom level, injectivity recursion")


def test_criterion_6_determinant_recursion():
    t0 = time.time()
    count = 0
    rng = random.Random(6)
    for t in range(102):
        split, inert = UNIVERSES[t % len(UNIVERSES)]
        ell = split[-1]
        model = ks.block_model(split, inert, seed=500 + t)
        seed_vals = {}
        for n in model.levels():
            if n % ell == 0:
                continue
            quot = aug_quot(n, model.r_of(n))
            plus = tuple(p for p in model.split if n % p == 0)
            sp = quot.splitting(plus)
            gen = sp["new_gen"] if n > 1 else ClassTensor(quot, (0,), [[1]])
            g_ord = gen.order() or 17
            parts = [rng.randrange(g_ord) * gen for _ in model.moduli]
            seed_vals[n] = ks.SynElt(model, quot, parts)
        ext = ks.lemma58_extend(seed_vals, model, ell)
        assert ks.lemma58_sum_check(ext, model, ell), t
        ext2 = ks.lemma58_extend(seed_vals, model, ell)
        assert all(ext[n] == ext2[n] for n in ext), t
        count += 1
    dt = time.time() - t0
    _report(6, count >= 100 and dt < 30, dt,
            f"single-cycle recursion implies the determinant sum identity on "
            f"{count} random collections; extension unique")


def test_criterion_7_concrete_axioms():
    t0 = time.time()
    F = make_field(5)
    results = []
    # axiom (ii) exactly, both systems, at (ell=11, n=11)
    for system in ("regulator", "theta"):
        r = verify_preks_axiom(F, system, "ii", 11, 11)
        results.append((system, "ii", 11, r["verdict"]))
        assert r["verdict"] == "pass", r
    # the (ell=19, 209 -> 11) chain, resource permitting
    chain = "skipped"
    try:
        r = verify_preks_axiom(F, "regulator", "ii", 209, 19)
        assert r["verdict"] == "pass" and r["method"] == "exact", r
        assert cyclo.norm_relation_check(F, 209, 19)
        chain = "exact"
    except ResourceLimitError:
        pass
    # axioms (iii), (iv'), (v) at n in {11, 33}
    for n in (11, 33):
        for axiom in ("iii", "iv"):
            r = verify_preks_axiom(F, "regulator", axiom, n, 11)
            results.append(("regulator", axiom, n, r["verdict"]))
            assert r["verdict"] == "pass", r
    r = verify_preks_axiom(F, "theta", "v", 33, 3, num_primes=3)
    assert r["verdict"] == "pass", r
    results.append(("theta", "v", 33, "pass"))
    dt = time.time() - t0
    _report(7, dt < 120, dt,
            f"pre-system axioms for both concrete systems; 209-chain {chain}; "
            f"{len(results)} checks (theta local axioms are inherited, "
            f"reported unsupported)")


def test_criterion_8_derivative_identity(full_homs):
    t0 = time.time()
    F = make_field(5)
    checked = 0
    for n in (11, 33):
        # into all of Z/(q - 1): every Sylow component, 2 included
        for h in full_homs(F, n, 3):
            assert prop94_residual(F, n, h).is_zero(), (n, h.q)
            checked += 1
    dt = time.time() - t0
    _report(8, checked >= 6 and dt < 60, dt,
            f"theta-to-derivative-class identity exact under {checked} "
            f"reductions at n in {{11, 33}}")


def test_criterion_9_soundness_canaries():
    t0 = time.time()
    F = make_field(5)
    # wrong sign must fail
    rep = verify_darmon(F, 11, num_primes=3, wrong_sign=True)
    assert rep.verdict == "fail"
    # perturbed cyclotomic unit must break the norm relation
    assert not cyclo.norm_relation_check(F, 11, 11, perturb=True)
    # violated synthetic axiom must be flagged at the right spot
    model = ks.block_model((5, 13), (3,), seed=9)
    kappa = ks.random_ks(model, seed=9)
    bad = dict(kappa)
    g15 = bad[15]
    parts = list(g15.parts)
    parts[0] = parts[0] + g15.quot.splitting((5,))["new_gen"]
    bad[15] = ks.SynElt(model, g15.quot, parts)
    rep2 = ks.check_ks(bad, model)
    assert not rep2["ok"] and any(f[1] == 15 for f in rep2["failures"])
    dt = time.time() - t0
    _report(9, dt < 30, dt,
            "wrong sign, perturbed unit and violated axiom all detected")
