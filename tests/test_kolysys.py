"""Synthetic Kolyvagin / pre-Kolyvagin systems and the transform."""

import random
from math import gcd, lcm

import pytest

from darmoncheck import groupring as gr, nt
from darmoncheck.groupring import AugQuot, ClassTensor, aug_quot
from darmoncheck.kolysys import (SynElt, block_model, check_ks, check_preks,
                                 cyclic_model, inverse_transform,
                                 lemma58_extend, lemma58_sum_check, random_ks,
                                 transform, zero_collection)

MODEL = block_model((5, 13), (3,), seed=1, extra_factor=12)
KAPPA = random_ks(MODEL, seed=2)
PRE = inverse_transform(KAPPA, MODEL)


def test_zero_collection_passes():
    zero = zero_collection(MODEL)
    assert check_ks(zero, MODEL)["ok"]
    assert check_preks(zero, MODEL)["ok"]
    assert check_preks(zero, MODEL, use_primed_iv=True)["ok"]


def test_random_ks_satisfies_axioms():
    assert check_ks(KAPPA, MODEL)["ok"]


def test_inverse_transform_is_pre_ks():
    assert check_preks(PRE, MODEL)["ok"]
    assert check_preks(PRE, MODEL, use_primed_iv=True)["ok"]


def test_transform_roundtrip_and_level_one():
    back = transform(PRE, MODEL)
    assert all(back[n] == KAPPA[n] for n in KAPPA)
    assert PRE[1] == KAPPA[1]  # the transform fixes the bottom level


def test_transform_output_lands_in_new_part():
    transform(PRE, MODEL)  # raises on failure


def test_transform_linearity():
    pre2 = {n: 3 * x for n, x in PRE.items()}
    t1 = transform(PRE, MODEL)
    t2 = transform(pre2, MODEL)
    for n in t1:
        assert t2[n] == 3 * t1[n]


def test_transform_injectivity_recursion():
    # recovering the input from the image, triangularly
    again = inverse_transform(transform(PRE, MODEL), MODEL)
    assert all(again[n] == PRE[n] for n in PRE)
    # and zero image forces zero input
    zero = zero_collection(MODEL)
    assert all(inverse_transform(zero, MODEL)[n].is_zero() for n in zero)


def test_prime_level_transform():
    # at a prime level the determinant D_{l,l} vanishes, so the transform
    # leaves the value unchanged
    for ell in MODEL.split:
        assert transform(PRE, MODEL)[ell] == PRE[ell] + PRE[1].embed(ell).mult_class(
            _d_ell_class(ell))


def _d_ell_class(ell):
    from darmoncheck.groupring import d_det
    _, cls = d_det(ell, ell)
    assert cls.is_zero()
    return cls


def test_ks_canary_inert():
    bad = dict(KAPPA)
    g15 = bad[15]
    parts = list(g15.parts)
    parts[0] = parts[0] + g15.quot.splitting((5,))["new_gen"]
    bad[15] = SynElt(MODEL, g15.quot, parts)
    rep = check_ks(bad, MODEL)
    assert not rep["ok"]
    assert any(f[0] == "iii" and f[1] == 15 for f in rep["failures"])


def test_preks_canary():
    bad = dict(PRE)
    g65 = bad[65]
    parts = list(g65.parts)
    parts[-1] = parts[-1] + g65.quot.splitting((5, 13))["new_gen"]
    bad[65] = SynElt(MODEL, g65.quot, parts)
    rep = check_preks(bad, MODEL)
    assert not rep["ok"]


def test_iv_equivalent_to_primed_iv():
    rng = random.Random(5)
    verdes = []
    for t in range(12):
        model = block_model((5, 13), (), seed=100 + t)
        kappa = random_ks(model, seed=200 + t)
        pre = inverse_transform(kappa, model)
        if t % 3 == 0:
            # perturb to also compare failing verdicts
            g = pre[65]
            parts = list(g.parts)
            parts[0] = parts[0] + g.quot.splitting((5, 13))["new_gen"]
            pre[65] = SynElt(model, g.quot, parts)
        a = check_preks(pre, model)["ok"]
        b = check_preks(pre, model, use_primed_iv=True)["ok"]
        assert a == b, t
        verdes.append(a)
    assert True in verdes  # at least some valid instances were exercised


def test_lemma58_extension():
    seed = {n: PRE[n] for n in MODEL.levels() if n % 13}
    ext = lemma58_extend(seed, MODEL, 13)
    assert lemma58_sum_check(ext, MODEL, 13)
    # determinism / uniqueness of the recursion
    ext2 = lemma58_extend(seed, MODEL, 13)
    assert all(ext[n] == ext2[n] for n in ext)
    # a perturbed extension violates the sum identity
    bad = dict(ext)
    g = bad[65]
    parts = list(g.parts)
    parts[0] = parts[0] + g.quot.splitting((5, 13))["new_gen"]
    bad[65] = SynElt(MODEL, g.quot, parts)
    assert not lemma58_sum_check(bad, MODEL, 13)


def test_lemma58_zero_seed():
    zero = {n: SynElt(MODEL, aug_quot(n, MODEL.r_of(n)))
            for n in MODEL.levels() if n % 13}
    ext = lemma58_extend(zero, MODEL, 13)
    assert all(x.is_zero() for x in ext.values())


def test_lemma58_two_prime_shape():
    # universe {l, q}: x_{lq} = -sign(transposition) x_1 Pi(sigma)
    model = block_model((5, 13), (), seed=7)
    kappa = random_ks(model, seed=8)
    pre = inverse_transform(kappa, model)
    seed = {n: pre[n] for n in model.levels() if n % 13}
    ext = lemma58_extend(seed, model, 13)
    from darmoncheck.groupring import PermData, perm_pi
    pi_cls = perm_pi(PermData(65, ((5, 13), (13, 5))))
    expected = seed[1].embed(65).mult_class(pi_cls)  # -(-1) = +1 sign
    assert ext[65] == expected


def test_cyclic_model_checkers_run():
    model = cyclic_model((5, 13), (3,), seed=3)
    zero = zero_collection(model)
    assert check_ks(zero, model)["ok"]
    assert check_preks(zero, model, use_primed_iv=True)["ok"]


def test_three_prime_universe():
    model = block_model((5, 7, 13), (), seed=4)
    kappa = random_ks(model, seed=5)
    assert check_ks(kappa, model)["ok"]
    pre = inverse_transform(kappa, model)
    assert check_preks(pre, model)["ok"]
    assert all(transform(pre, model)[n] == kappa[n] for n in kappa)


def test_add_across_quotients_raises():
    with pytest.raises(ValueError):
        KAPPA[5] + KAPPA[13]


def _folded(c, M):
    """The image of a class in Z/M (x) I^r/I^{r+1}: coordinates mod gcd(M, d_i)."""
    return [x % gcd(M, d) if gcd(M, d) else x
            for x, d in zip(c.rows[0].tolist(), c.quot.invariants)]


def _random_class(rng, quot):
    return ClassTensor(quot, (0,), [[rng.randrange(d) if d else rng.randrange(-50, 50)
                                     for d in quot.invariants]])


@pytest.mark.parametrize("model", [
    block_model((5, 13), (3,), seed=1, extra_factor=12),
    block_model((3, 5, 7), (), seed=4),
    cyclic_model((5, 13), (3,), seed=3, two_generators=True),
])
def test_tensor_maps_match_the_per_class_path(model):
    # every map of a SynElt acts on each cyclic factor of A as the per-class
    # map does, followed by the fold mod gcd(M_j, d_i)
    rng = random.Random(str(model.moduli))
    levels = model.levels()
    for n in levels:
        quot = aug_quot(n, model.r_of(n))
        parts = [_random_class(rng, quot) for _ in model.moduli]
        # one-row class arithmetic is coordinate arithmetic mod the
        # invariants (degree 0: Z, not reduced)
        a, b = parts[0], parts[-1]
        ca, cb = a.rows[0].tolist(), b.rows[0].tolist()
        for got, want in ((a + b, [s + t for s, t in zip(ca, cb)]),
                          (a - b, [s - t for s, t in zip(ca, cb)]), (-a, [-s for s in ca]),
                          *((k * a, [k * s for s in ca]) for k in (-7, 0, 3))):
            assert got.rows[0].tolist() == [s % d if d else s
                                            for s, d in zip(want, quot.invariants)], n
        assert a.order() == lcm(1, *[0 if not d and s else d // gcd(s, d) if d else 1
                                     for s, d in zip(ca, quot.invariants)]), n
        x = SynElt(model, quot, parts)
        assert [c.rows[0].tolist() for c in x.parts] == [_folded(c, M)
                                                         for c, M in zip(parts, model.moduli)]

        def same(y, per_class):
            assert [c.rows[0].tolist() for c in y.parts] == [
                _folded(per_class(c), M) for c, M in zip(x.parts, model.moduli)], n

        for d in nt.divisors(n):
            same(x.pi(d), lambda c: gr.pi_d(c, d))
        for big in levels:
            if big % n == 0:
                same(x.embed(big), lambda c: gr.embed_class(c, big))
        plus = model.plus(n)
        same(x.proj_new(plus), lambda c: c.proj_new(plus))
        if n > 1:
            v = _random_class(rng, aug_quot(n, 1))
            same(x.mult_class(v), lambda c: gr.mult_classes(c, v))
        k = ClassTensor(aug_quot(n, 0), (0,), [[rng.randrange(-9, 10)]])
        same(x.mult_class(k), lambda c: gr.mult_classes(c, k))
        for ell in model.split:
            fin, tr = model.loc(x, ell)
            for t, got in enumerate((fin, tr)):
                want = quot.zero()
                for cols, c in zip(model.cols[ell], x.parts):
                    want = want + cols[t] * c
                assert got.parts[0].rows[0].tolist() == _folded(want, ell - 1), (n, ell)


def test_warm_primed_check_preks_reduces_nothing(monkeypatch):
    # Pi(sigma) is kept on its quotient, so a second primed check finds
    # every class it needs there
    model = block_model((5, 13), (3,), seed=1, extra_factor=12)
    pre = inverse_transform(random_ks(model, seed=1), model)
    assert check_preks(pre, model, use_primed_iv=True)["ok"]
    calls = []
    real = AugQuot.class_of

    def counting(self, v):
        calls.append((self.level, self.degree))
        return real(self, v)

    monkeypatch.setattr(AugQuot, "class_of", counting)
    assert check_preks(pre, model, use_primed_iv=True)["ok"]
    assert calls == []


def test_check_preks_reduces_each_group_class_once(monkeypatch):
    # the classes of (g - 1) in I_n/I_n^2 are kept on the degree-1 quotient,
    # so one check_preks reduces at most one per (level, ell) it visits
    calls = []
    real = AugQuot.class_of

    def counting(self, v):
        calls.append((self.level, self.degree))
        return real(self, v)

    monkeypatch.setattr(AugQuot, "class_of", counting)
    check_preks(PRE, MODEL)
    pairs = {(n, ell) for n in MODEL.levels() for ell in MODEL.split if n % ell == 0}
    assert len(calls) <= len(pairs), calls


def test_check_preks_contracts_each_multiplier_once(monkeypatch):
    # multiplication by a class is kept on the product's quotient, so one
    # check_preks contracts each (product quotient, multiplier) at most once,
    # and a second check on the same collection contracts none
    calls, uses = [], []
    contract, mult_matrix = AugQuot._contract, AugQuot.mult_matrix

    def counting(self, qa, qb, b):
        calls.append((self.level, self.degree, qa.degree, b.tobytes()))
        return contract(self, qa, qb, b)

    def using(self, qa, v):
        uses.append(1)
        return mult_matrix(self, qa, v)

    monkeypatch.setattr(AugQuot, "_contract", counting)
    monkeypatch.setattr(AugQuot, "mult_matrix", using)
    assert check_preks(PRE, MODEL)["ok"]
    assert len(calls) == len(set(calls)), calls
    assert len(uses) > len(calls)
    calls.clear()
    assert check_preks(PRE, MODEL)["ok"]
    assert calls == []


@pytest.mark.parametrize("model", [
    block_model((5, 13), (3,), seed=1, extra_factor=12),
    block_model((3, 5, 7), (), seed=4),
    cyclic_model((5, 13), (3,), seed=3, two_generators=True),
])
def test_kept_mult_matrices_match_fresh_contractions(model):
    # all products first, then each kept matrix against a fresh contraction:
    # a key that confused two multipliers would hand a later one the matrix
    # of an earlier one (zero classes of equal width included)
    rng = random.Random(repr(model.moduli))
    seen = []
    for n in model.levels():
        # one degree past the number of primes, where at n = 21 the degree-2
        # and degree-3 classes have the same width
        top = len(nt.prime_factors(n)) + 1
        for r in range(top + 1):
            for s in range(top + 1 - r):
                qa, target = aug_quot(n, r), aug_quot(n, r + s)
                for v in (_random_class(rng, aug_quot(n, s)), aug_quot(n, s).zero()):
                    kept = target.mult_matrix(qa, v)
                    assert target.mult_matrix(qa, ClassTensor(v.quot, (0,), v.rows)) is kept
                    seen.append((target, qa, v, kept))
    for target, qa, v, kept in seen:
        fresh = target._contract(qa, v.quot, v.rows[0])
        assert kept.tolist() == fresh.tolist(), (target, qa, v.rows)
