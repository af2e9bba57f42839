"""The benchmark's workloads: seeded inputs, operations and warm-up.

A workload turns a seed into one *round*: a fixed list of operations that a
run repeats whole until its time is up.  Each operation calls the library's
public functions through their modules (so a traced run sees every call)
and returns what the checks in `checks.py` need.  The checks live apart so
that measuring set-up does not pay for importing sympy.

Inputs are drawn per stratum, a list of inputs ordered by cost, one from
each of its consecutive chunks.  That keeps the mix of cheap and expensive
operations, and so the latency quantiles, the same from seed to seed while
the inputs themselves change.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from typing import Callable

from darmoncheck import cyclo, darmon, groupring as gr, kolysys as ks, nt
from darmoncheck import quadfield as qf

# The unbounded module caches.  Captured here, before a traced run wraps
# `aug_quot`, so that their statistics can be read and they can be cleared.
MODULE_CACHES = (gr.aug_quot, gr.gamma, qf.make_field, cyclo.context,
                 cyclo._alpha_cached, cyclo.cyclotomic_poly)
AUG_QUOT_CACHE = gr.aug_quot


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


class CacheStats:
    """aug_quot cache hits and misses, summed across cache clears."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def read(self) -> tuple[int, int]:
        info = AUG_QUOT_CACHE.cache_info()
        return self.hits + info.hits, self.misses + info.misses

    def clear_module_caches(self) -> None:
        info = AUG_QUOT_CACHE.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        for cached in MODULE_CACHES:
            cached.cache_clear()
        # cached quotients hold reference cycles; free them now rather than
        # whenever the collector next runs, so peak memory does not depend
        # on when that is
        gc.collect()


def _draw(rng: random.Random, strata) -> list:
    """One pick from each of `count` consecutive chunks of each stratum.

    Candidates are listed cheapest first, so every round holds one input
    from each cost band of the stratum, whatever the seed.
    """
    out = []
    for count, candidates in strata:
        size, extra = divmod(len(candidates), count)
        start = 0
        for i in range(count):
            end = start + size + (i < extra)
            out.append(rng.choice(candidates[start:end]))
            start = end
    return out


# ---------------------------------------------------------------------------
# congruence-sweep: verify_darmon at (d, n) pairs, plus theta axiom (ii)

# (count per round, [(d, n)]), each list cheapest first.  Costs are seconds
# per call measured single-threaded (README.md).  A round's sorted latencies
# run: the cheap strata, then the large-conductor stratum, which holds the
# median, then the rank-two and dlog strata, which hold the 90th percentile.
SWEEP_STRATA = [
    # small levels, r in {0, 1}, small conductors: ~4-25 ms
    (6, [(2, 21), (5, 33), (5, 19), (13, 21), (3, 29), (5, 37), (3, 35),
         (2, 23), (3, 31), (13, 19), (2, 35), (2, 37), (3, 23), (5, 43),
         (5, 31), (29, 11), (21, 19), (5, 47), (21, 23), (2, 31), (13, 35),
         (5, 29), (3, 41), (29, 21), (2, 43), (5, 41), (2, 57), (3, 37),
         (2, 55), (29, 17), (2, 41), (13, 33), (13, 31), (29, 13), (13, 37)]),
    # r = 1 with phi(n) a power of 2, where I_n/I_n^2 = Gamma_n has no odd
    # part and the verdict is vacuous: ~5-20 ms
    (2, [(13, 15), (2, 17), (7, 15), (13, 30), (14, 15), (29, 15), (29, 30),
         (2, 51), (13, 17), (21, 17), (13, 34), (21, 34)]),
    # conductors f = 24 ... 136, r <= 2: alpha_exponents scans n*f residues
    # per twist: ~0.06-0.22 s
    (26, [(10, 39), (10, 57), (10, 37), (34, 19), (10, 47), (14, 37), (7, 61),
          (6, 53), (6, 47), (14, 41), (7, 47), (26, 19), (15, 47), (30, 31),
          (34, 23), (26, 29), (14, 57), (7, 69), (10, 61), (15, 43), (14, 43),
          (10, 59), (7, 53), (26, 31), (26, 35), (10, 77), (26, 33), (14, 53),
          (10, 43), (7, 57), (30, 29), (10, 69), (14, 69), (34, 39), (15, 61),
          (30, 37), (34, 35), (30, 43), (30, 41), (15, 53), (26, 23), (14, 59),
          (7, 59), (30, 47), (14, 87)]),
    # r = 2 at phi(n) 20-96, three of eleven in fields of class number 2:
    # ~0.25-0.43 s
    (6, [(7, 87), (29, 35), (34, 33), (29, 70), (14, 55), (10, 93), (2, 119),
         (7, 93), (15, 77), (13, 69), (13, 138)]),
    # d = 5 at primes n = +-1 mod 5 with phi(n) 180-280: r = 1 and the
    # baby-step giant-step dlog dominates: ~0.25-0.67 s
    (6, [(5, 181), (5, 191), (5, 211), (5, 199), (5, 241), (5, 251), (5, 229),
         (5, 271), (5, 281)]),
]

# (count per round, [(d, n, ell)]): theta axiom (ii), split ell | n, which
# runs the exact cyclotomic norm relation: ~1-50 ms
PREKS_STRATA = [
    (4, [(13, 3, 3), (2, 7, 7), (5, 11, 11), (2, 21, 7), (2, 17, 17),
         (5, 19, 19), (5, 33, 11), (5, 31, 31), (29, 7, 7), (5, 29, 29),
         (29, 13, 13), (13, 29, 29)]),
]


def sweep_round(seed: int) -> list[Op]:
    rng = random.Random(f"congruence-sweep/{seed}")
    ops = [Op("verify", pair) for pair in _draw(rng, SWEEP_STRATA)]
    ops += [Op("preks", triple) for triple in _draw(rng, PREKS_STRATA)]
    rng.shuffle(ops)
    return ops


def run_verify(d: int, n: int):
    return darmon.verify_darmon(qf.make_field(d), n)


def run_preks(d: int, n: int, ell: int):
    return darmon.verify_preks_axiom(qf.make_field(d), "theta", "ii", n, ell)


# ---------------------------------------------------------------------------
# frobenius-determinants: the determinant lemma at one multi-prime level

# Levels are squarefree products of 2-4 primes from {2, 3, 5, 7, 11, 13, 17,
# 19, 23} with phi(n) <= 144.  (count per round, [n]), sorted latencies
# running as for SWEEP_STRATA: the median in the middle stratum, the 90th
# percentile in the heavy one.
DET_STRATA = [
    # ~3-30 ms: two odd primes, or 2 and two odd primes
    (12, [15, 21, 30, 33, 35, 39, 42, 51, 57, 55, 66, 70, 65, 78]),
    # ~0.025-0.17 s
    (16, [69, 77, 102, 85, 114, 95, 91, 110, 138, 105, 130, 115, 119, 154,
          133, 170, 182, 190, 143, 165, 161]),
    # ~0.19-0.49 s: three primes
    (8, [230, 238, 195, 266, 231, 286, 255, 322, 285, 273]),
    # four primes, 2*3*5*7 and 2*3*5*11: the degree-4 quotient drops to the
    # exact big-integer solve (~0.23 s and ~0.67 s)
    (2, [210, 330]),
]


def det_round(seed: int) -> list[Op]:
    rng = random.Random(f"frobenius-determinants/{seed}")
    ops = [Op("det", (n,)) for n in _draw(rng, DET_STRATA)]
    rng.shuffle(ops)
    return ops


def run_det(n: int) -> dict:
    """Quotients, D_{n,d} for every d | n and the determinant lemma's parts."""
    primes = nt.prime_factors(n)
    quots = {t: gr.aug_quot(n, t) for t in range(1, len(primes) + 1)}
    parts = []
    for dd in nt.divisors(n):
        if dd == 1:
            continue
        sub = tuple(nt.prime_factors(dd))
        _, D_nd = gr.d_det(n, dd)
        _, D_dd = gr.d_det(dd, dd)
        emb = gr.embed_class(D_dd, n)
        expansion = quots[len(sub)].zero()
        for mp in gr.derangements(list(sub)):
            expansion = expansion + gr.perm_sign(mp) * gr.perm_pi(
                gr.PermData(n, tuple(sorted(mp.items()))))
        parts.append({
            "d": dd,
            "projected": gr.pi_d(D_nd, dd),
            "embedded": emb,
            "new": D_dd.is_zero() or gr.in_new_component(emb, sub),
            "expansion": expansion,
        })
    new_gen = quots[len(primes)].splitting(tuple(primes))["new_gen"]
    return {"parts": parts, "new_order": new_gen.order(),
            "new_zero": new_gen.is_zero(), "gamma_order": quots[1].order}


# ---------------------------------------------------------------------------
# kolyvagin-transform: synthetic Kolyvagin systems and the transform

# (split primes, inert primes).  Every round runs three trials on each: with
# no extra cyclic factor in the coefficient group, with Z/6 and with Z/12.
# The mix of sizes is thus the same for every seed.  Sorted by cost, the 15
# trials put the median and the 90th percentile on the middle trial of a
# universe (the 8th and the 14th), not between two universes.
UNIVERSES = [
    ((5, 13), ()), ((5, 7), (3,)), ((7, 13), (3,)),
    ((3, 5, 7), ()), ((3, 5, 13), ()),
]


def kolyvagin_round(seed: int) -> list[Op]:
    rng = random.Random(f"kolyvagin-transform/{seed}")
    ops = [Op("trial", (split, inert, rng.randrange(1 << 30), extra,
                        rng.randrange(1 << 30), rng.randrange(1 << 30)))
           for split, inert in UNIVERSES for extra in (None, 6, 12)]
    rng.shuffle(ops)
    return ops


def run_trial(split, inert, model_seed, extra, ks_seed, pick) -> dict:
    model = ks.block_model(split, inert, seed=model_seed, extra_factor=extra)
    kappa = ks.random_ks(model, seed=ks_seed)
    pre = ks.inverse_transform(kappa, model)
    # perturb kappa at one level divisible by the first split prime; the
    # finite part there must vanish, so check_ks has to flag that level
    ell = split[0]
    levels = [n for n in model.levels() if n % ell == 0]
    level = levels[pick % len(levels)]
    x = kappa[level]
    plus = tuple(p for p in model.split if level % p == 0)
    bumped = list(x.parts)
    bumped[0] = bumped[0] + x.quot.splitting(plus)["new_gen"]
    bad = dict(kappa)
    bad[level] = ks.SynElt(model, x.quot, bumped)
    return {
        "kappa": kappa,
        "pre": pre,
        "ks": ks.check_ks(kappa, model),
        "preks": ks.check_preks(pre, model),
        "preks_primed": ks.check_preks(pre, model, use_primed_iv=True),
        "back": ks.transform(pre, model),
        "bad_level": level,
        "bad": ks.check_ks(bad, model),
    }


def kolyvagin_warm_up(ops: list[Op]) -> None:
    """One trial per universe, so every quotient a round needs is built."""
    seen = set()
    for op in ops:
        universe = op.args[:2]
        if universe not in seen:
            seen.add(universe)
            run_trial(*op.args)


# ---------------------------------------------------------------------------

RUNNERS = {"verify": run_verify, "preks": run_preks, "det": run_det,
           "trial": run_trial}


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[int], list[Op]]
    # clear the module caches before each operation, so that its cost does
    # not depend on what ran before it
    clear_per_op: bool
    warm_up: Callable[[list[Op]], None] | None = None


WORKLOADS = {
    "congruence-sweep": Workload(sweep_round, True),
    "frobenius-determinants": Workload(det_round, True),
    "kolyvagin-transform": Workload(kolyvagin_round, False, kolyvagin_warm_up),
}


def run_op(op: Op):
    return RUNNERS[op.kind](*op.args)

