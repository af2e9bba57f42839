"""Abstract Kolyvagin-system and pre-Kolyvagin-system machinery.

Collections indexed by squarefree products of a small prime universe take
values in A (x) I_n^{r(n)}/I_n^{r(n)+1} for a synthetic finite coefficient
group A.  Elements are stored per cyclic factor of A as augmentation
classes, so all class-side operations reuse the group-ring machinery.  The
transform into honest Kolyvagin systems multiplies by the Frobenius
determinants D_{n,d} and is checked against the axiom lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm, prod

from . import groupring as gr, nt
from .groupring import AugClass, RingElt, aug_quot, gamma


@dataclass
class SyntheticLocalModel:
    """A synthetic stand-in for the global minus-part coefficient module.

    moduli: the cyclic factors of A.
    split: split primes of the universe; inert: the rest.
    loc[l]: a 2-column integer matrix of multipliers A -> Z/(l-1) x Z/(l-1)
            giving the finite and transverse components at l.
    fs_unit[l]: the unit mod l-1 implementing the finite-singular map.
    """

    moduli: tuple[int, ...]
    split: tuple[int, ...]
    inert: tuple[int, ...]
    loc: dict[int, list[tuple[int, int]]]
    fs_unit: dict[int, int]
    seed: int | None = None

    @property
    def universe(self) -> tuple[int, ...]:
        return tuple(sorted(self.split + self.inert))

    def levels(self) -> list[int]:
        """The divisor-closed index set generated by the universe."""
        out = [1]
        for p in self.universe:
            out += [n * p for n in out]
        return sorted(out)

    def split_part(self, n: int) -> int:
        return prod([p for p in self.split if n % p == 0]) if n > 1 else 1

    def r_of(self, n: int) -> int:
        return len([p for p in self.split if n % p == 0])


def _rand_unit(rng: random.Random, m: int) -> int:
    while True:
        u = rng.randrange(1, max(m, 2))
        if gcd(u, m) == 1:
            return u


def block_model(split: tuple[int, ...], inert: tuple[int, ...] = (),
                seed: int = 0, extra_factor: int | None = None) -> SyntheticLocalModel:
    """A model with one (finite, transverse) block of Z/(l-1) per split prime.

    The localisation maps are unit-twisted projections, so every local
    constraint is solvable and rich synthetic systems exist.
    """
    rng = random.Random(("block", split, inert, seed).__repr__())
    moduli = []
    index = {}
    for p in split:
        index[p] = len(moduli)
        moduli += [p - 1, p - 1]
    if extra_factor:
        moduli.append(extra_factor)
    loc = {}
    fs_unit = {}
    for p in split:
        i = index[p]
        col = [(0, 0)] * len(moduli)
        col[i] = (_rand_unit(rng, p - 1), 0)
        col[i + 1] = (0, _rand_unit(rng, p - 1))
        loc[p] = col
        fs_unit[p] = _rand_unit(rng, p - 1)
    return SyntheticLocalModel(tuple(moduli), tuple(split), tuple(inert),
                               loc, fs_unit, seed)


def cyclic_model(split: tuple[int, ...], inert: tuple[int, ...] = (),
                 seed: int = 0, two_generators: bool = False) -> SyntheticLocalModel:
    """A = Z/M (or a random two-generator group), random localisation maps."""
    rng = random.Random(("cyclic", split, inert, seed, two_generators).__repr__())
    M = lcm(*[p - 1 for p in split]) if split else 2
    moduli = (M, M * rng.choice([1, 2, 3])) if two_generators else (M,)
    loc = {}
    fs_unit = {}
    for p in split:
        cols = []
        for Mj in moduli:
            # homomorphisms Z/Mj -> Z/(p-1): multiplication by a multiple of
            # (p-1)/gcd(p-1, Mj)
            step = (p - 1) // gcd(p - 1, Mj)
            cols.append((step * rng.randrange(0, gcd(p - 1, Mj)),
                         step * rng.randrange(0, gcd(p - 1, Mj))))
        loc[p] = cols
        fs_unit[p] = _rand_unit(rng, p - 1)
    return SyntheticLocalModel(moduli, tuple(split), tuple(inert), loc, fs_unit, seed)


def _fold(c: AugClass, m: int) -> AugClass:
    """The image of a class in Z/m (x) I^r/I^{r+1}: coordinates mod gcd(m, d_i)."""
    return AugClass(c.parent, tuple(
        x % gcd(m, di) if di else x % m
        for x, di in zip(c.coords, c.parent.invariants)))


class SynElt:
    """An element of A (x) I_n^r/I_n^{r+1}: one class per cyclic factor of A."""

    __slots__ = ("model", "quot", "parts")

    def __init__(self, model: SyntheticLocalModel, quot, parts=None):
        self.model = model
        self.quot = quot
        if parts is None:
            parts = [quot.zero() for _ in model.moduli]
        self.parts = [_fold(c, Mj) for c, Mj in zip(parts, model.moduli)]

    @property
    def level(self):
        return self.quot.level

    def __add__(self, other: "SynElt") -> "SynElt":
        if other.quot is not self.quot:
            raise ValueError("elements belong to different quotients")
        return SynElt(self.model, self.quot,
                      [a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other: "SynElt") -> "SynElt":
        return self + other.scale(-1)

    def scale(self, k) -> "SynElt":
        if isinstance(k, int):
            k = [k] * len(self.parts)
        return SynElt(self.model, self.quot,
                      [kj * c for kj, c in zip(k, self.parts)])

    def map_classes(self, fn, quot=None) -> "SynElt":
        return SynElt(self.model, quot or self.quot, [fn(c) for c in self.parts])

    def pi(self, d: int) -> "SynElt":
        return self.map_classes(lambda c: gr.pi_d(c, d))

    def proj_new(self) -> "SynElt":
        plus = tuple(p for p in self.model.split if self.level % p == 0)
        return self.map_classes(lambda c: gr.proj_new(c, plus))

    def mult_class(self, v: AugClass) -> "SynElt":
        target = aug_quot(self.level, self.quot.degree + v.parent.degree)
        return self.map_classes(lambda c: gr.mult_classes(c, v), target)

    def embed(self, n: int) -> "SynElt":
        target = aug_quot(n, self.quot.degree)
        return self.map_classes(lambda c: gr.embed_class(c, n), target)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.parts)

    def __eq__(self, other):
        return (isinstance(other, SynElt) and other.quot is self.quot
                and all(a == b for a, b in zip(self.parts, other.parts)))

    def loc(self, ell: int) -> tuple[AugClass, AugClass]:
        """(finite, transverse) components at ell, classes mod ell-1."""
        fin = self.quot.zero()
        tr = self.quot.zero()
        for (cf, ct), c in zip(self.model.loc[ell], self.parts):
            fin = fin + cf * c
            tr = tr + ct * c
        return _fold(fin, ell - 1), _fold(tr, ell - 1)

    def fs_of_finite(self, ell: int, fin: AugClass, at_level: int) -> AugClass:
        """The finite-singular image: multiply by (sigma_ell - 1), unit-twisted.

        at_level must be divisible by ell; the finite class is embedded there.
        """
        G = gamma(at_level)
        gen_cls = aug_quot(at_level, 1).class_of(
            RingElt.gen_minus_one(at_level, G.gens[ell]))
        lifted = gr.embed_class(self.model.fs_unit[ell] * fin, at_level)
        return gr.mult_classes(lifted, gen_cls)


def zero_collection(model: SyntheticLocalModel) -> dict[int, SynElt]:
    return {n: SynElt(model, aug_quot(n, model.r_of(n))) for n in model.levels()}


def random_ks(model: SyntheticLocalModel, seed: int = 0) -> dict[int, SynElt]:
    """A random synthetic Kolyvagin system over a block model."""
    rng = random.Random(("ks", model.seed, seed).__repr__())
    out: dict[int, SynElt] = {}
    split_levels = [n for n in model.levels()
                    if all(n % p for p in model.inert)]
    index = {}
    pos = 0
    for p in model.split:
        index[p] = pos
        pos += 2
    for n in sorted(split_levels):
        quot = aug_quot(n, model.r_of(n))
        plus = tuple(p for p in model.split if n % p == 0)
        data = quot.splitting(plus) if n > 1 else None
        gen = data["new_gen"] if n > 1 else AugClass(quot, (1,))
        g_ord = gen.order() or 17  # degree-0 classes are free; any range works
        elt = SynElt(model, quot)
        for p in model.split:
            i = index[p]
            ut = model.loc[p][i + 1][1]
            if n % p == 0:
                # finite component vanishes; transverse matches fs of the
                # previous level
                prev = out[n // p]
                fin_prev, _ = prev.loc(p)
                target = prev.fs_of_finite(p, fin_prev, n)
                elt.parts[i] = quot.zero()
                elt.parts[i + 1] = pow(ut, -1, p - 1) * target
            else:
                elt.parts[i] = rng.randrange(g_ord) * gen
                elt.parts[i + 1] = quot.zero()
        if len(model.moduli) > 2 * len(model.split):
            elt.parts[-1] = rng.randrange(g_ord) * gen
        out[n] = SynElt(model, quot, elt.parts)
    # extend over inert primes: values depend only on the split part
    for n in model.levels():
        if n not in out:
            base = out[model.split_part(n)]
            out[n] = base.embed(n)
    return out


# ---------------------------------------------------------------------------
# axiom checkers


def check_ks(coll: dict[int, SynElt], model: SyntheticLocalModel) -> dict:
    """Per-axiom, per-(n, ell) verdicts for the Kolyvagin-system axioms."""
    failures = []
    for n, x in coll.items():
        for ell in model.split:
            fin, tr = x.loc(ell)
            if n % ell:
                if not tr.is_zero():
                    failures.append(("i", n, ell))
            else:
                prev = coll[n // ell]
                fin_prev, _ = prev.loc(ell)
                want = prev.fs_of_finite(ell, fin_prev, n)
                if not fin.is_zero():
                    failures.append(("ii-finite", n, ell))
                if _fold(tr, ell - 1) != _fold(want, ell - 1):
                    failures.append(("ii", n, ell))
        for ell in model.inert:
            if n % ell == 0:
                if x != coll[n // ell].embed(n):
                    failures.append(("iii", n, ell))
    return {"ok": not failures, "failures": failures}


def check_preks(coll: dict[int, SynElt], model: SyntheticLocalModel,
                use_primed_iv: bool = False) -> dict:
    """Verdicts for the pre-Kolyvagin-system axioms ((iv) or its primed form)."""
    failures = []
    for n, x in coll.items():
        n_plus = model.split_part(n)
        for ell in model.split:
            fin, tr = x.loc(ell)
            if n % ell:
                if not tr.is_zero():
                    failures.append(("i", n, ell))
                continue
            # (ii)
            m = n // ell
            lhs = x.pi(m)
            fr_cls = aug_quot(n, 1).class_of(-1 * gr._frob_lift(n, m, ell))
            rhs = coll[m].embed(n).mult_class(fr_cls)
            if lhs != rhs:
                failures.append(("ii", n, ell))
            # (iii)
            lhs3 = _fold(_proj(x, model, tr), ell - 1)
            prev = coll[m]
            pf = _fin_new(prev, model, ell)
            rhs3 = _fold(prev.fs_of_finite(ell, pf, n), ell - 1)
            if lhs3 != rhs3:
                failures.append(("iii", n, ell))
            # (iv) or (iv)'
            if not use_primed_iv:
                total = _det_sum(
                    n, n_plus,
                    lambda k: gr.embed_class(_fin_new(coll[k], model, ell), n),
                    gr.mult_classes)
                if not _fold(total, ell - 1).is_zero():
                    failures.append(("iv", n, ell))
            else:
                acc = aug_quot(n, model.r_of(n)).zero()
                split_n = [p for p in model.split if n % p == 0]
                for d_sigma, sign, pi_cls in gr.cycles_through(n, split_n, ell):
                    yp = _fin_new(coll[n // d_sigma], model, ell)
                    acc = acc - sign * gr.mult_classes(gr.embed_class(yp, n), pi_cls)
                if _fold(_proj(x, model, fin), ell - 1) != _fold(acc, ell - 1):
                    failures.append(("iv'", n, ell))
        for ell in model.inert:
            if n % ell == 0:
                lhs = x.proj_new()
                rhs = coll[n // ell].proj_new().embed(n)
                if lhs != rhs:
                    failures.append(("v", n, ell))
    return {"ok": not failures, "failures": failures}


def _proj(x: SynElt, model: SyntheticLocalModel, c: AugClass) -> AugClass:
    """The new-component projection of a class at the level of x."""
    plus = tuple(p for p in model.split if x.level % p == 0)
    return gr.proj_new(c, plus)


def _fin_new(y: SynElt, model: SyntheticLocalModel, ell: int) -> AugClass:
    """The new-component projection of the finite part of y at ell."""
    fin, _ = y.loc(ell)
    return _proj(y, model, fin)


def _det_sum(n: int, n_plus: int, value, mult):
    """Sum over d | n_plus of value(n/d) times D_{d,d} embedded at level n.

    value(k) gives the level-k term already embedded at level n, and
    mult(term, cls) multiplies it by a class.
    """
    total = None
    for dd in nt.divisors(n_plus):
        y = value(n // dd)
        term = y if dd == 1 else mult(y, gr.embed_class(gr.d_det(dd, dd)[1], n))
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# the transform and its inverse


def transform(pre: dict[int, SynElt], model: SyntheticLocalModel) -> dict[int, SynElt]:
    """kappa~_n = sum over d | n_+ of kappa_{n/d} D_{n,d}.

    Raises ArithmeticError if an output leaves the new component.
    """
    out = {}
    for n, x in pre.items():
        n_plus = model.split_part(n)
        quot = aug_quot(n, model.r_of(n))
        total = SynElt(model, quot)
        for dd in nt.divisors(n_plus):
            y = pre[n // dd].embed(n)
            if dd == 1:
                term = y
            else:
                _, d_cls = gr.d_det(n, dd)
                term = y.mult_class(d_cls)
            total = total + term
        for p in [p for p in model.split if n % p == 0]:
            if not total.pi(n // p).is_zero():
                raise ArithmeticError(
                    f"transform output escapes the new component at n={n}, "
                    f"witness pi_{n // p}")
        out[n] = total
    return out


def inverse_transform(ks: dict[int, SynElt], model: SyntheticLocalModel) -> dict[int, SynElt]:
    """The unique collection with sum over d of kappa_{n/d} D_{n,d} = kappa~_n."""
    out: dict[int, SynElt] = {}
    for n in sorted(ks):
        n_plus = model.split_part(n)
        quot = aug_quot(n, model.r_of(n))
        acc = ks[n]
        for dd in nt.divisors(n_plus):
            if dd == 1:
                continue
            y = out[n // dd].embed(n)
            _, d_cls = gr.d_det(n, dd)
            acc = acc - y.mult_class(d_cls)
        out[n] = acc
    return out


# ---------------------------------------------------------------------------
# the recursion of the determinant lemma


def lemma58_extend(seed: dict[int, SynElt], model: SyntheticLocalModel,
                   ell: int) -> dict[int, SynElt]:
    """Extend values from ell-free levels by the single-cycle recursion."""
    out = dict(seed)
    for n in sorted(model.levels()):
        if n % ell or n in out:
            continue
        quot = aug_quot(n, model.r_of(n))
        acc = SynElt(model, quot)
        split_n = [p for p in model.split if n % p == 0]
        for d_sigma, sign, pi_cls in gr.cycles_through(n, split_n, ell):
            y = out[n // d_sigma].embed(n)
            acc = acc - y.mult_class(pi_cls).scale(sign)
        out[n] = acc
    return out


def lemma58_sum_check(coll: dict[int, SynElt], model: SyntheticLocalModel,
                      ell: int) -> bool:
    """Check sum over d | n_+ of x_{n/d} D_d = 0 for every n divisible by ell."""
    for n in model.levels():
        if n % ell:
            continue
        total = _det_sum(n, model.split_part(n), lambda k: coll[k].embed(n),
                         SynElt.mult_class)
        if not total.is_zero():
            return False
    return True
