"""Abstract Kolyvagin-system and pre-Kolyvagin-system machinery.

Collections indexed by squarefree products of a small prime universe take
values in A (x) I_n^{r(n)}/I_n^{r(n)+1}, A = sum of Z/M_j.  An element is a
`groupring.ClassTensor`, one row of class coordinates per cyclic factor of
A, so every induced map is one matrix product.  `preks_axioms` says which
pre-Kolyvagin axioms apply at (n, ell), and `preks_holds` checks one.  (ii)
and (v) compare levels through the induced maps alone; (i), (iii) and (iv)
read local data through a `LocalModel`: `loc(x, ell)` gives the (finite,
transverse) pair at a split ell, and `fs` the finite-singular image of a
finite part, in the module of the transverse parts.  `SyntheticLocalModel`
serves the synthetic `SynElt`s: both parts are fixed multiples of the rows
in Z/(ell-1), and fs is a unit twist of (sigma_ell - 1).
`darmon.ConcreteModel` serves h_n R_n; the theta side has no local data
and uses `LocalModel` itself.  The transform into honest Kolyvagin systems
multiplies by the Frobenius determinants D_{n,d} and is checked against the
axiom lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, lcm, prod

import numpy as np

from . import groupring as gr, nt
from .groupring import ClassTensor, aug_quot, gamma


class LocalModel:
    """The universe of a collection (split: its split primes; inert: the
    rest) and its local data at the split primes, which subclasses give by
    `loc` and `fs`."""

    def __init__(self, split: tuple[int, ...], inert: tuple[int, ...]):
        self.split, self.inert = tuple(split), tuple(inert)

    @property
    def universe(self) -> tuple[int, ...]:
        return tuple(sorted(self.split + self.inert))

    def levels(self) -> list[int]:
        """The divisor-closed index set generated by the universe."""
        out = [1]
        for p in self.universe:
            out += [n * p for n in out]
        return sorted(out)

    def plus(self, n: int) -> tuple[int, ...]:
        """The split primes dividing n."""
        return tuple(p for p in self.split if n % p == 0)

    def split_part(self, n: int) -> int:
        return prod(self.plus(n))

    def r_of(self, n: int) -> int:
        return len(self.plus(n))

    def loc(self, x: ClassTensor, ell: int) -> tuple[ClassTensor, ClassTensor]:
        """The (finite, transverse) components of x at the split prime ell."""
        raise NotImplementedError

    def fs(self, fin: ClassTensor, ell: int, at_level: int) -> ClassTensor:
        """The finite-singular image of a finite part at ell, at a level ell divides."""
        raise NotImplementedError


@dataclass
class SyntheticLocalModel(LocalModel):
    """A synthetic stand-in for the global minus-part coefficient module.

    moduli: the cyclic factors of A.
    split: split primes of the universe; inert: the rest.
    cols[l]: a 2-column integer matrix of multipliers A -> Z/(l-1) x Z/(l-1)
             giving the finite and transverse components at l.
    fs_unit[l]: the unit mod l-1 implementing the finite-singular map.

    `loc` keeps the matrix of cols[l], transposed, per l.
    """

    moduli: tuple[int, ...]
    split: tuple[int, ...]
    inert: tuple[int, ...]
    cols: dict[int, list[tuple[int, int]]]
    fs_unit: dict[int, int]
    seed: int | None = None
    _loc_matrices: dict[int, np.ndarray] = field(default_factory=dict, init=False,
                                                 repr=False, compare=False)

    def loc(self, x: ClassTensor, ell: int) -> tuple[ClassTensor, ClassTensor]:
        if ell not in self._loc_matrices:
            self._loc_matrices[ell] = np.array(self.cols[ell], dtype=np.int64).T
        fin, tr = self._loc_matrices[ell] @ x.rows
        return (ClassTensor(x.quot, (ell - 1,), fin),
                ClassTensor(x.quot, (ell - 1,), tr))

    def fs(self, fin: ClassTensor, ell: int, at_level: int) -> ClassTensor:
        sigma = aug_quot(at_level, 1).group_class(gamma(at_level).gens[ell])
        return (self.fs_unit[ell] * fin).embed(at_level).mult_class(sigma)


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
    cols = {}
    fs_unit = {}
    for p in split:
        i = index[p]
        col = [(0, 0)] * len(moduli)
        col[i] = (_rand_unit(rng, p - 1), 0)
        col[i + 1] = (0, _rand_unit(rng, p - 1))
        cols[p] = col
        fs_unit[p] = _rand_unit(rng, p - 1)
    return SyntheticLocalModel(tuple(moduli), tuple(split), tuple(inert),
                               cols, fs_unit, seed)


def cyclic_model(split: tuple[int, ...], inert: tuple[int, ...] = (),
                 seed: int = 0, two_generators: bool = False) -> SyntheticLocalModel:
    """A = Z/M (or a random two-generator group), random localisation maps."""
    rng = random.Random(("cyclic", split, inert, seed, two_generators).__repr__())
    M = lcm(*[p - 1 for p in split]) if split else 2
    moduli = (M, M * rng.choice([1, 2, 3])) if two_generators else (M,)
    cols = {}
    fs_unit = {}
    for p in split:
        col = []
        for Mj in moduli:
            # homomorphisms Z/Mj -> Z/(p-1): multiplication by a multiple of
            # (p-1)/gcd(p-1, Mj)
            step = (p - 1) // gcd(p - 1, Mj)
            col.append((step * rng.randrange(0, gcd(p - 1, Mj)),
                        step * rng.randrange(0, gcd(p - 1, Mj))))
        cols[p] = col
        fs_unit[p] = _rand_unit(rng, p - 1)
    return SyntheticLocalModel(moduli, tuple(split), tuple(inert), cols, fs_unit, seed)


class SynElt(ClassTensor):
    """An element of A (x) I_n^r/I_n^{r+1}: one row per cyclic factor of A.

    parts, one per cyclic factor, are its classes (one-row `ClassTensor`s,
    whose rows it takes), or a matrix of coordinate rows; None gives 0.
    """

    __slots__ = ()

    def __init__(self, model: SyntheticLocalModel, quot, parts=None):
        super().__init__(quot, model.moduli, None if parts is None else
                         [c.rows[0] if isinstance(c, ClassTensor) else c for c in parts])


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
        gen = quot.splitting(model.plus(n))["new_gen"]
        g_ord = gen.order() or 17  # degree-0 classes are free; any range works
        gen = gen.rows[0]
        rows = np.zeros((len(model.moduli), len(gen)), dtype=np.int64)
        for p in model.split:
            i = index[p]
            if n % p == 0:
                # finite component vanishes; transverse matches fs of the
                # previous level
                target = model.fs(model.loc(out[n // p], p)[0], p, n)
                rows[i + 1] = pow(model.cols[p][i + 1][1], -1, p - 1) * target.rows[0]
            else:
                rows[i] = rng.randrange(g_ord) * gen
        if len(model.moduli) > 2 * len(model.split):
            rows[-1] = rng.randrange(g_ord) * gen
        out[n] = SynElt(model, quot, rows)
    # extend over inert primes: values depend only on the split part
    for n in model.levels():
        if n not in out:
            base = out[model.split_part(n)]
            out[n] = base.embed(n)
    return out


# ---------------------------------------------------------------------------
# axiom checkers


class _Locs(dict):
    """model.loc(coll[k], ell) by (k, ell), each computed when first read,
    and `fin_new(k, ell)`, kept the same way.

    It lives for one check: the axioms at every (n, ell) above k read the
    same localisation of coll[k], and its projection onto the new component.
    """

    def __init__(self, coll: dict[int, ClassTensor], model: LocalModel):
        self.coll, self.model = coll, model
        self._fin_new: dict[tuple[int, int], ClassTensor] = {}

    def __missing__(self, key: tuple[int, int]) -> tuple[ClassTensor, ClassTensor]:
        k, ell = key
        self[key] = out = self.model.loc(self.coll[k], ell)
        return out

    def fin_new(self, k: int, ell: int) -> ClassTensor:
        """The new-component projection of the finite part of coll[k] at ell."""
        if (k, ell) not in self._fin_new:
            self._fin_new[k, ell] = self[k, ell][0].proj_new(self.model.plus(k))
        return self._fin_new[k, ell]


def check_ks(coll: dict[int, ClassTensor], model: LocalModel) -> dict:
    """Per-axiom, per-(n, ell) verdicts for the Kolyvagin-system axioms."""
    failures = []
    locs = _Locs(coll, model)
    for n, x in coll.items():
        for ell in model.split:
            fin, tr = locs[n, ell]
            if n % ell:
                if not tr.is_zero():
                    failures.append(("i", n, ell))
            else:
                want = model.fs(locs[n // ell, ell][0], ell, n)
                if not fin.is_zero():
                    failures.append(("ii-finite", n, ell))
                if tr != want:
                    failures.append(("ii", n, ell))
        for ell in model.inert:
            if n % ell == 0:
                if x != coll[n // ell].embed(n):
                    failures.append(("iii", n, ell))
    return {"ok": not failures, "failures": failures}


def check_preks(coll: dict[int, ClassTensor], model: LocalModel,
                use_primed_iv: bool = False) -> dict:
    """Verdicts for the pre-Kolyvagin-system axioms ((iv) or its primed form)."""
    locs = _Locs(coll, model)
    failures = [(axiom, n, ell) for n in coll for ell in model.split + model.inert
                for axiom in preks_axioms(model, n, ell, use_primed_iv)
                if not preks_holds(coll, model, axiom, n, ell, locs)]
    return {"ok": not failures, "failures": failures}


def preks_axioms(model: LocalModel, n: int, ell: int,
                 use_primed_iv: bool = False) -> list[str]:
    """The pre-Kolyvagin-system axioms that apply at (n, ell).

    At a split ell: (i) if ell does not divide n, else (ii), (iii) and (iv)
    (or (iv)', labelled "iv'").  At an inert ell dividing n: (v).
    """
    if ell in model.inert:
        return [] if n % ell else ["v"]
    if n % ell:
        return ["i"]
    return ["ii", "iii", "iv'" if use_primed_iv else "iv"]


def preks_holds(coll: dict[int, ClassTensor], model: LocalModel, axiom: str,
                n: int, ell: int, locs: _Locs | None = None) -> bool:
    """Whether one axiom of `preks_axioms(model, n, ell)` holds for coll.

    coll is read only at the levels the axiom compares, and model's local
    data only for (i), (iii) and (iv).  locs, when given, holds the
    localisations of coll that an earlier call of the same check made.
    """
    m = n // ell
    if axiom == "ii":
        return coll[n].pi(m) == coll[m].embed(n).mult_class(-gr.frob_class(n, m, ell))
    if locs is None:
        locs = _Locs(coll, model)
    if axiom == "i":
        return locs[n, ell][1].is_zero()
    plus = model.plus(n)
    if axiom == "v":
        return coll[n].proj_new(plus) == coll[m].proj_new(plus).embed(n)
    if axiom not in ("iii", "iv", "iv'"):
        raise ValueError(f"unknown axiom {axiom!r}")
    fin, tr = locs[n, ell]
    if axiom == "iii":
        return tr.proj_new(plus) == model.fs(locs.fin_new(m, ell), ell, n)
    if axiom == "iv":
        return _det_sum(n, model.split_part(n),
                        lambda k: locs.fin_new(k, ell).embed(n)).is_zero()
    acc = ClassTensor(aug_quot(n, model.r_of(n)), (ell - 1,))
    for d_sigma, sign, pi_cls in gr.cycles_through(n, plus, ell):
        acc = acc - sign * locs.fin_new(n // d_sigma, ell).embed(n).mult_class(pi_cls)
    return fin.proj_new(plus) == acc


def _det_sum(n: int, n_plus: int, value) -> ClassTensor:
    """Sum over d | n_plus of value(n/d) times D_{d,d} embedded at level n.

    value(k) gives the level-k term already embedded at level n.
    """
    total = value(n)
    for dd in nt.divisors(n_plus)[1:]:
        total = total + value(n // dd).mult_class(gr.embed_class(gr.d_det(dd, dd)[1], n))
    return total


# ---------------------------------------------------------------------------
# the transform and its inverse


def transform(pre: dict[int, ClassTensor], model: LocalModel) -> dict[int, ClassTensor]:
    """kappa~_n = sum over d | n_+ of kappa_{n/d} D_{n,d}.

    Raises ArithmeticError if an output leaves the new component.
    """
    out = {}
    for n, total in pre.items():
        for dd in nt.divisors(model.split_part(n))[1:]:
            total = total + pre[n // dd].embed(n).mult_class(gr.d_det(n, dd)[1])
        for p in model.plus(n):
            if not total.pi(n // p).is_zero():
                raise ArithmeticError(
                    f"transform output escapes the new component at n={n}, "
                    f"witness pi_{n // p}")
        out[n] = total
    return out


def inverse_transform(ks: dict[int, ClassTensor],
                      model: LocalModel) -> dict[int, ClassTensor]:
    """The unique collection with sum over d of kappa_{n/d} D_{n,d} = kappa~_n."""
    out: dict[int, ClassTensor] = {}
    for n in sorted(ks):
        acc = ks[n]
        for dd in nt.divisors(model.split_part(n))[1:]:
            acc = acc - out[n // dd].embed(n).mult_class(gr.d_det(n, dd)[1])
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
        acc = SynElt(model, aug_quot(n, model.r_of(n)))
        for d_sigma, sign, pi_cls in gr.cycles_through(n, model.plus(n), ell):
            acc = acc - sign * out[n // d_sigma].embed(n).mult_class(pi_cls)
        out[n] = acc
    return out


def lemma58_sum_check(coll: dict[int, SynElt], model: SyntheticLocalModel,
                      ell: int) -> bool:
    """Check sum over d | n_+ of x_{n/d} D_d = 0 for every n divisible by ell."""
    for n in model.levels():
        if n % ell:
            continue
        total = _det_sum(n, model.split_part(n), lambda k: coll[k].embed(n))
        if not total.is_zero():
            return False
    return True
