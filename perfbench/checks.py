"""Correctness checks of each operation's output.

Every check compares against a value computed apart from the library (with
sympy) or against a property the method must have.  None compares against a
stored copy of earlier output.  A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

from math import gcd

import sympy
from sympy.functions.combinatorial.numbers import kronecker_symbol

from darmoncheck import darmon, quadfield as qf


def _disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def _split_counts(d: int, n: int) -> tuple[int, int]:
    """(r, s): primes of n with Kronecker symbol (D/p) = 1, and the others."""
    syms = [kronecker_symbol(_disc(d), p) for p in sympy.primefactors(n)]
    r = sum(1 for k in syms if k == 1)
    return r, len(syms) - r


def check_verify(args, rep) -> list[str]:
    d, n = args
    problems = []
    if rep.verdict not in ("pass", "vacuous"):
        problems.append(f"verdict {rep.verdict}")
    r, s = _split_counts(d, n)
    if (rep.r, rep.s) != (r, s):
        problems.append(f"(r, s) = {(rep.r, rep.s)}, Kronecker symbols give {(r, s)}")
    if r == 1:
        # I_n/I_n^2 is Gamma_n, whose odd part is trivial exactly when
        # phi(n) is a power of 2
        phi = int(sympy.totient(n))
        if (rep.verdict == "vacuous") != (phi & (phi - 1) == 0):
            problems.append(f"verdict {rep.verdict} with phi(n) = {phi}")
    nf = n * _disc(d)
    if not rep.primes:
        problems.append("no auxiliary primes")
    for pr in rep.primes:
        if not sympy.isprime(pr.q) or pr.q % nf != 1:
            problems.append(f"auxiliary prime {pr.q} is not a prime = 1 mod {nf}")
    return problems


def check_preks(args, rep) -> list[str]:
    d, n, ell = args
    problems = []
    if n % ell or kronecker_symbol(_disc(d), ell) != 1:
        problems.append(f"input error: {ell} is not a split prime dividing {n}")
    if rep["verdict"] != "pass":
        problems.append(f"theta axiom (ii) verdict {rep['verdict']}")
    return problems


def check_det(args, out) -> list[str]:
    (n,) = args
    problems = []
    for part in out["parts"]:
        d = part["d"]
        if part["projected"] != part["embedded"]:
            problems.append(f"pi_{d}(D_(n,{d})) differs from the embedded D_{d}")
        if not part["new"]:
            problems.append(f"D_{d} is not in the new component")
        if part["expansion"] != part["projected"]:
            problems.append(f"derangement expansion differs from pi_{d}(D_(n,{d}))")
    g = 0
    for p in sympy.primefactors(n):
        g = gcd(g, p - 1)
    if not (out["new_order"] == g or (g == 1 and out["new_zero"])):
        problems.append(f"new component has order {out['new_order']}, want {g}")
    if out["gamma_order"] != sympy.totient(n):
        problems.append(f"|I/I^2| = {out['gamma_order']}, phi(n) = {sympy.totient(n)}")
    return problems


def check_trial(args, out) -> list[str]:
    problems = []
    if not out["ks"]["ok"]:
        problems.append(f"random_ks fails check_ks: {out['ks']['failures'][:3]}")
    if not out["preks"]["ok"]:
        problems.append("inverse transform fails check_preks (iv)")
    if not out["preks_primed"]["ok"]:
        problems.append("inverse transform fails check_preks (iv)'")
    kappa, back = out["kappa"], out["back"]
    bad_levels = [n for n in kappa if not back[n] == kappa[n]]
    if bad_levels:
        problems.append(f"transform(inverse_transform(kappa)) differs at {bad_levels}")
    if not out["pre"][1] == kappa[1]:
        problems.append("the transform moves level 1")
    level = out["bad_level"]
    if out["bad"]["ok"] or not any(f[1] == level for f in out["bad"]["failures"]):
        problems.append(f"perturbation at level {level} not flagged")
    return problems


CHECKS = {"verify": check_verify, "preks": check_preks, "det": check_det,
          "trial": check_trial}


def check(op, result) -> list[str]:
    return CHECKS[op.kind](op.args, result)


def check_base_cases(fields) -> list[str]:
    """verify_base_case for every field of the sweep, run once after timing."""
    return [f"base case fails for d = {d}" for d in sorted(fields)
            if not darmon.verify_base_case(qf.make_field(d))[0]]
