"""Command-line front end: verification and computation entry points.

Exit codes: 0 pass, 1 fail, 2 vacuous, unsupported or inconclusive (every
auxiliary prime rejected), 3 resource limit reached, 64 usage error (bad
flags, field or level), 70 internal error (any other exception from the
library).  All structured output is JSON on stdout;
errors go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from math import gcd

from . import cyclo, darmon, groupring as gr, kolysys, nt, quadfield as qf
from .nt import ResourceLimitError

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_VACUOUS = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


class UsageError(ValueError):
    pass


def _field(args) -> qf.QuadField:
    try:
        return qf.make_field(args.disc)
    except ValueError as e:
        raise UsageError(f"--disc {args.disc}: {e}") from None


def _check_squarefree(n: int) -> None:
    if n < 1 or not nt.is_squarefree(n):
        raise UsageError(f"level {n} must be a squarefree positive integer")


def _check_level(F: qf.QuadField, n: int) -> None:
    _check_squarefree(n)
    if n > 1 and gcd(n, F.conductor) != 1:
        raise UsageError(f"level {n} shares a factor with the conductor {F.conductor}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def cmd_verify(args) -> int:
    F = _field(args)
    _check_level(F, args.level)
    if args.axiom or args.system:
        if not (args.axiom and args.system and args.ell):
            raise UsageError("--axiom requires --system and --ell")
        try:
            darmon.check_ell(F, args.system, args.axiom, args.level, args.ell)
        except ValueError as e:
            raise UsageError(str(e)) from None
        rep = darmon.verify_preks_axiom(F, args.system, args.axiom,
                                        args.level, args.ell,
                                        num_primes=args.primes, bound=args.bound)
        _emit(rep)
        return {"pass": EXIT_PASS, "fail": EXIT_FAIL,
                "unsupported": EXIT_VACUOUS}[rep["verdict"]]
    rep = darmon.verify_darmon(F, args.level, num_primes=args.primes,
                               bound=args.bound)
    _emit(rep.as_dict())
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "vacuous": EXIT_VACUOUS,
            "inconclusive": EXIT_VACUOUS}[rep.verdict]


def cmd_regulator(args) -> int:
    F = _field(args)
    _check_level(F, args.level)
    reg = darmon.regulator(F, args.level)
    terms = []
    for unit, cls in zip(reg.basis, reg.parts):
        if cls.is_zero():
            continue
        if unit.abs_cmp_one() < 0:  # printed as 1/unit, with the class negated
            unit, cls = 1 / unit, -cls
        terms.append({"unit": {"a": str(unit.a), "b": str(unit.b)},
                      "class": cls.rows[0].tolist()})
    _emit({
        "field": F.d,
        "level": args.level,
        "r": F.r_of(args.level),
        "h_n": qf.h_n(F, args.level),
        "invariants": gr.smith_chain(reg.quot.invariants) or [0],
        "terms": terms,
    })
    return EXIT_PASS


def cmd_theta(args) -> int:
    F = _field(args)
    _check_level(F, args.level)
    a = cyclo.alpha(F, args.level)
    fingerprint = hashlib.sha256(repr((a.m, a.num, a.den)).encode()).hexdigest()[:16]
    th = cyclo.theta_prime(F, args.level)
    hs = [darmon.make_reduction_hom(F, args.level, q)
          for q in darmon.find_aux_primes(F, args.level, args.primes, bound=args.bound)]
    images = [{"q": h.q, "modulus": h.modulus, "class": row}
              for h, row in zip(hs, darmon.theta_class(th, hs).rows.tolist())]
    _emit({
        "field": F.d,
        "level": args.level,
        "r": F.r_of(args.level),
        "s": F.s_of(args.level),
        "alpha_modulus": a.m,
        "alpha_fingerprint": fingerprint,
        "reductions": images,
    })
    return EXIT_PASS


def cmd_beta(args) -> int:
    F = _field(args)
    _check_level(F, args.level)
    n_plus = F.n_plus(args.level)
    cls = darmon.beta_class_at(F, args.level)
    th = cyclo.theta_prime(F, n_plus)
    hs = [darmon.make_reduction_hom(F, args.level, q)
          for q in darmon.find_aux_primes(F, args.level, args.primes, bound=args.bound)]
    values = [{"q": h.q, "modulus": h.modulus, "value": v}
              for h, v in zip(hs, darmon.beta_value(th, hs))]
    _emit({
        "field": F.d,
        "level": args.level,
        "n_plus": n_plus,
        "class": cls.rows[0].tolist(),
        "values": values,
    })
    return EXIT_PASS


def cmd_field(args) -> int:
    F = _field(args)
    eps = qf.fundamental_unit(F)
    cd = qf.class_group(F)
    _emit({
        "d": F.d,
        "disc": F.disc,
        "conductor": F.conductor,
        "h": cd.h,
        "h_plus": cd.h_plus,
        "fundamental_unit": {"a": str(eps.a), "b": str(eps.b),
                             "norm": int(eps.norm())},
        "splitting": {str(p): F.omega(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)},
    })
    return EXIT_PASS


def cmd_augq(args) -> int:
    n = args.level
    _check_squarefree(n)
    r = args.degree if args.degree is not None else len(nt.prime_factors(n))
    if r < 0:
        raise UsageError("degree must be nonnegative")
    quot = gr.aug_quot(n, r)
    out = {
        "level": n,
        "degree": r,
        "ambient_rank": quot.ambient_rank,
        "invariants": gr.smith_chain(quot.invariants) or ([0] if r == 0 else []),
        "order": quot.order,
    }
    if r == len(nt.prime_factors(n)) and r > 0:
        sp = quot.splitting(gr.gamma(n).primes)
        new_order = sp["new_gen"].order()
        out["newOrder"] = new_order
        out["oldOrder"] = quot.order // max(new_order, 1)
    _emit(out)
    return EXIT_PASS


def cmd_axioms(args) -> int:
    if not args.synthetic:
        raise UsageError("only --synthetic axiom suites are available")
    trials = args.trials
    seed = args.seed
    universes = [((5, 13), (3,)), ((5, 7), ()), ((7, 13), (11,)), ((5, 7, 13), ())]
    passed = failed = 0
    details = []
    for t in range(trials):
        split, inert = universes[t % len(universes)]
        model = kolysys.block_model(split, inert, seed=seed + t,
                                    extra_factor=12 if t % 2 else None)
        kappa = kolysys.random_ks(model, seed=seed + t)
        pre = kolysys.inverse_transform(kappa, model)
        ok = (kolysys.check_ks(kappa, model)["ok"]
              and kolysys.check_preks(pre, model)["ok"]
              and kolysys.check_preks(pre, model, use_primed_iv=True)["ok"]
              and all(kolysys.transform(pre, model)[n] == kappa[n] for n in kappa))
        passed += ok
        failed += not ok
        if not ok:
            details.append({"trial": t, "universe": [list(split), list(inert)]})
    _emit({"trials": trials, "passed": passed, "failed": failed,
           "failures": details, "seed": seed})
    return EXIT_PASS if failed == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="darmoncheck",
        description="Exact verification of Darmon's refined class number congruence",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # flag groups, each registered only on the subcommands that read it
    field_flags = argparse.ArgumentParser(add_help=False)
    field_flags.add_argument("--disc", type=int, required=True,
                             help="squarefree d > 1 defining Q(sqrt(d))")
    level_flags = argparse.ArgumentParser(add_help=False)
    level_flags.add_argument("--level", type=int, default=1)
    aux_flags = argparse.ArgumentParser(add_help=False)
    aux_flags.add_argument("--primes", type=_positive, default=5,
                           help="number of auxiliary primes")
    aux_flags.add_argument("--bound", type=_positive, default=10 ** 9,
                           help="search bound for auxiliary primes")
    with_aux = [field_flags, level_flags, aux_flags]

    p = sub.add_parser("verify", parents=with_aux,
                       help="verify the refined congruence or one axiom")
    p.add_argument("--axiom", choices=["i", "ii", "iii", "iv", "v"], default=None)
    p.add_argument("--system", choices=["theta", "regulator"], default=None)
    p.add_argument("--ell", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("regulator", parents=[field_flags, level_flags],
                       help="print the regulator element")
    p.set_defaults(func=cmd_regulator)

    p = sub.add_parser("theta", parents=with_aux,
                       help="print theta-element data and reductions")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("beta", parents=with_aux, help="print the derivative class data")
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("field", parents=[field_flags], help="print field invariants")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("augq", help="print augmentation quotient structure")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_augq)

    p = sub.add_parser("axioms", help="run synthetic axiom property suites")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--trials", type=_positive, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_axioms)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
