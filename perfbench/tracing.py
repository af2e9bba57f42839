"""Span tracing of the library's public functions, installed from outside.

`Tracer.install` replaces each traced function by a wrapper in every
`darmoncheck` module namespace that binds it, and each traced method on its
class.  A wrapper records one span (name, start, end, parent) and adds the
span's self time (its duration minus the time of its child spans) to a
per-name total.  Spans stay in memory in flat arrays and are written out by
`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, attribute path); "Class.method" names a method.
TRACED = [
    ("darmon.verify_darmon", "darmon", "verify_darmon"),
    ("darmon.dlog", "darmon", "ReductionHom.dlog"),
    ("darmon.alpha_value", "darmon", "ReductionHom.alpha_value"),
    ("darmon.theta_class", "darmon", "theta_class"),
    ("darmon.regulator", "darmon", "regulator"),
    ("darmon.make_reduction_hom", "darmon", "make_reduction_hom"),
    ("darmon.find_aux_primes", "darmon", "find_aux_primes"),
    ("darmon.verify_preks_axiom", "darmon", "verify_preks_axiom"),
    ("cyclo.alpha_exponents", "cyclo", "alpha_exponents"),
    ("cyclo.norm_relation_check", "cyclo", "norm_relation_check"),
    ("quadfield.class_group", "quadfield", "class_group"),
    ("quadfield.unit_basis", "quadfield", "unit_basis"),
    ("quadfield.h_n", "quadfield", "h_n"),
    ("groupring.aug_quot", "groupring", "aug_quot"),
    ("groupring.aug_quot.build", "groupring", "AugQuot.__init__"),
    ("groupring.class_of", "groupring", "AugQuot.class_of"),
    ("groupring.mult_classes", "groupring", "mult_classes"),
    ("groupring.embed_class", "groupring", "embed_class"),
    ("groupring.splitting", "groupring", "AugQuot.splitting"),
    ("groupring.d_det", "groupring", "d_det"),
    ("intmat.hnf_mod", "intmat", "hnf_mod"),
    ("intmat.snf_mod", "intmat", "snf_mod"),
    ("intmat.hnf_solve_mod", "intmat", "hnf_solve_mod"),
    ("intmat.hnf_solve", "intmat", "hnf_solve"),
    ("kolysys.random_ks", "kolysys", "random_ks"),
    ("kolysys.inverse_transform", "kolysys", "inverse_transform"),
    ("kolysys.transform", "kolysys", "transform"),
    ("kolysys.check_ks", "kolysys", "check_ks"),
    ("kolysys.check_preks", "kolysys", "check_preks"),
]

# exact big-integer solves get their own span name
EXACT_SOLVE = "intmat.exact_solve"

# The per-layer metrics of BENCHMARK.json: metric name -> (span name, field).
# Fields "calls" and "self_s" read the span totals; the aug_quot cache
# figures are filled in by the caller from `aug_quot.cache_info()`.
PER_LAYER = {
    "darmon.verify_darmon.calls": ("darmon.verify_darmon", "calls"),
    "darmon.dlog.calls": ("darmon.dlog", "calls"),
    "darmon.dlog.self_s": ("darmon.dlog", "self_s"),
    "darmon.alpha_value.self_s": ("darmon.alpha_value", "self_s"),
    "darmon.theta_class.self_s": ("darmon.theta_class", "self_s"),
    "darmon.regulator.self_s": ("darmon.regulator", "self_s"),
    "darmon.make_reduction_hom.self_s": ("darmon.make_reduction_hom", "self_s"),
    "darmon.find_aux_primes.self_s": ("darmon.find_aux_primes", "self_s"),
    "darmon.verify_preks_axiom.self_s": ("darmon.verify_preks_axiom", "self_s"),
    "cyclo.alpha_exponents.calls": ("cyclo.alpha_exponents", "calls"),
    "cyclo.alpha_exponents.self_s": ("cyclo.alpha_exponents", "self_s"),
    "cyclo.norm_relation_check.self_s": ("cyclo.norm_relation_check", "self_s"),
    "quadfield.class_group.self_s": ("quadfield.class_group", "self_s"),
    "quadfield.unit_basis.self_s": ("quadfield.unit_basis", "self_s"),
    "quadfield.h_n.self_s": ("quadfield.h_n", "self_s"),
    "groupring.aug_quot.builds": (None, "builds"),
    "groupring.aug_quot.hit_ratio": (None, "hit_ratio"),
    "groupring.aug_quot.build_s": ("groupring.aug_quot.build", "self_s"),
    "groupring.class_of.calls": ("groupring.class_of", "calls"),
    "groupring.class_of.self_s": ("groupring.class_of", "self_s"),
    "groupring.mult_classes.self_s": ("groupring.mult_classes", "self_s"),
    "groupring.embed_class.self_s": ("groupring.embed_class", "self_s"),
    "groupring.splitting.self_s": ("groupring.splitting", "self_s"),
    "groupring.d_det.calls": ("groupring.d_det", "calls"),
    "groupring.d_det.self_s": ("groupring.d_det", "self_s"),
    "intmat.hnf_mod.calls": ("intmat.hnf_mod", "calls"),
    "intmat.hnf_mod.self_s": ("intmat.hnf_mod", "self_s"),
    "intmat.snf_mod.self_s": ("intmat.snf_mod", "self_s"),
    "intmat.hnf_solve_mod.self_s": ("intmat.hnf_solve_mod", "self_s"),
    "intmat.exact_solves": (EXACT_SOLVE, "calls"),
    "intmat.exact_solve_s": (EXACT_SOLVE, "self_s"),
    "kolysys.random_ks.self_s": ("kolysys.random_ks", "self_s"),
    "kolysys.inverse_transform.self_s": ("kolysys.inverse_transform", "self_s"),
    "kolysys.transform.self_s": ("kolysys.transform", "self_s"),
    "kolysys.check_ks.self_s": ("kolysys.check_ks", "self_s"),
    "kolysys.check_preks.self_s": ("kolysys.check_preks", "self_s"),
}

# At about 24 bytes a span, this keeps the span buffer under ~100 MB; past
# it spans are no longer kept, but counts and self times still are.
MAX_SPANS = 4_000_000


class Tracer:
    """Wrappers, span buffer and per-name totals for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # one [span index, child time, start] frame per open span
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        idx = len(self.span_start)
        start = time.perf_counter()
        if idx < MAX_SPANS:
            self.span_name.append(self._name_id(name))
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0, start]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if frame[0] >= 0:
            self.span_end[frame[0]] = end

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame)

        return traced

    def _wrap_hnf_solve(self, fn):
        enter, leave = self._enter, self._exit

        def traced(H, v, as_python=False):
            name = EXACT_SOLVE if as_python else "intmat.hnf_solve"
            frame = enter(name)
            try:
                return fn(H, v, as_python=as_python)
            finally:
                leave(name, frame)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a `darmoncheck` module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "darmoncheck" or key.startswith("darmoncheck.")]
        for name, modname, attr in TRACED:
            owner = sys.modules[f"darmoncheck.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[meth]
                self._set(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = (self._wrap_hnf_solve(orig) if name == "intmat.hnf_solve"
                       else self.wrap(name, orig))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        return {name: (self.calls[name], self.self_s[name]) for name in self.calls}

    def dump(self, path) -> None:
        """Write the spans as a NumPy archive: names, and one row per span."""
        np.savez(path, names=np.array(self.names), dropped=self.dropped,
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))
