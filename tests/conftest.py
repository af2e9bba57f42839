"""Fixtures shared by the test modules."""

import importlib.util
import itertools
import sys
from dataclasses import replace
from math import lcm
from pathlib import Path

import pytest

from darmoncheck import nt, quadfield as qf
from darmoncheck.darmon import make_reduction_hom
from darmoncheck.groupring import aug_quot

ROOT = Path(__file__).resolve().parent.parent


def _full_homs(F, n, count):
    """Reduction homs into all of Z/(q - 1) at the first count primes
    q = 1 mod lcm(nf, `AugQuot.precision`): there the theta side fixes its
    class in every Sylow component, 2 included, where the homs of
    `make_reduction_hom` keep only the odd part."""
    L = lcm(n * F.conductor, aug_quot(n, F.r_of(n)).precision)
    primes = (q for q in itertools.count(L + 1, L) if nt.is_prime(q))
    return [replace(make_reduction_hom(F, n, q), modulus=q - 1)
            for q in itertools.islice(primes, count)]


@pytest.fixture
def full_homs():
    return _full_homs


def _sign_at(F, basis, places):
    """`quadfield.regulator_sign` of the basis, with its valuations at the
    places taken by `local_parts`."""
    return qf.regulator_sign(F, basis, [[qf.local_parts(e, pl)[0] for e in basis]
                                        for pl in places])


@pytest.fixture
def sign_at():
    return _sign_at


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's perfbench/workloads.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
