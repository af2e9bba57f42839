"""CLI dispatch, exit codes, and JSON schema."""

import io
import json
from contextlib import redirect_stdout

import pytest

from darmoncheck.cli import (EXIT_FAIL, EXIT_PASS, EXIT_USAGE, EXIT_VACUOUS,
                             main)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


def test_verify_base_case():
    code, out = run(["verify", "--disc", "5", "--level", "1", "--primes", "3"])
    assert code == EXIT_PASS and out["verdict"] == "pass"
    assert out["schema"] == 1


def test_verify_level_conductor_clash():
    code, _ = run(["verify", "--disc", "5", "--level", "15"])
    assert code == EXIT_USAGE


def test_verify_nonsquarefree_level():
    code, _ = run(["verify", "--disc", "5", "--level", "44"])
    assert code == EXIT_USAGE


def test_verify_level_11():
    code, out = run(["verify", "--disc", "5", "--level", "11", "--primes", "3"])
    assert code == EXIT_PASS and out["verdict"] == "pass"
    assert out["r"] == 1 and out["s"] == 0 and out["h_n"] == 1
    assert len(out["primes"]) == 3


def test_verify_honours_bound():
    # the first auxiliary prime for (5, 11) is far above 20
    for command in ("verify", "theta"):
        code, _ = run([command, "--disc", "5", "--level", "11", "--bound", "20"])
        assert code == EXIT_VACUOUS, command


def test_axiom_honours_bound():
    code, _ = run(["verify", "--disc", "5", "--level", "11", "--axiom", "ii",
                   "--system", "theta", "--ell", "11", "--bound", "20"])
    assert code == EXIT_VACUOUS


def test_unread_flags_rejected():
    code, _ = run(["regulator", "--disc", "5", "--level", "11", "--bound", "20"])
    assert code == EXIT_USAGE
    for flag in (["--level", "7"], ["--primes", "2"]):
        code, _ = run(["field", "--disc", "10"] + flag)
        assert code == EXIT_USAGE, flag


def test_augq_examples():
    code, out = run(["augq", "--level", "209", "--degree", "2"])
    assert code == EXIT_PASS
    assert out["newOrder"] == 2
    assert out["invariants"] == [2, 2, 90]
    code, out = run(["augq", "--level", "11"])
    assert out["order"] == 10
    code, _ = run(["augq", "--level", "44"])
    assert code == EXIT_USAGE


def test_field_command():
    code, out = run(["field", "--disc", "10"])
    assert code == EXIT_PASS
    assert out["h"] == 2 and out["h_plus"] == 2
    assert out["fundamental_unit"]["norm"] == -1


def test_axiom_subcommand():
    code, out = run(["verify", "--disc", "5", "--level", "11", "--primes", "3",
                     "--axiom", "ii", "--system", "regulator", "--ell", "11"])
    assert code == EXIT_PASS and out["verdict"] == "pass"
    code, out = run(["verify", "--disc", "5", "--level", "11", "--primes", "3",
                     "--axiom", "iii", "--system", "theta", "--ell", "11"])
    assert code == EXIT_VACUOUS and out["verdict"] == "unsupported"
    code, _ = run(["verify", "--disc", "5", "--level", "11", "--axiom", "ii"])
    assert code == EXIT_USAGE


def test_theta_and_beta_commands():
    code, out = run(["theta", "--disc", "5", "--level", "11", "--primes", "2"])
    assert code == EXIT_PASS and out["r"] == 1
    assert len(out["alpha_fingerprint"]) == 16
    code, out = run(["beta", "--disc", "5", "--level", "33", "--primes", "2"])
    assert code == EXIT_PASS and out["n_plus"] == 11


def test_axioms_synthetic():
    code, out = run(["axioms", "--synthetic", "--trials", "3", "--seed", "0"])
    assert code == EXIT_PASS
    assert out["passed"] == 3 and out["failed"] == 0


def test_deterministic_output():
    c1, o1 = run(["augq", "--level", "35", "--degree", "2"])
    c2, o2 = run(["augq", "--level", "35", "--degree", "2"])
    assert (c1, o1) == (c2, o2)


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    code, _ = run(["field", "--disc", "5", "--cache", path])
    assert code == EXIT_PASS
    import os
    assert os.path.exists(path)
    code, _ = run(["verify", "--disc", "5", "--level", "1", "--primes", "2",
                   "--cache", path])
    assert code == EXIT_PASS
