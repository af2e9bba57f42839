"""CLI dispatch, exit codes, and JSON schema."""

import io
import json
from contextlib import redirect_stdout

import pytest

from darmoncheck import darmon, groupring as gr, nt, quadfield as qf
from darmoncheck.cli import (EXIT_INTERNAL, EXIT_PASS, EXIT_RESOURCE, EXIT_USAGE,
                             EXIT_VACUOUS, main)


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


def test_verify_rank_three_even_level():
    # auxiliary primes q = 1 mod lcm(nf, precision) exist below the default
    # bound at this r = 3 level where 2 splits
    code, out = run(["verify", "--disc", "73", "--level", "114"])
    assert code == EXIT_PASS and out["verdict"] == "pass" and out["r"] == 3


def test_verify_rank_three_level_past_the_two_part():
    # q = 1 mod the odd modulus L = 13,408,494 exists below the default bound
    code, out = run(["verify", "--disc", "73", "--level", "138"])
    assert code == EXIT_PASS and out["verdict"] == "pass" and out["r"] == 3


def test_verify_resource_limit_at_large_odd_modulus(capsys):
    # the odd L is 1.9e11 and 7.9e8 here: no auxiliary prime, or too few,
    # below the default bound 10^9
    for disc, level in (("5", "6061"), ("2", "2737")):
        code, out = run(["verify", "--disc", disc, "--level", level])
        assert code == EXIT_RESOURCE and out is None, level
        assert "resource limit" in capsys.readouterr().err, level


def test_verify_even_level_where_two_splits():
    # 2 splits in Q(sqrt(17)); the form of the prime above 2 used to fail
    code, out = run(["verify", "--disc", "17", "--level", "26"])
    assert code == EXIT_PASS and out["verdict"] == "pass"


def test_verify_honours_bound():
    # the first auxiliary prime for (5, 11) is far above 20
    for command in ("verify", "theta"):
        code, _ = run([command, "--disc", "5", "--level", "11", "--bound", "20"])
        assert code == EXIT_RESOURCE, command


def test_nonpositive_bound_is_a_usage_error(capsys):
    # no auxiliary prime lies below a bound < 1: the flag is wrong, not the
    # search
    for command in ("verify", "theta", "beta"):
        for bound in ("-5", "0"):
            code, out = run([command, "--disc", "5", "--level", "11", "--bound", bound])
            assert code == EXIT_USAGE and out is None, (command, bound)
    assert "resource limit" not in capsys.readouterr().err


def test_axiom_honours_bound():
    code, _ = run(["verify", "--disc", "5", "--level", "11", "--axiom", "ii",
                   "--system", "theta", "--ell", "11", "--bound", "20"])
    assert code == EXIT_RESOURCE


def test_exit_codes_name_the_fault(monkeypatch, capsys):
    for argv in (["field", "--disc", "12"],
                 ["verify", "--disc", "5", "--level", "11", "--primes", "0"],
                 ["verify", "--disc", "5", "--level", "11", "--axiom", "ii",
                  "--system", "regulator", "--ell", "3"],
                 ["verify", "--disc", "5", "--level", "11", "--axiom", "i",
                  "--system", "theta", "--ell", "4"]):
        code, _ = run(argv)
        assert code == EXIT_USAGE, argv

    def broken(*args, **kwargs):
        raise ValueError("library fault")

    monkeypatch.setattr(darmon, "verify_darmon", broken)
    code, _ = run(["verify", "--disc", "5", "--level", "11"])
    assert code == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_misplaced_ell_is_one_rule(capsys):
    # the library raises before any check runs, and the CLI reports the same
    # message as a usage error
    for axiom, ell in (("ii", 3), ("i", 11), ("i", 4)):
        with pytest.raises(ValueError) as exc:
            darmon.verify_preks_axiom(qf.make_field(5), "regulator", axiom, 11, ell)
        code, _ = run(["verify", "--disc", "5", "--level", "11", "--axiom", axiom,
                       "--system", "regulator", "--ell", str(ell)])
        assert code == EXIT_USAGE
        assert f"usage error: {exc.value}" in capsys.readouterr().err


def test_all_bad_primes_exit_inconclusive(monkeypatch):
    def rejecting(F, n, q):
        raise nt.BadAuxiliaryPrime(f"Gauss sum check failed at q={q}")

    monkeypatch.setattr(darmon, "make_reduction_hom", rejecting)
    code, out = run(["verify", "--disc", "5", "--level", "11", "--primes", "2"])
    assert code == EXIT_VACUOUS and out["verdict"] == "inconclusive"
    assert [p["verdict"] for p in out["primes"]] == ["bad-prime", "bad-prime"]


def test_unread_flags_rejected():
    code, _ = run(["regulator", "--disc", "5", "--level", "11", "--bound", "20"])
    assert code == EXIT_USAGE
    for flag in (["--level", "7"], ["--primes", "2"]):
        code, _ = run(["field", "--disc", "10"] + flag)
        assert code == EXIT_USAGE, flag


def test_augq_examples(capsys):
    code, out = run(["augq", "--level", "209", "--degree", "2"])
    assert code == EXIT_PASS
    assert out["newOrder"] == 2
    assert out["invariants"] == [2, 2, 90]
    code, out = run(["augq", "--level", "11"])
    assert out["order"] == 10
    for argv in (["--level", "44"], ["--level", "11", "--degree", "-1"],
                 ["--level", "-6"]):
        code, _ = run(["augq"] + argv)
        assert code == EXIT_USAGE, argv
    # -6 is rejected for its sign, and the message says so
    assert "level -6 must be a squarefree positive integer" in capsys.readouterr().err


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
    # at ell = 2 split (d = 1 mod 8) the unit residue lives in F_2
    for axiom in ("iii", "iv"):
        code, out = run(["verify", "--disc", "17", "--level", "26", "--axiom", axiom,
                         "--system", "regulator", "--ell", "2"])
        assert code == EXIT_PASS and out["verdict"] == "pass", axiom


def test_theta_and_beta_commands():
    code, out = run(["theta", "--disc", "5", "--level", "11", "--primes", "2"])
    assert code == EXIT_PASS and out["r"] == 1
    assert len(out["alpha_fingerprint"]) == 16
    code, out = run(["beta", "--disc", "5", "--level", "33", "--primes", "2"])
    assert code == EXIT_PASS and out["n_plus"] == 11
    # --primes is honoured above 3
    code, out = run(["theta", "--disc", "5", "--level", "11", "--primes", "5"])
    assert code == EXIT_PASS and len(out["reductions"]) == 5
    code, out = run(["beta", "--disc", "5", "--level", "11", "--primes", "5"])
    assert code == EXIT_PASS and len(out["values"]) == 5
    # each reduction names its target Z/M: at r = 1 the odd part of the
    # precision of I_11/I_11^2, e_2 * e_5 = 10, and beta lies in it
    assert gr.aug_quot(11, 1).precision == 10
    for v in out["values"]:
        M = v["modulus"]
        assert M == 5
        assert 0 <= v["value"] < M
    code, out = run(["theta", "--disc", "5", "--level", "11", "--primes", "2"])
    assert all(x["modulus"] == 5 for x in out["reductions"])
    # at r = 0 the target is the odd part of Z/(q - 1)
    code, out = run(["theta", "--disc", "5", "--level", "3", "--primes", "2"])
    assert code == EXIT_PASS and out["r"] == 0
    assert [x["modulus"] for x in out["reductions"]] == [
        (x["q"] - 1) >> nt.valuation(x["q"] - 1, 2) for x in out["reductions"]]


# (q, modulus, class) of every reduction of `theta`, and (q, modulus, value)
# of `beta`, at the default five primes: the output of the per-prime loops
# that the row-wise reduction replaced
THETA_PINS = {
    (5, 11): ("8661c80d548f6b6a", 55, 1, 0, [
        (331, 5, [0, 3]), (661, 5, [0, 3]), (881, 5, [0, 4]), (991, 5, [0, 0]),
        (1321, 5, [0, 2])]),
    (5, 33): ("7970f904c1a335c8", 165, 1, 1, [
        (331, 5, [0, 0, 1]), (661, 5, [0, 0, 1]), (991, 5, [0, 0, 0]),
        (1321, 5, [0, 0, 4]), (2311, 5, [0, 0, 1])]),
    (17, 26): ("92d2245b891eb4bf", 442, 2, 0, [
        (15913, 9, [0, 2]), (19891, 9, [0, 2]), (23869, 9, [0, 1]), (27847, 9, [0, 2]),
        (35803, 9, [0, 1])]),
}
BETA_PINS = {
    (5, 11): (11, [1, 3], [(331, 5, 1), (661, 5, 1), (881, 5, 3), (991, 5, 0), (1321, 5, 4)]),
    (5, 33): (11, [1, 0, 3], [(331, 5, 1), (661, 5, 1), (991, 5, 0), (1321, 5, 4),
                              (2311, 5, 1)]),
    (17, 26): (26, [0, 0], [(15913, 9, 3), (19891, 9, 3), (23869, 9, 6), (27847, 9, 0),
                            (35803, 9, 6)]),
}


@pytest.mark.parametrize("d, n", sorted(THETA_PINS))
def test_theta_and_beta_output_is_pinned(d, n):
    code, out = run(["theta", "--disc", str(d), "--level", str(n)])
    assert code == EXIT_PASS
    assert (out["alpha_fingerprint"], out["alpha_modulus"], out["r"], out["s"],
            [(x["q"], x["modulus"], x["class"]) for x in out["reductions"]]) == THETA_PINS[d, n]
    code, out = run(["beta", "--disc", str(d), "--level", str(n)])
    assert code == EXIT_PASS
    assert (out["n_plus"], out["class"],
            [(x["q"], x["modulus"], x["value"]) for x in out["values"]]) == BETA_PINS[d, n]


# (r, h_n, invariants, [(unit, class)]) of `regulator`: the regulator
# coordinates that `darmon.del_lift` produces, at a level with two split
# primes, one where 2 splits, one in a field of class number 2 and one at r = 3
REGULATOR_PINS = {
    (5, 209): (2, 1, [2, 2, 90], [
        (("-3/2", "-1/2"), [0, 0, 0, 3, 3]), (("27/22", "7/22"), [0, 1, 1, 0, 2]),
        (("43/38", "9/38"), [0, 0, 0, 3, 0])]),
    (17, 26): (2, 1, [12], [(("-33", "-8"), [2, 1]), (("-21/13", "-4/13"), [0, 2])]),
    (10, 39): (2, 1, [2, 2, 12], [
        (("-11/9", "-2/9"), [0, 0, 0, 2]), (("59/39", "14/39"), [0, 0, 0, 2])]),
    (73, 138): (3, 1, [2, 2, 22], [
        (("-2281249", "-267000"), [0, 1, 1, 3]), (("-581/3", "-68/3"), [0, 1, 1, 0]),
        (("7177/23", "840/23"), [0, 0, 0, 9])]),
}


@pytest.mark.parametrize("d, n", sorted(REGULATOR_PINS))
def test_regulator_output_is_pinned(d, n):
    code, out = run(["regulator", "--disc", str(d), "--level", str(n)])
    assert code == EXIT_PASS
    assert (out["r"], out["h_n"], out["invariants"],
            [((t["unit"]["a"], t["unit"]["b"]), t["class"]) for t in out["terms"]]
            ) == REGULATOR_PINS[d, n]


def test_beta_where_two_splits():
    # Gamma_2 is trivial, so sigma_2 - 1 = 0 and the derivative class at a
    # level where 2 splits is zero
    code, out = run(["beta", "--disc", "17", "--level", "26", "--primes", "2"])
    assert code == EXIT_PASS and out["class"] == [0, 0]


def test_regulator_axiom_ii_in_a_field_of_class_number_two():
    code, out = run(["verify", "--disc", "10", "--level", "39", "--axiom", "ii",
                     "--system", "regulator", "--ell", "3"])
    assert code == EXIT_PASS and out["verdict"] == "pass"


def test_axioms_synthetic():
    code, out = run(["axioms", "--synthetic", "--trials", "3", "--seed", "0"])
    assert code == EXIT_PASS
    assert out["passed"] == 3 and out["failed"] == 0


def test_axioms_need_a_trial():
    # no trial is no evidence: a usage error, not "passed: 0"
    for trials in ("0", "-3"):
        code, out = run(["axioms", "--synthetic", "--trials", trials])
        assert code == EXIT_USAGE and out is None, trials


def test_deterministic_output():
    c1, o1 = run(["augq", "--level", "35", "--degree", "2"])
    c2, o2 = run(["augq", "--level", "35", "--degree", "2"])
    assert (c1, o1) == (c2, o2)
