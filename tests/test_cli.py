"""Command-line interface: subcommands, JSON output, exit codes."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lmmt.cli import _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_betti(capsys):
    code, out = run(capsys, "betti", "0,0,12")
    assert code == 0 and "1" in out


def test_betti_json(capsys):
    code, out = run(capsys, "--json", "betti", "0,0,12")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 2, 2, 1]


def test_parse_round_trip(capsys):
    code, out = run(capsys, "--json", "parse", "0,12,2.13")
    assert code == 0
    assert json.loads(out)["algebra"]["dim"] == 3


def test_parse_with_param(capsys):
    code, out = run(capsys, "--json", "parse", "0,12,t.13", "--param", "t=2")
    assert code == 0


def test_parse_error_exit_code(capsys):
    assert main(["parse", "0,0,1$2"]) == 2


def test_jacobi_failure_exit_code(capsys):
    assert main(["betti", "0,12,13+23"]) == 1


# structure constants from Q(sqrt 2) and from Q(sqrt 3)
MIXED_FIELDS = ('{"dim":3,"brackets":[{"i":1,"j":2,"c":{"3":"sqrt(2)"}},'
                '{"i":1,"j":3,"c":{"2":"sqrt(3)"}}]}')
# a two-form with one coefficient from each of Q(sqrt 2) and Q(sqrt 3)
MIXED_FORM = '{"n":4,"degree":2,"terms":{"1,2":"sqrt(2)","3,4":"sqrt(3)"}}'
# a Q(sqrt 2) form for su3, whose structure constants lie in Q(sqrt 3)
SQRT2_FORM_ON_8 = '{"n":8,"degree":1,"terms":{"3":"sqrt(2)"}}'

# [e1, e2] given twice, as e3 and as 5 e3
DOUBLE_BRACKET = ('{"dim":3,"brackets":[{"i":1,"j":2,"c":{"3":"1"}},'
                  '{"i":1,"j":2,"c":{"3":"5"}}]}')

BAD_INPUT = [
    (["parse", "0,0,x"], 2),
    (["betti", "0,12,13+23"], 1),
    (["verify-34", "0,12,13+23"], 1),
    (["trivial", "0,0,12", "--degrees", "a"], 2),
    (["lie-kernel", "builtin:nosuch", "--degree", "2"], 2),
    (["kunneth", "0,0,12", "0,0,1$2"], 2),
    (["mm-solve", "0,0,12", "--degree", "0"], 2),
    (["orbit-check", "0,0,12", "--form", "g2"], 2),
    (["invariant-cohomology", "0,0,12", "--ideal", "9", "--degree", "1"], 2),
    (["hs-page", "0,0,12,13", "--ideal", "4"], 2),
    (["hs-page", "0,0,12", "--ideal", "1,2,3"], 2),
    (["search34", "--m", "2", "--eig-range", "1:2"], 2),
    (["stabilizer", "--form", "nosuch"], 2),
    (["stable", "--form", "{}"], 2),
    (["nondeg", "--form", "psu3", "--field", "sqrt=x"], 2),
    (["normal-form", "--form", "g2"], 2),
    (["construct-nondeg", "2", "5"], 2),
    (["betti", "0,0,\u0661\u0662"], 2),
    (["verify-paper", "--filter", "zz"], 2),
    (["cartan-check", "0,0,12", "--samples", "-1"], 2),
    (["trivial", "0,0,12", "--degrees", "-1"], 2),
    (["betti", "builtin:abelian:-1"], 2),
    (["betti", '{"dim": -1, "brackets": []}'], 2),
    (["cartan-check", "builtin:abelian:0"], 2),
    (["search34", "--m", "-1"], 2),
    (["lie-kernel", "0,0,12", "--degree", "-1"], 2),
    (["mm-solve", "0,0,12", "--degree", "-1"], 2),
    (["invariant-cohomology", "0,0,12", "--ideal", "2,3", "--degree", "-1"], 2),
    (["orbit-check", "0,0,12", "--form", '{"n":4,"degree":1,"terms":{"1":"1"}}'], 2),
    (["hs-page", "0,0,12", "--ideal", "2,3", "--max-q", "-1"], 2),
    (["construct-nondeg", "3", "-2"], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"5":"1"}}]}'], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"0":"1"}}]}'], 2),
    (["stable", "--form", '{"n":3,"degree":2,"terms":{"1,5":"1"}}'], 2),
    (["nondeg", "--form", '{"n":-1,"degree":0,"terms":{}}'], 2),
    (["stable", "--form", '{"n":3,"degree":1,"terms":{"0":"1"}}'], 2),
    (["--json", "parse", MIXED_FIELDS], 2),
    (["betti", MIXED_FIELDS], 2),
    (["betti", '{"dim":2,"brackets":[{"i":"1","j":2,"c":{"2":"1"}}]}'], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2.0,"c":{"2":"1"}}]}'], 2),
    (["betti", '{"dim":"2","brackets":[]}'], 2),
    (["betti", '{"dim":2.0,"brackets":[]}'], 2),
    (["betti", '{"dim":true,"brackets":[]}'], 2),
    (["stable", "--form", '{"n":"3","degree":1,"terms":{"1":"1"}}'], 2),
    (["stable", "--form", '{"n":3,"degree":"1","terms":{"1":"1"}}'], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":1}}]}'], 2),
    (["stable", "--form", '{"n":3,"degree":1,"terms":{"1":1}}'], 2),
    (["betti", '{"dim":2,"brackets":[1]}'], 2),
    (["betti", '{"dim":2,"brackets":{"a":1}}'], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":[1]}]}'], 2),
    (["stable", "--form", '{"n":3,"degree":1,"terms":[1]}'], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"1/0"}}]}'], 2),
    (["betti", "0,1/0.12"], 2),
    (["stable", "--form", '{"n":3,"degree":1,"terms":{"1":"1/0"}}'], 2),
    (["parse", "0,12,a.13", "--param", "a=1/0"], 2),
    (["invariant-cohomology", "0,12,2.13", "--ideal", "1,2", "--degree", "1"], 2),
    (["invariant-cohomology", "0,12,2.13", "--ideal", "3", "--degree", "1"], 2),
    (["nondeg", "--form", MIXED_FORM], 2),
    (["normal-form", "--form", MIXED_FORM], 2),
    (["stable", "--form", MIXED_FORM], 2),
    (["--json", "stabilizer", "--form", MIXED_FORM], 2),
    (["orbit-check", "0,0,12,13,14,15,16,17", "--form", MIXED_FORM], 2),
    (["orbit-check", "builtin:su3", "--form", SQRT2_FORM_ON_8], 2),
    (["invariant-cohomology", "0,0,12", "--ideal", "1,1,3", "--degree", "1"], 2),
    (["invariant-cohomology", "0,0,12", "--ideal", "0,3", "--degree", "1"], 2),
    (["stable", "--form", '{"n":2,"degree":2,"terms":{"2,1":"1"}}'], 2),
    (["stable", "--form", '{"n":2,"degree":2,"terms":{"1,2":"1","2,1":"1"}}'], 2),
    (["betti", DOUBLE_BRACKET], 2),
    (["betti", '{"brackets":[]}'], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"x":"1"}}]}'], 2),
    (["betti", "builtin:abelian:"], 2),
    (["betti", "builtin:nplus:x"], 2),
    (["betti", "0,0,12+"], 2),
    (["betti", "0,0,12-"], 2),
    (["betti", "0,0,12+2."], 2),
    (["betti", "0,0,12 3"], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"2sqrt(3)"}}]}'], 2),
    (["stable", "--form", '{"n":10,"degree":1,"terms":{"1_0":"1"}}'], 2),
    (["parse", '{"dim":3,"brackets":[{"i":1,"j":2,"c":{" +3":"1"}}]}'], 2),
    (["betti", "builtin:abelian:\u0663"], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"\u0663"}}]}'], 2),
    (["nondeg", "--form", "symplectic(\u0661,\u0662)"], 2),
    (["trivial", "0,0,12", "--degrees", "1_0"], 2),
    (["trivial", "0,0,12", "--degrees", "+3"], 2),
    (["invariant-cohomology", "0,0,12", "--ideal", "\u0662,\u0663", "--degree", "1"], 2),
    (["stabilizer", "--form", "psu3", "--field", "sqrt=\u0663"], 2),
    (["search34", "--m", "1", "--eig-range", "1_0..2"], 2),
    (["parse", "0,12,t.13", "--param", "t=\u0663"], 2),
    (["parse", "0,12,t.13", "--param", "t=1e1"], 2),
    (["parse", "0,12,t.13", "--param", "t=1_0"], 2),
    (["parse", "0,12,t.13", "--param", "t=0.5"], 2),
    (["parse", "0,12,t\u00e9.13", "--param", "t\u00e9=3"], 2),
    (["betti", '{"dim":' + "[" * 100_000], 2),
    (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"sqrt(%d)"}}]}' % (10**30 + 57)], 2),
]


@pytest.mark.parametrize("argv,code", BAD_INPUT)
def test_bad_input_is_one_error_line(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bad_input_message_names_the_input(capsys):
    main(["cartan-check", "builtin:abelian:0"])
    assert "dimension at least 1, got 0" in capsys.readouterr().err
    main(["search34", "--m", "-1"])
    assert "--m must be non-negative, got -1" in capsys.readouterr().err
    main(["orbit-check", "0,0,12", "--form", '{"n":4,"degree":1,"terms":{"1":"1"}}'])
    assert "form is on R^4, the algebra has dimension 3" in capsys.readouterr().err
    main(["hs-page", "0,0,12", "--ideal", "2,3", "--max-q", "-1"])
    assert "max_q must be non-negative, got -1" in capsys.readouterr().err
    main(["construct-nondeg", "3", "-2"])
    assert "dimension -2 is negative" in capsys.readouterr().err
    main(["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"5":"1"}}]}'])
    assert "bad component index 5 in bracket (1,2), expected 1..2" in capsys.readouterr().err
    main(["stable", "--form", '{"n":3,"degree":2,"terms":{"1,5":"1"}}'])
    assert "index 5 in term '1,5' is outside 1..3" in capsys.readouterr().err
    main(["stable", "--form", '{"n":3,"degree":1,"terms":{"0":"1"}}'])
    assert "index 0 in term '0' is outside 1..3" in capsys.readouterr().err
    main(["betti", MIXED_FIELDS])
    assert "mix Q(sqrt 2) and Q(sqrt 3)" in capsys.readouterr().err
    main(["invariant-cohomology", "0,12,2.13", "--ideal", "1,2", "--degree", "1"])
    assert capsys.readouterr().err == "error: subspace is not an ideal\n"
    main(["invariant-cohomology", "0,12,2.13", "--ideal", "3", "--degree", "1"])
    assert capsys.readouterr().err == "error: quotient is not abelian: ideal misses g'\n"
    main(["betti", '{"dim":2,"brackets":[{"i":"1","j":2,"c":{"2":"1"}}]}'])
    assert 'bracket index i must be an integer, got "1"' in capsys.readouterr().err
    main(["betti", '{"dim":true,"brackets":[]}'])
    assert "dim must be an integer, got true" in capsys.readouterr().err
    main(["stable", "--form", '{"n":"3","degree":1,"terms":{"1":"1"}}'])
    assert 'n must be an integer, got "3"' in capsys.readouterr().err
    main(["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":1}}]}'])
    assert "structure constant c[2] must be a string, got 1" in capsys.readouterr().err
    main(["betti", '{"dim":2,"brackets":{"a":1}}'])
    assert 'brackets must be a list, got {"a": 1}' in capsys.readouterr().err
    main(["stable", "--form", '{"n":3,"degree":1,"terms":[1]}'])
    assert "terms must be an object, got [1]" in capsys.readouterr().err
    main(["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"1/2+1/0*sqrt(3)"}}]}'])
    assert "zero denominator in scalar '1/2+1/0*sqrt(3)'" in capsys.readouterr().err
    main(["betti", "0,1/0.12"])
    assert "zero denominator in '1/0' (at position 2)" in capsys.readouterr().err
    main(["parse", "0,12,a.13", "--param", "a=1/0"])
    assert "bad rational in --param 'a=1/0'" in capsys.readouterr().err
    main(["parse", "0,12,t.13", "--param", "t=1e1"])
    assert capsys.readouterr().err == "error: bad rational in --param 't=1e1'\n"
    main(["parse", "0,12,t\u00e9.13", "--param", "t\u00e9=3"])
    assert capsys.readouterr().err == ("error: bad --param 't\u00e9=3', expected name=value, "
                                       "name [A-Za-z_][A-Za-z0-9_]*\n")
    main(["parse", "0,12,t\u00e9.13", "--param", "t=3"])
    assert capsys.readouterr().err == "error: cannot read algebra: unexpected character '\u00e9' (at position 6)\n"
    for command in ("nondeg", "normal-form", "stable"):
        main([command, "--form", MIXED_FORM])
        assert capsys.readouterr().err == "error: form coefficients mix Q(sqrt 2) and Q(sqrt 3)\n"
    main(["orbit-check", "builtin:su3", "--form", SQRT2_FORM_ON_8])
    assert capsys.readouterr().err == "error: the form is over Q(sqrt 2), the algebra over Q(sqrt 3)\n"
    main(["invariant-cohomology", "0,0,12", "--ideal", "1,1,3", "--degree", "1"])
    assert capsys.readouterr().err == "error: repeated index 1 in the ideal\n"
    main(["invariant-cohomology", "0,0,12", "--ideal", "0,3", "--degree", "1"])
    assert capsys.readouterr().err == "error: ideal index 0 is outside 1..3\n"
    main(["hs-page", "0,0,12,13", "--ideal", "4,5"])
    assert capsys.readouterr().err == "error: ideal index 5 is outside 1..4\n"
    # inputs the JSON readers, the builtin names and the two grammars used to
    # read by dropping or overwriting a token
    rejected = [
        (["stable", "--form", '{"n":2,"degree":2,"terms":{"2,1":"1"}}'],
         "cannot read form: indices in term '2,1' must increase"),
        (["stable", "--form", '{"n":2,"degree":2,"terms":{"1,2":"1","2,1":"1"}}'],
         "cannot read form: indices in term '2,1' must increase"),
        (["betti", DOUBLE_BRACKET], "cannot read algebra: bracket (1,2) is listed twice"),
        (["betti", '{"brackets":[]}'], "cannot read algebra: missing dim"),
        (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"x":"1"}}]}'],
         "cannot read algebra: component index in bracket (1,2) must be an integer, got 'x'"),
        (["betti", "builtin:abelian:"],
         "cannot read algebra: the size in builtin 'abelian:' must be an integer, got ''"),
        (["betti", "builtin:nplus:x"],
         "cannot read algebra: the size in builtin 'nplus:x' must be an integer, got 'x'"),
        (["betti", "0,0,12+"],
         "cannot read algebra: expected [sign][coefficient.]pair, got '+' (at position 6)"),
        (["betti", "0,0,12 3"],
         "cannot read algebra: expected [sign][coefficient.]pair, got '3' (at position 7)"),
        (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"2sqrt(3)"}}]}'],
         "cannot read algebra: cannot parse scalar '2sqrt(3)'"),
        # integers are an optional "-" and ASCII digits, at each call site
        (["stable", "--form", '{"n":10,"degree":1,"terms":{"1_0":"1"}}'],
         "cannot read form: index in term '1_0' must be an integer, got '1_0'"),
        (["parse", '{"dim":3,"brackets":[{"i":1,"j":2,"c":{" +3":"1"}}]}'],
         "cannot read algebra: component index in bracket (1,2) must be an integer, got ' +3'"),
        (["betti", "builtin:abelian:\u0663"],
         "cannot read algebra: the size in builtin 'abelian:\u0663' must be an integer,"
         " got '\u0663'"),
        # digits are ASCII in the Salamon, scalar and builtin-form grammars too
        (["betti", "0,0,\u0661\u0662"],
         "cannot read algebra: unexpected character '\u0661' (at position 4)"),
        (["betti", '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"\u0663"}}]}'],
         "cannot read algebra: cannot parse scalar '\u0663'"),
        (["nondeg", "--form", "symplectic(\u0661,\u0662)"],
         "cannot read form: unknown builtin form 'symplectic(\u0661,\u0662)'"),
        (["trivial", "0,0,12", "--degrees", "1_0"], "bad --degrees '1_0'"),
        (["invariant-cohomology", "0,0,12", "--ideal", "\u0662,\u0663", "--degree", "1"],
         "bad --ideal '\u0662,\u0663'"),
        (["stabilizer", "--form", "psu3", "--field", "sqrt=\u0663"],
         "--field expects an integer d"),
        (["search34", "--m", "1", "--eig-range", "1_0..2"],
         "bad --eig-range '1_0..2', expected a..b"),
    ]
    for argv, message in rejected:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,what", [(["betti"], "algebra"), (["stable", "--form"], "form")])
def test_deeply_nested_json_file_is_one_error_line(capsys, tmp_path, argv, what):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(argv + [f"@{deep}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what}: maximum recursion depth") and err.count("\n") == 1


def test_radicand_bound():
    """A radicand above 10^12 is refused before any trial division; one
    below it, even a prime, is read."""
    over = '{"dim":2,"brackets":[{"i":1,"j":2,"c":{"2":"sqrt(%d)"}}]}'
    proc = subprocess.run([sys.executable, "-m", "lmmt", "betti", over % (10**30 + 57)],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot read algebra: radicand {10**30 + 57} is above 10^12\n"
    assert main(["betti", over % (10**12 + 39)]) == 2
    assert main(["betti", over % 999_999_999_989]) == 0  # the largest prime below 10^12


def test_a_quadratic_form_on_a_rational_algebra_runs(capsys):
    """Q(sqrt 2) coefficients on a rational algebra mix no fields."""
    assert main(["orbit-check", "builtin:abelian:8", "--form", SQRT2_FORM_ON_8]) == 0
    assert capsys.readouterr().out == "stab dim 8, ker dim 8, holds=True\n"


def test_zero_dimensional_algebra_round_trips_through_salamon(capsys):
    """The Salamon text parse prints for dimension 0 is a readable input."""
    for name in ("builtin:abelian:0", "builtin:nplus:1"):
        assert main(["--json", "parse", name]) == 0
        text = json.loads(capsys.readouterr().out)["salamon"]
        assert text == ""
        assert main(["betti", text]) == 0
        assert capsys.readouterr() == ("betti [1]\n", "")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lmmt", "betti", "0,0,12"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "betti [1, 2, 2, 1]\n"


def test_trivial(capsys):
    code, out = run(capsys, "--json", "trivial", "0,12,2.13")
    assert code == 0 and json.loads(out)["trivial"] is True
    code, out = run(capsys, "--json", "trivial", "0,0,12,13,14,15")
    assert code == 0 and json.loads(out)["trivial"] is False


def test_lie_kernel(capsys):
    code, out = run(capsys, "--json", "lie-kernel", "builtin:su2", "--degree", "3")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_kunneth(capsys):
    code, out = run(capsys, "kunneth", "builtin:su2", "0,0,12")
    assert code == 0


def test_cartan_check(capsys):
    code, out = run(capsys, "--json", "cartan-check", "builtin:su2", "--samples", "10")
    assert code == 0


def test_verify_34(capsys):
    code, out = run(capsys, "--json", "verify-34", "0,12,2.13")
    assert code == 0
    assert json.loads(out)["agrees"] is True


def test_hs_page_codim2(capsys):
    code, out = run(capsys, "--json", "hs-page", "0,0,13+24,14",
                    "--ideal", "3,4", "--max-q", "2")
    assert code == 0


def test_invariant_cohomology(capsys):
    code, out = run(capsys, "--json", "invariant-cohomology", "0,12,2.13",
                    "--ideal", "2,3", "--degree", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_H"] == 2 and payload["dim_invariant"] == 0


def test_search34(capsys):
    code, out = run(capsys, "--json", "search34", "--m", "2",
                    "--eig-range", "1..2")
    assert code == 0
    assert len(json.loads(out)["results"]) == 3


def test_stabilizer(capsys):
    code, out = run(capsys, "--json", "stabilizer", "--form", "g2")
    assert code == 0
    assert json.loads(out)["dim"] == 14


def test_stable_and_nondeg(capsys):
    code, out = run(capsys, "--json", "stable", "--form", "g2")
    assert code == 0
    code, out = run(capsys, "--json", "nondeg", "--form", "spin7")
    assert code == 0


def test_psu3_needs_field(capsys):
    assert main(["stabilizer", "--form", "psu3", "--field", "sqrt=2"]) == 2


def test_normal_form(capsys):
    code, out = run(capsys, "--json", "normal-form", "--form",
                    "symplectic(2,4)")
    assert code == 0
    assert json.loads(out)["k"] == 2


@pytest.mark.parametrize("n", [0, 4])
def test_zero_symplectic_form_is_a_two_form(capsys, n):
    """symplectic(0,n) is the zero two-form on R^n: normal form k = 0, weakly
    non-degenerate only on R^0, every matrix stabilises it."""
    form = f"symplectic(0,{n})"
    code, out = run(capsys, "--json", "normal-form", "--form", form)
    assert code == 0 and json.loads(out)["k"] == 0
    assert run(capsys, "nondeg", "--form", form) == (0, "true\n" if n == 0 else "false\n")
    code, out = run(capsys, "--json", "stable", "--form", form)
    payload = json.loads(out)
    assert code == 0 and payload["degree"] == 2
    assert (payload["stabilizer_dim"], payload["orbit_dim"]) == (n * n, 0)
    assert payload["kernel_dim"] == n


def test_construct_nondeg_impossible(capsys):
    code, out = run(capsys, "--json", "construct-nondeg", "3", "4")
    assert code == 0
    assert json.loads(out)["possible"] is False


def test_identities(capsys):
    code, out = run(capsys, "--json", "identities", "g2metric")
    assert code == 0


def test_mm_solve(capsys):
    code, out = run(capsys, "--json", "mm-solve", "0,0,12", "--degree", "2")
    assert code == 0


def test_orbit_check(capsys):
    form = json.dumps({"n": 3, "degree": 1, "terms": {"3": "1"}})
    code, out = run(capsys, "--json", "orbit-check", "0,0,12",
                    "--form", form)
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_paper(capsys):
    code, out = run(capsys, "verify-paper")
    assert code == 0
    assert "12/12" in out
    assert out.count("[PASS]") == 12


def test_verify_paper_filter(capsys):
    code, out = run(capsys, "verify-paper", "--filter", "c03")
    assert code == 0 and "[PASS]" in out


# -- one parser per process ------------------------------------------------


def test_repeated_calls_do_not_share_params(capsys):
    """--param is an append action: a second call starts from no params."""
    assert main(["--json", "parse", "0,12,t.13", "--param", "t=2"]) == 0
    capsys.readouterr()
    assert main(["parse", "0,12,t.13"]) == 2
    assert capsys.readouterr().err == "error: cannot read algebra: unbound parameter 't' (at position 5)\n"
    assert main(["parse", "0,12,t.13", "--param", "t=3"]) == 0
    assert capsys.readouterr().out.startswith("dim 3: 0,12,3.13\n")


def test_repeated_calls_do_not_share_json(capsys):
    assert run(capsys, "--json", "betti", "0,0,12")[1].startswith("{")
    assert run(capsys, "betti", "0,0,12") == (0, "betti [1, 2, 2, 1]\n")


def test_argparse_rejection_between_successes(capsys):
    """An exit 2 from argparse leaves the parser as it was."""
    first = run(capsys, "betti", "0,0,12")
    with pytest.raises(SystemExit) as exc:
        main(["betti"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lmmt betti") and "required: algebra" in err
    with pytest.raises(SystemExit) as exc:
        main(["hs-page", "0,0,12", "--level", "3"])
    assert exc.value.code == 2 and "invalid choice: 3" in capsys.readouterr().err
    # an option the command does not read
    with pytest.raises(SystemExit) as exc:
        main(["identities", "g2metric", "--param", "x"])
    assert exc.value.code == 2 and "unrecognized arguments: --param x" in capsys.readouterr().err
    assert run(capsys, "betti", "0,0,12") == first == (0, "betti [1, 2, 2, 1]\n")


@pytest.mark.parametrize("argv,option,value", [
    (["lie-kernel", "0,0,12", "--degree", "1_0"], "--degree", "1_0"),
    (["cartan-check", "0,0,12", "--samples", "\u0662"], "--samples", "\u0662"),
    (["hs-page", "0,0,12", "--ideal", "2,3", "--max-q", "+1"], "--max-q", "+1"),
    (["hs-page", "0,0,12", "--ideal", "2,3", "--level", "\u0661"], "--level", "\u0661"),
    (["search34", "--m", " 1"], "--m", " 1"),
    (["construct-nondeg", "3", "1_1"], "n", "1_1"),
])
def test_integer_arguments_have_parse_ints_grammar(capsys, argv, option, value):
    """An integer argument is an optional "-" and ASCII digits; argparse
    rejects anything else with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {option}: the value must be an integer, got {value!r}\n")


# one runnable invocation of each subcommand
MINIMAL = {
    "parse": ["0,0,12"],
    "betti": ["0,0,12"],
    "trivial": ["0,0,12"],
    "lie-kernel": ["0,0,12", "--degree", "1"],
    "kunneth": ["0,0,12", "0,0,12"],
    "cartan-check": ["0,0,12", "--samples", "1"],
    "mm-solve": ["0,0,12", "--degree", "1"],
    "orbit-check": ["0,0,12", "--form", '{"n":3,"degree":1,"terms":{"3":"1"}}'],
    "invariant-cohomology": ["0,0,12", "--ideal", "2,3", "--degree", "1"],
    "hs-page": ["0,0,12", "--ideal", "2,3", "--max-q", "1"],
    "verify-34": ["0,0,12"],
    "search34": ["--m", "0"],
    "stabilizer": ["--form", "g2"],
    "stable": ["--form", "g2"],
    "nondeg": ["--form", "g2"],
    "normal-form": ["--form", "symplectic(1,2)"],
    "construct-nondeg": ["3", "3"],
    "identities": ["g2metric"],
    "verify-paper": ["--filter", "c03"],
}
READS_ALGEBRA = {"parse", "betti", "trivial", "lie-kernel", "kunneth", "cartan-check", "mm-solve",
                 "orbit-check", "invariant-cohomology", "hs-page", "verify-34"}
READS_FORM = {"orbit-check", "stabilizer", "stable", "nondeg", "normal-form"}


def test_every_subcommand_has_a_minimal_invocation():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(MINIMAL)


@pytest.mark.parametrize("name", list(MINIMAL))
def test_param_and_field_only_where_read(capsys, name):
    """--param is accepted by the 11 commands that read an algebra, --field
    by the 5 that read a form; any other command exits 2 on them."""
    for extra, accepted in ((["--param", "t=1"], name in READS_ALGEBRA),
                            (["--field", "sqrt=3"], name in READS_FORM)):
        argv = [name, *MINIMAL[name], *extra]
        if accepted:
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["betti", "--help"], ["mm-solve", "--help"]])
def test_help_is_that_of_a_fresh_parser(capsys, argv):
    """--help, asked twice, prints what a newly built parser prints."""
    fresh = _build_parser.__wrapped__()
    with pytest.raises(SystemExit):
        fresh.parse_args(argv)
    want = capsys.readouterr().out
    assert want.startswith("usage: lmmt")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out == want


def test_parser_is_built_once_per_process_and_not_at_import():
    code = ("import lmmt.cli as cli\n"
            "assert cli._build_parser.cache_info().misses == 0\n"
            "assert cli.main(['betti', '0,0,12']) == 0\n"
            "assert cli.main(['--json', 'betti', 'builtin:su2']) == 0\n"
            "info = cli._build_parser.cache_info()\n"
            "assert (info.misses, info.hits) == (1, 1), info\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_non_jacobi_error_line(capsys):
    """A non-Jacobi algebra exits 1 with the least failing triple."""
    bad = ('{"dim":4,"brackets":[{"i":1,"j":2,"c":{"3":"1"}},{"i":2,"j":3,"c":{"4":"1"}},'
           '{"i":1,"j":4,"c":{"4":"1"}}]}')
    assert main(["betti", bad]) == 1
    assert capsys.readouterr().err == "error: Jacobi identity fails on basis triple (1, 2, 3)\n"
    assert main(["betti", "0,12,13+23"]) == 1
    assert capsys.readouterr().err == "error: Jacobi identity fails on basis triple (1, 2, 3)\n"
