"""Edge invocations of the command line, one table row each.

A row is (argv, exit code, text): the text must occur in stderr when the
exit code is nonzero and must be the first line of stdout when it is 0.
`{half}`, `{upper}`, ... in argv stand for the paths of the DATA files,
and `{unwritable}` for a path in a directory that does not exist.
The grid at the end runs every command on every domain family: the pairs
in SUPPORTED succeed on small data, every other pair is a usage error.
"""

import json
import re
import sys
import time
from fractions import Fraction

import pytest

from gasketbvp import cli

DATA = {
    # valid for the SG (l = 2) and SG3 (l = 3) half domains, and for dtn
    "half": {"schema": 1, "q1": "1", "q0": "0",
             "atoms": [{"w": "", "j": 1, "v": "1/2"}], "default_tail": "0"},
    "upper": {"schema": 1, "q0": "1/2", "cylinders": [{"w": "1", "v": "1"}], "default_tail": "0"},
    "lower": {"schema": 1, "q1": "2", "q2": "-1",
              "cylinders": [{"w": "1", "v": "3"}, {"w": "2", "v": "1/3"}]},
    "bad-value": {"schema": 1, "q1": "abc", "q0": "0", "default_tail": "0"},
    "bad-cylinder-value": {"schema": 1, "q0": "0", "cylinders": [{"w": "1", "v": "1/0"}]},
    "no-word": {"schema": 1, "q1": "1", "q0": "0", "cylinders": [{"v": "1"}]},
    "bad-atom-index": {"schema": 1, "q1": "1", "q0": "0", "atoms": [{"w": "", "j": "x", "v": "1"}]},
    "atoms-not-list": {"schema": 1, "q1": "1", "q0": "0", "atoms": 5},
    "upper-atoms": {"schema": 1, "q0": "0", "atoms": [{"w": "1", "v": "1"}]},
    "upper-flat": {"schema": 1, "q0": "1", "default_tail": "0"},
    # constant on the cut line, so valid for every lambda
    "lower-flat": {"schema": 1, "q1": "2", "q2": "-1", "default_tail": "1/3"},
    # data words hold at most 64 digits
    "half-65": {"schema": 1, "q1": "0", "q0": "0", "cylinders": [{"w": "0" * 65, "v": "1"}],
                "default_tail": "0"},
    "half-2000": {"schema": 1, "q1": "0", "q0": "0", "cylinders": [{"w": "3" * 2000, "v": "1"}],
                  "default_tail": "0"},
}

UPPER = ["--domain", "upper", "--lambda", "1"]
LOWER = ["--domain", "lower", "--lambda", "1/2"]
# lambda = 3**-1000 (first nonzero digit at 1001) and 2/3 + 2 * 3**-1000 (a
# gap of 999 digits): their float scales (15/7)**n would overflow
DEEP = ["--domain", "upper", "--lambda", str(Fraction(1, 3 ** 1000))]
GAP = ["--domain", "upper", "--lambda", str(Fraction(2, 3) + Fraction(2, 3 ** 1000))]

EDGES = [
    # dtn is an SG half-domain command
    (["dtn", "--data", "{half}", "--kmax", "3"], 0, "k,term,partial_sum"),
    (["dtn", "--domain", "half", "--l", "2", "--data", "{half}", "--kmax", "3"], 0, "k,term,partial_sum"),
    (["dtn", *UPPER, "--data", "{upper}"], 2, "dtn is for half domains"),
    (["dtn", "--domain", "half", "--l", "3", "--data", "{half}"], 2, "dtn is for the SG half domain"),
    (["dtn", "--domain", "half-sg3", "--data", "{half}"], 2, "dtn is for the SG half domain"),
    (["dtn", "--data", "{half}", "--kmax", "-1"], 2, "kmax must be >= 0"),
    # malformed input names its field
    (["eta", "--domain", "upper", "--lambda", "x"], 2, "--lambda 'x' is not a fraction"),
    (["eta", "--domain", "upper", "--lambda", "1/0"], 2, "--lambda '1/0' is not a fraction"),
    (["eta", "--domain", "lower", "--lambda", "x"], 2, "--lambda 'x' is not a fraction"),
    (["eta", "--domain", "upper", "--lambda", "digits:(1,x)"], 2, "--lambda 'digits:(1,x)'"),
    (["solve", "--domain", "half-sg", "--data", "{bad-value}"], 2, "q1: 'abc' is not a number"),
    (["solve", "--domain", "half-sg", "--mode", "float", "--data", "{bad-value}"], 2,
     "q1: 'abc' is not a number"),
    (["solve", *UPPER, "--data", "{bad-cylinder-value}"], 2, "cylinders[0].v: '1/0' is not a number"),
    (["solve", "--domain", "half-sg", "--data", "{no-word}"], 2, 'cylinders[0] needs a word "w"'),
    (["solve", "--domain", "half-sg", "--data", "{bad-atom-index}"], 2, "atoms[0].j: 'x' is not an integer"),
    (["solve", "--domain", "half-sg", "--data", "{atoms-not-list}"], 2, "atoms must be a list"),
    (["solve", *UPPER, "--data", "{upper-atoms}"], 2, "upper-domain data has no atoms"),
    # half-domain measure inputs (--l 4 --j 0, -1 and 2 are in test_cli.py)
    (["measure", "--domain", "half", "--l", "3", "--j", "5"], 2, "atom index 5 out of range"),
    (["measure", "--domain", "half", "--depth", "-1"], 2, "depth must be >= 0"),
    # measure words go through one parser
    (["measure", "--domain", "half-sg3", "--word", "!"], 2, "word '!': '!' is not a digit"),
    (["measure", *UPPER, "--word", "A"], 2, "word 'A': 'A' is not a digit"),
    (["measure", *LOWER, "--word", "a"], 2, "digit 10 at position 1 conflicts with lambda"),
    # lambda missing or out of range
    (["eta", "--domain", "upper"], 2, "--lambda is required for upper domains"),
    (["solve", "--domain", "lower", "--data", "{lower}"], 2, "--lambda is required for lower domains"),
    (["haar", "--data", "{upper}"], 2, "--lambda is required for upper domains"),
    (["eta", "--domain", "upper", "--lambda", "2"], 2, "lambda must lie in (0, 1]"),
    (["eta", "--domain", "upper", "--lambda", "0"], 2, "lambda must lie in (0, 1]"),
    (["eta", "--domain", "lower", "--lambda", "1"], 2, "lambda must lie in [0, 1)"),
    (["eta", "--domain", "lower", "--lambda", "bits:1periodic:1"], 2, "infinite runs of 1"),
    # a lambda whose digits lie too far apart for floats is refused, naming it
    (["eta", *DEEP], 2, "--lambda: its triadic digits need (15/7)**1001"),
    (["energy", *DEEP, "--data", "{upper-flat}"], 2, "--lambda: its triadic digits need (15/7)**1001"),
    (["eta", *GAP], 2, "--lambda: its triadic digits need (15/7)**999"),
    (["haar", *DEEP, "--data", "{upper-flat}"], 0, "word,j,coefficient"),
    (["eta", "--domain", "upper", "--lambda", str(Fraction(1, 3 ** 70))], 0, "alpha,0.441537810957636"),
    # rational mode
    (["solve", *UPPER, "--mode", "rational", "--data", "{upper}"], 2,
     "upper-domain evaluation needs eta limits"),
    (["solve", "--domain", "lower", "--lambda", "1/3", "--mode", "rational", "--data", "{lower}"], 2,
     "rational mode needs dyadic lambda"),
    (["solve", *LOWER, "--mode", "rational", "--level", "1", "--data", "{lower}"], 0,
     "word,corner,x,y,value"),
    (["compare", *UPPER, "--mode", "rational", "--levels", "2:3", "--data", "{upper}"], 2,
     "upper-domain evaluation needs eta limits"),
    (["compare", "--domain", "lower", "--lambda", "1/3", "--mode", "rational", "--levels", "2:3",
      "--data", "{lower}"], 2, "rational mode needs dyadic lambda"),
    (["compare", *LOWER, "--mode", "rational", "--levels", "2:3", "--targets-level", "1",
      "--data", "{lower}"], 0, "level,max_abs,mean_abs"),
    # a dyadic lambda whose exact eta values pass their bit budget
    (["solve", "--domain", "lower", "--lambda", "65535/65536", "--mode", "rational",
      "--data", "{lower-flat}"], 2, "rational mode needs exact eta values"),
    # a domain alias fixes l: an explicit --l must agree with it
    (["solve", "--domain", "half-sg3", "--l", "4", "--data", "{half}"], 2,
     "--l 4 conflicts with the half-sg3 domain (l = 3)"),
    (["solve", "--domain", "half-sg3", "--l", "3", "--level", "1", "--data", "{half}"], 0,
     "word,corner,x,y,value"),
    (["measure", "--domain", "half-sg", "--l", "3"], 2, "--l 3 conflicts with the half-sg domain (l = 2)"),
    (["dtn", "--l", "3", "--data", "{half}"], 2, "--l 3 conflicts with the half-sg domain (l = 2)"),
    (["dtn", "--l", "2", "--data", "{half}", "--kmax", "3"], 0, "k,term,partial_sum"),
    # negative depths
    (["energy", "--domain", "half-sg3", "--depth", "-1", "--data", "{half}"], 2, "depth must be >= 0"),
    (["energy", *UPPER, "--depth", "-1", "--data", "{upper}"], 2, "depth must be >= 0"),
    (["haar", "--lambda", "1", "--depth", "-1", "--data", "{upper}"], 2, "depth must be >= 0"),
    # commands without a domain
    (["eta"], 2, "eta is for upper or lower domains"),
    (["measure"], 2, "measure is for half, upper or lower domains"),
    (["energy", "--data", "{half}"], 2, "energy is for half, upper or lower domains"),
    (["solve", "--data", "{half}"], 2, "solve is for half, upper or lower domains"),
    # haar means upper without --domain
    (["haar", "--lambda", "1", "--data", "{upper}"], 0, "word,j,coefficient"),
    (["haar", *UPPER, "--data", "{upper}"], 0, "word,j,coefficient"),
    (["haar", "--domain", "half", "--lambda", "1", "--data", "{upper}"], 2, "haar is for upper domains"),
    # level ranges
    (["compare", "--domain", "half-sg", "--levels", "5:3", "--data", "{half}"], 2, "empty --levels '5:3'"),
    (["compare", "--domain", "half-sg", "--levels", "3", "--data", "{half}"], 2, "bad --levels '3'"),
    (["compare", "--domain", "half-sg3", "--levels", "1:3", "--data", "{half}"], 2,
     "--levels '1:3' starts below --targets-level 2"),
    # graphs are capped by their cell count, 3**14, before any array exists
    (["solve", "--domain", "half", "--l", "8", "--level", "6", "--data", "{half}"], 2,
     "level 6 of SG_8 has 2176782336 cells"),
    (["solve", "--domain", "half-sg3", "--level", "6000", "--data", "{half}"], 2,
     "level 6000 of SG_3 has 6**6000 cells"),
    # compare builds no graph: its levels are capped by the cells of the
    # domain's cell tree, and level 9 of half-SG3 lists 2,035
    (["compare", "--domain", "half-sg3", "--levels", "9:9", "--data", "{half}"], 0,
     "level,max_abs,mean_abs"),
    # an output that cannot be written is a usage error naming it
    (["eta", *UPPER, "--out", "{unwritable}"], 2, "cannot write output "),
    (["compare", "--domain", "half-sg", "--levels", "2:3", "--data", "{half}", "--svg", "{unwritable}"], 2,
     "cannot write plot "),
    # exact values with more digits than str() converts name their flag
    (["measure", "--domain", "half-sg3", "--depth", "5000"], 0, "atom_mass,,1,2/7"),
    (["measure", "--domain", "half-sg3", "--depth", "6000"], 2,
     "--depth: the exact value is too long to print"),
    (["measure", "--domain", "half-sg3", "--word", "0" * 6000], 2,
     "--word: the exact value is too long to print"),
    # data words hold at most 64 digits, and no depth reaches past them
    (["solve", "--domain", "half-sg3", "--level", "1", "--data", "{half-65}"], 2,
     "cylinder word length 65 exceeds the 64-digit limit of data words"),
    (["energy", "--domain", "half-sg3", "--data", "{half-2000}"], 2,
     "cylinder word length 2000 exceeds the 64-digit limit of data words"),
    (["energy", "--domain", "half-sg3", "--depth", "6000", "--data", "{half}"], 0, "Q,3/4"),
    (["haar", "--lambda", "1", "--depth", "2000", "--data", "{upper}"], 2,
     "depth must be >= 0 and <= 64, not 2000"),
    (["energy", *UPPER, "--depth", "2000", "--data", "{upper}"], 2,
     "depth must be >= 0 and <= 64, not 2000"),
]


@pytest.fixture
def data_paths(tmp_path):
    paths = {}
    for name, payload in DATA.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    paths["unwritable"] = str(tmp_path / "missing" / "out")
    return paths


def run(argv, data_paths, capsys):
    code = cli.main([data_paths[a[1:-1]] if a.startswith("{") else a for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def _edge_id(row):
    return " ".join(a if len(a) <= 40 else f"{a[:3]}...({len(a)} chars)" for a in row[0])


@pytest.mark.parametrize("row", EDGES, ids=_edge_id)
def test_edge(row, data_paths, capsys):
    argv, want_code, text = row
    code, out, err = run(argv, data_paths, capsys)
    assert code == want_code, err
    if code:
        assert out == ""
        assert text in err
    else:
        assert out.splitlines()[0] == text


def half_text(q1='"1"', j="1", v='"1/2"', tail='"0"'):
    """Half-SG data as JSON text, each field given as raw JSON, so that the
    JSON extensions NaN and Infinity and out-of-range literals get in."""
    return (f'{{"schema": 1, "q1": {q1}, "q0": "0", "atoms": [{{"w": "", "j": {j}, "v": {v}}}], '
            f'"default_tail": {tail}}}')


HALF = ["solve", "--domain", "half-sg", "--level", "1"]
# boundary values that are no number of the mode are refused, naming their
# field: JSON booleans (ints to Python), atom indices that are no integer,
# and values that no float holds
BAD_VALUES = [
    ([*HALF], half_text(q1="true"), "q1: True is not a number"),
    ([*HALF, "--mode", "rational"], half_text(v="false"), "atoms[0].v: False is not a number"),
    ([*HALF], half_text(j="1.5"), "atoms[0].j: 1.5 is not an integer"),
    ([*HALF], half_text(j="true"), "atoms[0].j: True is not an integer"),
    ([*HALF], half_text(q1="NaN"), "q1: nan is not a finite number"),
    ([*HALF, "--mode", "float"], half_text(v="Infinity"), "atoms[0].v: inf is not a finite number"),
    ([*HALF, "--mode", "float"], half_text(tail="-Infinity"),
     "default_tail: -inf is not a finite number"),
    ([*HALF], half_text(q1="1e400"), "q1: inf is not a finite number"),
    ([*HALF, "--mode", "float"], half_text(q1='"1e400"'), "q1: '1e400' is too large for a float"),
    ([*HALF, "--mode", "float"], half_text(q1="1" + "0" * 400), "is too large for a float"),
    ([*HALF, "--mode", "rational"], half_text(q1="NaN"),
     "q1: rational mode cannot take the float literal nan"),
    (["compare", "--domain", "half-sg", "--levels", "2:3", "--mode", "float"],
     half_text(tail="NaN"), "default_tail: nan is not a finite number"),
    (["compare", *UPPER, "--levels", "2:3"],
     '{"schema": 1, "q0": "1", "cylinders": [{"w": "1", "v": 1e400}], "default_tail": 0}',
     "cylinders[0].v: inf is not a finite number"),
    (["haar", *UPPER],
     '{"schema": 1, "q0": "1", "cylinders": [{"w": "1", "v": true}], "default_tail": 0}',
     "cylinders[0].v: True is not a number"),
]


@pytest.mark.parametrize("argv,text,message", BAD_VALUES,
                         ids=[f"{row[0][0]}-{n}" for n, row in enumerate(BAD_VALUES)])
def test_bad_boundary_value_is_refused(argv, text, message, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(text)
    code = cli.main([*argv, "--data", str(path)])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert message in out.err


def test_finite_json_floats_are_read_as_before(tmp_path, capsys):
    # the checks refuse only what is no finite number: JSON floats and
    # integer atom indices given as strings still read
    path = tmp_path / "f.json"
    path.write_text(half_text(q1="0.5", j='"1"', v="2", tail="-0.25"))
    code = cli.main([*HALF, "--data", str(path)])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.out.splitlines()[1:] == ["1,1,0,0,0.5", "1,0,1/2,1,0.35", "1,2,1,0,2"]


# compare's last line: two or more levels whose maxima do not fall are not
# decreasing, unless every maximum is 0
MONOTONE = [
    # the cut y = 1 meets no vertex, so q0 is the oracle's only boundary
    # vertex and the maxima stay at 0.94555...
    ([*UPPER[:2], "--lambda", "1/2", "--levels", "3:5", "--data", "{upper-flat}"], "false"),
    ([*UPPER[:2], "--lambda", "1/2", "--levels", "3:3", "--data", "{upper-flat}"], "true"),
    ([*LOWER, "--mode", "rational", "--levels", "2:3", "--targets-level", "1",
      "--data", "{lower}"], "true"),
]


@pytest.mark.parametrize("lam", ["281474976710655/281474976710656", "12345678901/281474976710656",
                                 "65535/65536"])
def test_eta_past_the_exact_budget_is_certified(lam, capsys):
    # the exact eta numbers double in length at every 1-digit: past their
    # bit budget the pair comes from the certified float path, at once
    start = time.perf_counter()
    assert cli.main(["eta", "--domain", "lower", "--lambda", lam]) == 0
    assert time.perf_counter() - start < 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "exact,False" and float(lines[3].split(",")[1]) <= 1e-12


def test_rational_solve_at_dyadic_depth_50_is_exact(data_paths, capsys):
    lam = str(Fraction(1, 2 ** 50))
    code, out, err = run(["solve", "--domain", "lower", "--lambda", lam, "--mode", "rational",
                          "--level", "2", "--data", "{lower-flat}"], data_paths, capsys)
    assert code == 0, err
    values = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert values and all(re.fullmatch(r"-?\d+(/\d+)?", v) for v in values)
    assert any(len(v) > 100 for v in values)


@pytest.mark.parametrize("argv,flag", [
    (["dtn", "--data", "{half}", "--kmax", "1300"], "--kmax"),
    (["solve", "--domain", "lower", "--lambda", "4095/8192", "--mode", "rational", "--level", "2",
      "--data", "{lower-flat}"], "--mode"),
])
def test_over_long_exact_value_is_a_usage_error(argv, flag, data_paths, capsys):
    # integers of about 900 digits (dtn) and 2,400 (solve), under the least
    # limit the interpreter allows on converting ints to text
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(argv, data_paths, capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err == f"error: {flag}: the exact value is too long to print\n"


@pytest.mark.parametrize("args,want", MONOTONE, ids=["flat", "one-level", "all-zero"])
def test_compare_monotone_decreasing(args, want, data_paths, capsys):
    code, out, err = run(["compare", *args], data_paths, capsys)
    assert code == 0, err
    lines = out.splitlines()
    if "{upper-flat}" in args:
        assert {ln.split(",")[1][:8] for ln in lines[1:-1]} == {"0.945555"}
    else:
        assert {ln.split(",")[1] for ln in lines[1:-1]} == {"0.0"}
    assert lines[-1] == f"monotone_decreasing,{want}"


# command -> (small arguments, first line of stdout)
COMMANDS = {
    "solve": (["--level", "1"], "word,corner,x,y,value"),
    "compare": (["--levels", "2:3", "--targets-level", "1"], "level,max_abs,mean_abs"),
    "eta": ([], None),
    "measure": ([], None),
    "energy": (["--depth", "2"], None),
    "haar": (["--depth", "2"], "word,j,coefficient"),
    "dtn": (["--kmax", "3"], "k,term,partial_sum"),
}
DOMAINS = {
    "half": ["--domain", "half-sg"],
    "upper": UPPER,
    "lower": LOWER,
}
SUPPORTED = {
    "solve": ("half", "upper", "lower"),
    "compare": ("half", "upper", "lower"),
    "eta": ("upper", "lower"),
    "measure": ("half", "upper", "lower"),
    "energy": ("half", "upper", "lower"),
    "haar": ("upper",),
    "dtn": ("half",),
}
FIRST_LINES = {
    ("eta", "upper"): "alpha,",
    ("eta", "lower"): "eta1,",
    ("measure", "half"): "atom_mass,",
    ("measure", "upper"): "cylinder_mass,",
    ("measure", "lower"): "mu1_mass,",
    ("energy", "half"): "Q,",
    ("energy", "upper"): "weighted_sum,",
    ("energy", "lower"): "energy,",
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("family", DOMAINS)
def test_command_domain_grid(command, family, data_paths, capsys):
    args, first = COMMANDS[command]
    takes_data = command not in ("eta", "measure")
    argv = [command, *DOMAINS[family], *args] + (["--data", f"{{{family}}}"] if takes_data else [])
    code, out, err = run(argv, data_paths, capsys)
    if family in SUPPORTED[command]:
        assert code == 0, err
        assert out.splitlines()[0].startswith(first or FIRST_LINES[command, family])
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {command} is for {' or '.join(SUPPORTED[command])} domains\n"
