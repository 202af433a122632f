"""Edge invocations of the command line, one table row each.

A row is (argv, exit code, text): the text must occur in stderr when the
exit code is nonzero and must be the first line of stdout when it is 0.
`{half}`, `{upper}`, ... in argv stand for the paths of the DATA files.
The grid at the end runs every command on every domain family: the pairs
in SUPPORTED succeed on small data, every other pair is a usage error.
"""

import json

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
}

UPPER = ["--domain", "upper", "--lambda", "1"]
LOWER = ["--domain", "lower", "--lambda", "1/2"]

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
    # lambda missing or out of range
    (["eta", "--domain", "upper"], 2, "--lambda is required for upper domains"),
    (["solve", "--domain", "lower", "--data", "{lower}"], 2, "--lambda is required for lower domains"),
    (["haar", "--data", "{upper}"], 2, "--lambda is required for upper domains"),
    (["eta", "--domain", "upper", "--lambda", "2"], 2, "lambda must lie in (0, 1]"),
    (["eta", "--domain", "upper", "--lambda", "0"], 2, "lambda must lie in (0, 1]"),
    (["eta", "--domain", "lower", "--lambda", "1"], 2, "lambda must lie in [0, 1)"),
    (["eta", "--domain", "lower", "--lambda", "bits:1periodic:1"], 2, "infinite runs of 1"),
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
    (["energy", "--data", "{half}"], 2, "energy is for half or upper domains"),
    (["solve", "--data", "{half}"], 2, "solve is for half, upper or lower domains"),
    # haar means upper without --domain
    (["haar", "--lambda", "1", "--data", "{upper}"], 0, "word,j,coefficient"),
    (["haar", *UPPER, "--data", "{upper}"], 0, "word,j,coefficient"),
    (["haar", "--domain", "half", "--lambda", "1", "--data", "{upper}"], 2, "haar is for upper domains"),
    # level ranges
    (["compare", "--domain", "half-sg", "--levels", "5:3", "--data", "{half}"], 2, "empty --levels '5:3'"),
    (["compare", "--domain", "half-sg", "--levels", "3", "--data", "{half}"], 2, "bad --levels '3'"),
]


@pytest.fixture
def data_paths(tmp_path):
    paths = {}
    for name, payload in DATA.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def run(argv, data_paths, capsys):
    code = cli.main([data_paths[a[1:-1]] if a.startswith("{") else a for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("row", EDGES, ids=lambda row: " ".join(row[0]))
def test_edge(row, data_paths, capsys):
    argv, want_code, text = row
    code, out, err = run(argv, data_paths, capsys)
    assert code == want_code, err
    if code:
        assert out == ""
        assert text in err
    else:
        assert out.splitlines()[0] == text


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
    "energy": ("half", "upper"),
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
