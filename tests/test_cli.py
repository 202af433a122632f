import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import gasketbvp
from gasketbvp import cli, geometry, harmonic
from gasketbvp.errors import GasketError
from graph_helpers import domain_vertices

F = Fraction


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def half_data(tmp_path):
    return write_json(tmp_path / "f.json", {
        "schema": 1,
        "q1": "1",
        "q0": "0",
        "atoms": [{"w": "", "j": 1, "v": "1/2"}],
        "default_tail": "0",
    })


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_half_deterministic(half_data, capsys):
    argv = ["solve", "--domain", "half", "--l", "3", "--data", half_data,
            "--level", "2", "--mode", "rational"]
    code, out1, _ = run(argv, capsys)
    assert code == 0
    code, out2, _ = run(argv, capsys)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "word,corner,x,y,value"
    assert len(lines) > 10
    # rational mode emits exact fractions
    assert any("/" in ln.split(",")[-1] for ln in lines[1:])


def test_solve_json_format(half_data, capsys):
    code, out, _ = run(
        ["solve", "--domain", "half", "--data", half_data, "--level", "1",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 5


def test_solve_lower_rational(tmp_path, capsys):
    data = write_json(tmp_path / "g.json", {
        "schema": 1, "q1": "2", "q2": "-1",
        "cylinders": [{"w": "1", "v": "3"}, {"w": "2", "v": "1/3"}],
    })
    code, out, _ = run(
        ["solve", "--domain", "lower", "--lambda", "1/2", "--data", data,
         "--level", "3", "--mode", "rational"], capsys)
    assert code == 0
    assert "/" in out


def test_solve_keeps_the_sign_of_zero_on_the_cut_line(tmp_path, capsys):
    # each cut-line point lies in one cylinder at -0.0; its value is that
    # cylinder's, not a sum started from the integer 0
    data = write_json(tmp_path / "g.json", {
        "schema": 1, "q1": "1", "q2": "2",
        "cylinders": [{"w": "1", "v": -0.0}, {"w": "2", "v": -0.0}],
    })
    code, out, _ = run(
        ["solve", "--domain", "lower", "--lambda", "1/2", "--data", data,
         "--level", "1", "--mode", "float"], capsys)
    assert code == 0
    rows = {tuple(line.split(",")[2:4]): line.split(",")[4] for line in out.splitlines()[1:]}
    assert rows["1/2", "1"] == rows["3/2", "1"] == "-0.0"


def test_empty_data_usage_error(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text("{}")
    code, _, err = run(
        ["solve", "--domain", "half", "--data", str(bad)], capsys)
    assert code == 2
    assert "error" in err


def test_eta_upper(capsys):
    code, out, _ = run(
        ["eta", "--domain", "upper", "--lambda", "1", "--check-closed-form"], capsys)
    assert code == 0
    alpha = float(out.splitlines()[0].split(",")[1])
    assert abs(alpha - 0.441538) < 1e-5
    assert "match" in out


def test_eta_lower(capsys):
    code, out, _ = run(["eta", "--domain", "lower", "--lambda", "0"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "eta1,2"
    assert out.splitlines()[1] == "eta2,1"
    code, out, _ = run(
        ["eta", "--domain", "lower", "--lambda", "1/2", "--check-closed-form"], capsys)
    assert code == 0
    assert "35/12" in out and "match" in out


def test_eta_accuracy_exit_code(capsys):
    lam = str(1 - F(1, 2 ** 200))
    code, _, err = run(["eta", "--domain", "lower", "--lambda", lam], capsys)
    assert code == 3
    assert "accuracy" in err


def test_measure_commands(capsys):
    code, out, _ = run(["measure", "--domain", "half", "--word", "0", "--depth", "3"], capsys)
    assert code == 0
    assert "2/49" in out and "125/343" in out
    code, out, _ = run(
        ["measure", "--domain", "lower", "--lambda", "1/2", "--word", "1"], capsys)
    assert code == 0
    assert "5/6" in out and "1/6" in out
    code, out, _ = run(
        ["measure", "--domain", "upper", "--lambda", "1", "--word", "3"], capsys)
    assert code == 0
    assert "0.39120" in out


def test_energy_half(half_data, capsys):
    code, out, _ = run(
        ["energy", "--domain", "half", "--data", half_data, "--depth", "3"], capsys)
    assert code == 0
    rows = dict(ln.split(",", 1) for ln in out.strip().splitlines())
    assert F(rows["energy"]) <= F(225, 28) * F(rows["Q"])


def test_energy_half_depth_past_the_data(tmp_path, capsys):
    # below depth 1 the data is constant, so every deeper increment of Q is 0
    data = write_json(tmp_path / "d1.json", {
        "schema": 1, "q1": "1", "q0": "0", "atoms": [{"w": "", "v": "1/2"}],
        "cylinders": [{"w": "3", "v": "2"}], "default_tail": "0",
    })
    outs = []
    for depth in ("4", "6000"):
        code, out, err = run(["energy", "--domain", "half-sg3", "--depth", depth, "--data", data], capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] != "Q,0"


@pytest.mark.parametrize("abc", [("2", "-1", "1/3"), ("5/7", "0", "-3"), ("1", "1", "1")])
def test_energy_lower_constant_data_is_the_closed_form(abc, tmp_path, capsys):
    # a at q1, b at q2 and c on X: (eta1 - eta2)((a-c)^2 + (b-c)^2) + eta2 (a-b)^2
    a, b, c = abc
    data = write_json(tmp_path / "c.json", {"schema": 1, "q1": a, "q2": b, "default_tail": c})
    code, out, err = run(["energy", "--domain", "lower", "--lambda", "1/2", "--mode", "rational",
                          "--data", data], capsys)
    assert code == 0, err
    a, b, c, eta1, eta2 = map(F, (a, b, c, F(35, 12), F(5, 12)))
    assert out == f"energy,{(eta1 - eta2) * ((a - c) ** 2 + (b - c) ** 2) + eta2 * (a - b) ** 2}\n"


def test_energy_lower_refuses_rational_mode_off_dyadic_lambda(tmp_path, capsys):
    data = write_json(tmp_path / "c.json", {"schema": 1, "q1": "1", "q2": "0", "default_tail": "0"})
    argv = ["energy", "--domain", "lower", "--lambda", "1/3", "--data", data]
    code, out, err = run([*argv, "--mode", "rational"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: rational mode needs dyadic lambda (eta limits are irrational)\n"
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert "/" not in out and float(out.split(",")[1]) > 0


def test_compare_half(half_data, tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    code, out, _ = run(
        ["compare", "--domain", "half", "--data", half_data,
         "--levels", "2:4", "--targets-level", "1", "--svg", str(svg)], capsys)
    assert code == 0
    assert "monotone_decreasing,true" in out
    assert svg.read_text().startswith("<svg")


def test_compare_lower_dyadic_exact_zero(tmp_path, capsys):
    data = write_json(tmp_path / "g.json", {
        "schema": 1, "q1": "1", "q2": "0",
        "cylinders": [{"w": "1", "v": "2"}, {"w": "2", "v": "3"}],
    })
    code, out, _ = run(
        ["compare", "--domain", "lower", "--lambda", "1/2", "--data", data,
         "--levels", "2:3", "--targets-level", "2"], capsys)
    assert code == 0
    for ln in out.strip().splitlines()[1:-1]:
        assert float(ln.split(",")[1]) < 1e-12


@pytest.mark.parametrize("levels", ["5:3", "12:3"])
def test_compare_empty_level_range_usage_error(half_data, capsys, levels):
    code, out, err = run(
        ["compare", "--domain", "half", "--data", half_data, "--levels", levels], capsys)
    assert code == 2
    assert out == ""
    assert levels in err


def test_haar(tmp_path, capsys):
    data = write_json(tmp_path / "u.json", {
        "schema": 1, "q0": 0.0,
        "cylinders": [{"w": "1", "v": 1.0}], "default_tail": 0.0,
    })
    code, out, _ = run(
        ["haar", "--lambda", "1", "--data", data, "--depth", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,j,coefficient"
    coeffs = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
              for r in lines[1:]}
    assert coeffs[("", "1")] == pytest.approx(0.5)


def test_haar_counts_its_coefficients_before_any_integral(tmp_path, capsys, monkeypatch):
    # at lambda = 1, depth 13 would list 3**13 - 1 coefficients: refused with
    # exit 2 before any integral (depth 12 is within the budget, see
    # test_haar_terms_counts_what_haar_expand_lists)
    from gasketbvp import upperdomain as UP

    data = write_json(tmp_path / "u.json", {
        "schema": 1, "q0": 0.0,
        "cylinders": [{"w": "1", "v": 1.0}], "default_tail": 0.0,
    })
    integrals = []
    monkeypatch.setattr(UP, "integrate_upper", lambda *a: integrals.append(a) or 0.0)
    code, out, err = run(["haar", "--lambda", "1", "--data", data, "--depth", "13"], capsys)
    assert (code, out, integrals) == (2, "", [])
    assert f"depth 13 has {3 ** 13 - 1} Haar coefficients, over the 1000000" in err
    assert "--depth" in err


@pytest.mark.parametrize("domain", ["half", "lower"])
def test_haar_needs_upper_domain(tmp_path, capsys, domain):
    data = write_json(tmp_path / "u.json", {
        "schema": 1, "q0": 0.0,
        "cylinders": [{"w": "1", "v": 1.0}], "default_tail": 0.0,
    })
    code, out, err = run(
        ["haar", "--domain", domain, "--lambda", "1", "--data", data, "--depth", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "haar is for upper domains" in err


def test_dtn(tmp_path, capsys):
    data = write_json(tmp_path / "d.json", {
        "schema": 1, "q1": "0", "q0": "0",
        "atoms": [{"w": "", "j": 1, "v": "1"}], "default_tail": "0",
    })
    code, out, _ = run(["dtn", "--data", data, "--kmax", "30"], capsys)
    assert code == 0
    assert "limit,3/2" in out


def test_upper_digit_outside_alphabet_usage_error(tmp_path, capsys):
    data = write_json(tmp_path / "u.json", {
        "schema": 1, "q0": "1/2", "cylinders": [{"w": "4", "v": "1"}], "default_tail": "0",
    })
    code, out, err = run(
        ["solve", "--domain", "upper", "--lambda", "1", "--data", data, "--level", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("lam,level", [("1/9", None), ("4/9", "2"), ("1/3", "1")])
def test_solve_upper_dilated_to_the_output_level(tmp_path, capsys, lam, level):
    """An upper domain whose dilation into F_0^n reaches the output level, at
    the root (1/9 at the default level 2, 1/3 at level 1) or in a sub-copy
    (4/9 at level 2), prints every vertex with the evaluator's value."""
    from gasketbvp import upperdomain as UP

    data = write_json(tmp_path / "u.json", {"schema": 1, "q0": "1/3", "default_tail": "-1/5"})
    argv = ["solve", "--domain", "upper", "--lambda", lam, "--data", data]
    code, out, err = run(argv + (["--level", level] if level else []), capsys)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    tlam = UP.TriadicLambda(F(lam))
    dom = geometry.UpperDomain(cut_y=tlam.cut_height())
    assert len(rows) == len(domain_vertices(dom, int(level or 2)))
    f = cli.load_boundary_data(data, "upper", "auto", lam=tlam, level=3)
    want = UP.evaluate_upper_many(tlam, f, [(F(x), F(y)) for _, _, x, y, _ in rows])
    assert [v for *_, v in rows] == [cli._fmt(v) for v in want]


@pytest.mark.parametrize("argv,payload", [
    (["solve", "--domain", "half-sg3", "--level", "1"],
     {"schema": 1, "q1": "0", "q0": "1", "default_tail": "1"}),
    (["solve", "--domain", "half-sg3", "--level", "1"],
     {"schema": 1, "q0": "1", "default_tail": "1"}),
    (["solve", "--domain", "lower", "--lambda", "1/2", "--level", "2"],
     {"schema": 1, "q1": "0", "q2": "0", "cylinders": [{"w": "1", "v": "3"}, {"w": "2", "v": "1"}]}),
    (["solve", "--domain", "lower", "--lambda", "1/2", "--level", "2"],
     {"schema": 1, "cylinders": [{"w": "1", "v": "3"}, {"w": "2", "v": "1"}]}),
])
def test_rational_zero_corner_is_exact(tmp_path, capsys, argv, payload):
    # a zero corner, given or left out, stays the Fraction 0 and prints as "0"
    data = write_json(tmp_path / "z.json", payload)
    code, out, _ = run(argv + ["--mode", "rational", "--data", data], capsys)
    assert code == 0
    values = [ln.rsplit(",", 1)[1] for ln in out.strip().splitlines()[1:]]
    assert "0" in values
    assert not [v for v in values if "." in v or "e" in v]


def test_solve_extends_once_per_cell(tmp_path, capsys, monkeypatch):
    """solve's extensions follow the cells it walks, not its vertices: lower
    lambda = 1/2 splits into two lambda = 0 copies, each one harmonic cell
    of level 1 filled once per level-1..5 subcell, 2 * (1 + 3 + ... + 3**4)
    extensions for 731 vertices."""
    data = write_json(tmp_path / "f.json", {
        "schema": 1, "q1": "1", "q2": "-2",
        "cylinders": [{"w": "1", "v": "3/7"}, {"w": "2", "v": "-1/7"}],
    })
    calls = []
    extend = harmonic.extend_numerators
    monkeypatch.setattr(harmonic, "extend_numerators", lambda *a: calls.append(a) or extend(*a))
    code, out, err = run(["solve", "--domain", "lower", "--lambda", "1/2", "--level", "6",
                          "--mode", "rational", "--data", data], capsys)
    assert code == 0, err
    assert len(out.splitlines()) == 1 + len(domain_vertices(geometry.LowerDomain(1), 6))
    assert 0 < len(calls) <= 2 * sum(3 ** k for k in range(5))


@pytest.mark.parametrize("level", [4, 5])
def test_solve_float_data_on_half_domains_prints_floats(tmp_path, capsys, level):
    # the level-1 system of l >= 4 is solved exactly; float data still give
    # float values, as on l in {2, 3}
    first = geometry.WORD_CHARS[geometry.gasket(level).half_alphabet[0]]
    data = write_json(tmp_path / "f.json", {
        "schema": 1, "q1": "1/4", "q0": "1/2", "default_tail": "1/5",
        "atoms": [{"w": "", "j": 1, "v": "1/3"}, {"w": "", "j": 2, "v": "-2/7"}],
        "cylinders": [{"w": first, "v": "3/4"}]})
    code, out, err = run(["solve", "--domain", "half", "--l", str(level), "--level", "2",
                          "--mode", "float", "--data", data], capsys)
    assert code == 0, err
    values = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert len(values) > 10
    assert all(repr(float(v)) == v for v in values)


def test_solve_deep_cylinder_is_exact(tmp_path, capsys):
    # a 26-digit cylinder has mass 7**-26 on half-SG3; an integral that
    # stops short of it reads 0 and so does every value
    data = write_json(tmp_path / "deep.json", {
        "schema": 1, "q1": "0", "q0": "0",
        "cylinders": [{"w": "0" * 26, "v": "1"}], "default_tail": "0",
    })
    code, out, err = run(["solve", "--domain", "half-sg3", "--level", "1", "--mode", "rational",
                          "--data", data], capsys)
    assert code == 0, err
    values = {tuple(ln.split(",")[2:4]): ln.split(",")[4] for ln in out.splitlines()[1:]}
    assert values["1/3", "2/3"] == "1/8046411717983789404842"


def test_measure_half_labels_its_atom(capsys):
    code, out, _ = run(["measure", "--domain", "half", "--l", "4", "--j", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "atom_mass,,2,18/41"
    for j in ("0", "-1", "3"):
        code, out, err = run(["measure", "--domain", "half", "--l", "4", "--j", j], capsys)
        assert (code, out) == (2, "")
        assert f"atom index {j} out of range" in err


def run_python(script):
    src = os.path.dirname(os.path.dirname(gasketbvp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_leaves_scipy_unloaded(half_data):
    # the oracle condenses without scipy, so not even compare loads it
    run_python(
        "import sys, gasketbvp, gasketbvp.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "for mode in ('rational', 'float'):\n"
        "    assert gasketbvp.cli.main(['compare', '--domain', 'half-sg3', '--levels', '2:3',\n"
        f"                               '--mode', mode, '--data', {half_data!r}]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )


def test_solve_leaves_scipy_unloaded(tmp_path, half_data):
    # solve takes its vertices from geometry, not from the oracle
    upper = write_json(tmp_path / "u.json", {"schema": 1, "q0": "1", "default_tail": "0"})
    lower = write_json(tmp_path / "l.json", {"schema": 1, "q1": "1", "q2": "0", "default_tail": "0"})
    out = str(tmp_path / "out.csv")
    runs = [
        ["--domain", "half-sg3", "--data", half_data],
        ["--domain", "upper", "--lambda", "1", "--data", upper],
        ["--domain", "lower", "--lambda", "1/2", "--data", lower],
    ]
    run_python(
        "import sys\nfrom gasketbvp import cli\n"
        f"for argv in {runs!r}:\n"
        f"    assert cli.main(['solve', '--level', '2', '--out', {out!r}, *argv]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )


def test_explicit_path_leaves_numpy_unloaded(tmp_path, half_data):
    # solve lists its vertices by a pure-Python cell walk, the short
    # commands use no arrays, and compare condenses on the domain's cell
    # tree: only the graph functions load numpy
    upper = write_json(tmp_path / "u.json", {"schema": 1, "q0": "1/2", "default_tail": "0",
                                             "cylinders": [{"w": "1", "v": "1"}]})
    lower = write_json(tmp_path / "l.json", {"schema": 1, "q1": "1", "q2": "0", "default_tail": "0"})
    half_sg3 = ["--domain", "half-sg3"]
    up = ["--domain", "upper", "--lambda", "1"]
    low = ["--domain", "lower", "--lambda", "1/2"]
    runs = [
        ["solve", *half_sg3, "--data", half_data],
        ["solve", *up, "--data", upper],
        ["solve", *low, "--mode", "rational", "--data", lower],
        ["solve", "--domain", "lower", "--lambda", "1/3", "--mode", "float", "--data", lower],
        ["eta", *up], ["eta", *low],
        ["measure", *half_sg3], ["measure", *up], ["measure", *low],
        ["energy", *half_sg3, "--data", half_data], ["energy", *up, "--data", upper],
        ["haar", *up, "--data", upper],
        ["dtn", "--domain", "half-sg", "--kmax", "5", "--data", half_data],
    ]
    out = str(tmp_path / "out.csv")
    run_python(
        "import sys\nimport gasketbvp.cli as cli\n"
        "assert 'numpy' not in sys.modules\n"
        f"for argv in {runs!r}:\n"
        f"    assert cli.main([*argv, '--out', {out!r}]) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "for mode in ('rational', 'float'):\n"
        f"    assert cli.main(['compare', *{half_sg3!r}, '--levels', '2:3', '--mode', mode,\n"
        f"                     '--data', {half_data!r}, '--out', {out!r}]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "cli.geometry.domain_graph(cli.geometry.HalfDomain(3), 2)\n"
        "assert 'numpy' in sys.modules\n"
    )


def count_solves(monkeypatch):
    """The levels `compare` solves, from here on."""
    from gasketbvp import oracle

    solved = []
    solve = oracle.solve_domain
    monkeypatch.setattr(oracle, "solve_domain",
                        lambda *a: solved.append(len(a[0].rows) - 1) or solve(*a))
    return solved


@pytest.mark.parametrize("domain,data", [
    (["--domain", "half-sg3"], {"q1": "1", "q0": "0", "atoms": [{"w": "", "j": 1, "v": "1/2"}],
                                "cylinders": [{"w": "03", "v": "2"}], "default_tail": "0"}),
    (["--domain", "upper", "--lambda", "1"], {"q0": "1", "default_tail": "0",
                                              "cylinders": [{"w": "1", "v": "2"}, {"w": "31", "v": "-1"}]}),
    (["--domain", "lower", "--lambda", "1/3"], {"q1": "1", "q2": "-1", "default_tail": "0",
                                                "cylinders": [{"w": "01", "v": "2"}]}),
], ids=["half", "upper", "lower"])
def test_compare_reads_the_boundary_in_one_batch_per_level(domain, data, tmp_path, capsys,
                                                           monkeypatch):
    # each level's boundary values come from one batched lookup; no vertex
    # is looked up on its own from the root
    from gasketbvp import halfdomain, lowerdomain, oracle, upperdomain

    def refuse(*args):
        raise AssertionError("one-point boundary lookup")

    for module, attr in ((halfdomain, "boundary_value_at"),
                         (upperdomain, "boundary_value_at_upper"),
                         (lowerdomain, "boundary_value_at_lower")):
        monkeypatch.setattr(module, attr, refuse)
    batches = []
    solve = oracle.solve_domain

    def counted(tree, values, *rest):
        def batch(points, s):
            batches.append((len(tree.rows) - 1, len(points)))
            return values(points, s)
        return solve(tree, batch, *rest)

    monkeypatch.setattr(oracle, "solve_domain", counted)
    path = write_json(tmp_path / "f.json", {"schema": 1, **data})
    code, out, err = run(["compare", *domain, "--levels", "2:5", "--data", path], capsys)
    assert code == 0, err
    assert [m for m, _ in batches] == [2, 3, 4, 5]
    assert all(n > 0 for _, n in batches)


def test_compare_reads_a_batch_of_bounded_size_at_every_level(tmp_path, capsys, monkeypatch):
    # the data is constant below depth 2, so every level looks up the
    # corners of the same few cells, however many cells its graph has
    # (6**20 at level 20)
    from gasketbvp import oracle

    batches = {}
    solve = oracle.solve_domain

    def counted(tree, values, targets):
        def batch(points, s):
            batches[len(tree.rows) - 1] = len(points)
            return values(points, s)
        return solve(tree, batch, targets)

    monkeypatch.setattr(oracle, "solve_domain", counted)
    path = write_json(tmp_path / "u.json", {"schema": 1, "q0": "1", "default_tail": "0",
                                            "cylinders": [{"w": "1", "v": "2"},
                                                          {"w": "31", "v": "-1"}]})
    code, out, err = run(["compare", "--domain", "upper", "--lambda", "1", "--levels", "3:20",
                          "--mode", "float", "--data", path], capsys)
    assert code == 0, err
    assert sorted(batches) == list(range(3, 21))
    assert set(batches.values()) == {7}
    assert out.splitlines()[-1] == "monotone_decreasing,true"


def test_compare_builds_each_level_tree_once(half_data, capsys, monkeypatch):
    # each level's cells are listed once, on one run's shapes, the top
    # level first, so that it is counted against the budget before any
    # level is solved
    from gasketbvp import oracle

    built, solved, shapes = [], count_solves(monkeypatch), set()
    tree = oracle.CellShapes.tree

    def listed(self, m, data=None):
        built.append(m)
        shapes.add(id(self))
        assert solved == []
        return tree(self, m, data)

    monkeypatch.setattr(oracle.CellShapes, "tree", listed)
    for mode in ("rational", "float"):
        built.clear(), solved.clear(), shapes.clear()
        code, out, err = run(["compare", "--domain", "half-sg", "--levels", "2:5", "--mode", mode,
                              "--data", half_data], capsys)
        assert (code, built, solved, len(shapes)) == (0, [5, 2, 3, 4], [2, 3, 4, 5], 1), err


def test_compare_condenses_large_cells_in_floats(half_data, capsys):
    # SG_8 cell types have 42 inner slots; condensed in floats, levels 3-5
    # take well under a second (about 20 s when they were condensed exactly)
    code, out, err = run(["compare", "--domain", "half", "--l", "8", "--levels", "3:5",
                          "--mode", "float", "--data", half_data], capsys)
    assert code == 0, err
    assert out.splitlines()[-1] == "monotone_decreasing,true"


def test_compare_checks_the_tree_budget_before_any_level(half_data, tmp_path, capsys,
                                                        monkeypatch):
    # the data is constant below its words, so half-SG3 to level 13 and
    # upper lambda = 1 to level 40 list a few cells and a few hundred
    # shapes (both were refused when every cell at the cut was listed)
    from gasketbvp import oracle

    solved = count_solves(monkeypatch)
    upper = write_json(tmp_path / "u.json", {"schema": 1, "q0": "1", "default_tail": "0"})
    for argv, levels in (
        (["--domain", "half-sg3", "--levels", "12:13", "--data", half_data], [12, 13]),
        (["--domain", "upper", "--lambda", "1", "--levels", "39:40", "--data", upper], [39, 40]),
    ):
        solved.clear()
        code, out, err = run(["compare", *argv], capsys)
        assert (code, solved) == (0, levels), err
    # without data by word every cell at the cut is listed: half-SG3 lists
    # 16,383 cells at level 13 and 32,767 at level 14, over the budget
    shapes = oracle.CellShapes(geometry.HalfDomain(3), "float")
    assert len(sum(shapes.tree(13).rows, [])) == 16_383
    with pytest.raises(GasketError, match=f"level 14 lists more than {geometry.MAX_TREE_CELLS} "
                                          "cells and shapes"):
        shapes.tree(14)
    # a budget the top level exceeds, and levels past every data word, are
    # refused before any level is solved
    monkeypatch.setattr(geometry, "MAX_TREE_CELLS", 100)
    for argv, message in (
        (["--domain", "upper", "--lambda", "1", "--levels", "3:40", "--data", upper],
         "level 40 lists more than 100 cells and shapes"),
        (["--domain", "half-sg", "--levels", "3:65", "--data", half_data],
         "--levels 3:65: the oracle solves levels up to 64"),
    ):
        solved.clear()
        code, out, err = run(["compare", *argv], capsys)
        assert (code, out, solved) == (2, "", []), err
        assert message in err and "--levels" in err


def test_compare_checks_the_rational_cap_before_any_level(half_data, capsys, monkeypatch):
    # level 9 of half-SG has 14757 unknowns: refused before levels 3-8 are
    # solved, counted on the domain's cell tree
    solved = count_solves(monkeypatch)
    argv = ["compare", "--domain", "half-sg", "--mode", "rational", "--data", half_data]
    code, out, err = run([*argv, "--levels", "3:9"], capsys)
    assert (code, out, solved) == (2, "", [])
    assert err == "error: rational mode capped at 5000 unknowns, got 14757\n"
    code, out, err = run([*argv, "--levels", "3:8"], capsys)
    assert (code, solved) == (0, [3, 4, 5, 6, 7, 8]), err


@pytest.mark.parametrize("argv,message", [
    (["solve", "--domain", "half-sg3", "--level", "9"],
     f"level 9 of SG_3 has {6 ** 9} cells; graphs are capped at {3 ** 14} cells"
     " (SG at level 14)"),
    (["solve", "--domain", "half-sg3", "--level", "0"], "domain restriction needs m >= 1"),
    (["solve", "--domain", "lower", "--lambda", "3/4", "--level", "1"],
     "no cells of this level are contained in the domain"),
    (["solve", "--domain", "upper", "--lambda", "1/9", "--level", "1", "--format", "json"],
     "no cells of this level are contained in the domain"),
    (["compare", "--domain", "lower", "--lambda", "3/4", "--levels", "1:2", "--targets-level", "1"],
     "no cells of this level are contained in the domain"),
])
def test_solve_refuses_before_the_walk(argv, message, tmp_path, capsys, monkeypatch):
    """The graph cap, a level below 1 and a level with no cell contained in
    the domain are refused, exit 2 with the message, before any walk."""
    from gasketbvp import cylinder

    monkeypatch.setattr(cylinder, "walk", lambda *a: pytest.fail("walked before refusing"))
    data = write_json(tmp_path / "f.json", {"schema": 1, "q0": "1", "default_tail": "0"})
    code, out, err = run(argv + ["--data", data], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# every command's options in the order its help and usage list them
OPTIONS = {
    "solve": ["--level", "--format"],
    "eta": ["--check-closed-form"],
    "measure": ["--word", "--j", "--depth"],
    "energy": ["--depth"],
    "compare": ["--levels", "--targets-level", "--svg"],
    "haar": ["--depth"],
    "dtn": ["--kmax"],
}
COMMON = ["-h", "--domain", "--l", "--lambda", "--mode", "--out"]


def test_help_lists_the_commands_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{solve,eta,measure,energy,compare,haar,dtn}" in capsys.readouterr().out


@pytest.mark.parametrize("command", OPTIONS)
def test_command_options_keep_their_order(command, capsys):
    """A command's help lists the common options first, --data for the
    commands that read data, then its own."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: gasketbvp {command} [-h]")
    listed = [line.split()[0].rstrip(",") for line in text.split("options:\n")[1].splitlines()
              if line.startswith("  -")]
    data = ["--data"] if command not in ("eta", "measure") else []
    assert listed == COMMON + data + OPTIONS[command]
