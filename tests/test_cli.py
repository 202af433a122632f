import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import gasketbvp
from gasketbvp import cli

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


def test_measure_half_labels_its_atom(capsys):
    code, out, _ = run(["measure", "--domain", "half", "--l", "4", "--j", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "atom_mass,,2,18/41"
    for j in ("0", "-1", "3"):
        code, out, err = run(["measure", "--domain", "half", "--l", "4", "--j", j], capsys)
        assert (code, out) == (2, "")
        assert f"atom index {j} out of range" in err


def test_cli_import_leaves_scipy_unloaded():
    # only solve and compare need the oracle, and so scipy
    script = (
        "import sys, gasketbvp, gasketbvp.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "assert gasketbvp.oracle.solve and 'scipy' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(gasketbvp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
