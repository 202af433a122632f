"""Command-line front end: parse domain descriptors and boundary data, run the
explicit evaluators and the finite-graph oracle, emit tables and plots.

Commands: solve and compare serve every domain family; eta, measure,
energy, haar and dtn are each a family's own (see `FAMILIES`).  Without
--domain, haar means upper and dtn means half-sg.
Exit codes: 0 success, 1 internal error, 2 usage/data error, 3 accuracy
failure.  Outputs are byte-deterministic for a fixed configuration.
"""

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import gcd, isfinite

from . import cylinder, geometry, halfdomain, lowerdomain, upperdomain
from .errors import AccuracyError, GasketError

F = Fraction

SCHEMA = 1


class UsageError(Exception):
    pass


def _parse_value(v, mode):
    """A JSON number, or a string of one, as data of the mode (auto mode
    keeps JSON floats); UsageError for a value the mode cannot hold."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise TypeError(f"{v!r} is not a number")
    if isinstance(v, float) and mode == "rational":
        raise UsageError(f"rational mode cannot take the float literal {v!r}")
    if mode != "float" and not isinstance(v, float):
        return F(v)
    try:
        x = float(F(v)) if isinstance(v, str) else float(v)
    except OverflowError:
        raise UsageError(f"{v!r} is too large for a float") from None
    if not isfinite(x):  # JSON's NaN and Infinity, and 1e400
        raise UsageError(f"{v!r} is not a finite number")
    return x


def _parse_index(v):
    if isinstance(v, (bool, float)):  # an atom index, which int() would truncate
        raise TypeError(f"{v!r} is not an integer")
    return int(v)


def load_boundary_data(path, domain, mode, lam=None, level=3):
    """Boundary-data JSON: {"schema": 1, "q1": v, "q0": v,
    "atoms": [{"w": "03", "j": 1, "v": x}, ...],
    "cylinders": [{"w": "0", "v": x}, ...], "default_tail": v}."""
    fam = FAMILIES[domain]
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read boundary data {path}: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise UsageError(f"boundary data {path} is empty or malformed")
    if raw.get("schema", SCHEMA) != SCHEMA:
        raise UsageError(f"unsupported schema {raw.get('schema')!r}")

    def value(v, field, parse=lambda v: _parse_value(v, mode), what="a number"):
        try:
            return None if v is None else parse(v)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{field}: {v!r} is not {what}") from exc
        except UsageError as exc:
            raise UsageError(f"{field}: {exc}") from exc

    def entries(key):
        items = raw.get(key, [])
        if not isinstance(items, list):
            raise UsageError(f"{key} must be a list, not {items!r}")
        for n, e in enumerate(items):
            if not isinstance(e, dict) or not isinstance(e.get("w"), str) or "v" not in e:
                raise UsageError(f'{key}[{n}] needs a word "w" and a value "v"')
            yield e, value(e["v"], f"{key}[{n}].v"), f"{key}[{n}]"

    atoms = {(e["w"], value(e.get("j", 1), f"{at}.j", _parse_index, "an integer")): v
             for e, v, at in entries("atoms")}
    if atoms and not fam.atoms:
        raise UsageError(f"{domain}-domain data has no atoms, use cylinders")
    kwargs = {k: value(raw[k] if raw.get(k) is not None else d, k) for k, d in fam.corners.items()}
    kwargs["cylinders"] = {e["w"]: v for e, v, _ in entries("cylinders")}
    kwargs["default"] = value(raw.get("default_tail"), "default_tail")
    if fam.atoms:
        kwargs["atoms"] = atoms
    try:
        return fam.data(lam if fam.lam else level, **kwargs)
    except GasketError as exc:
        raise UsageError(str(exc)) from exc


def _data(cfg, fam, lam):
    """The command's boundary data, read as floats where the family says so."""
    mode = "float" if fam.float_data else cfg.mode
    return load_boundary_data(cfg.data_path, cfg.domain, mode, lam=lam, level=cfg.level)


def _fmt(v):
    if type(v) is F:  # not isinstance: Fraction's ABC check is slow on floats
        return str(v)
    return repr(float(v))


def _ratio_text(n, d):
    """str(Fraction(n, d)) for integers n and d > 0, without the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _fmt_exact(v, flag, den=None):
    """_fmt(v), or _ratio_text(v, den), refused as a usage error naming the
    flag when v is exact with more digits than the interpreter converts."""
    try:
        return _fmt(v) if den is None else _ratio_text(v, den)
    except ValueError as exc:
        raise UsageError(f"{flag}: the exact value is too long to print") from exc


def _write(path, text, what):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {what} {path}: {exc.strerror}") from exc


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        _write(out, text, "output")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands of every family; each returns its output lines


def _solution_rows(frame, f, dom, m):
    """(s, rows, keys): the solution at the level-m vertices of the domain
    from one walk, rows[x, y] = (word, corner, num, den) (`cylinder.walk`)
    at the point (x/s, y/s) for s = l**m, and the keys (x, y) in order.  The
    refusals of `geometry.check_domain_level` come before the walk."""
    geometry.check_domain_level(dom, m)
    rows = cylinder.walk(frame, f, m)
    return dom.params.level ** m, rows, sorted(rows)


def _refuse_rational(cfg, fam, lam):
    refused = cfg.mode == "rational" and fam.no_rational(lam)
    if refused:
        raise UsageError(refused)


def cmd_solve(cfg, fam, lam):
    frame = fam.frame(cfg.level, lam)
    dom = frame.domain
    _refuse_rational(cfg, fam, lam)
    # upper data stays exact here: its cut-line values print as fractions
    f = load_boundary_data(cfg.data_path, cfg.domain, cfg.mode, lam=lam, level=cfg.level)
    s, rows, keys = _solution_rows(frame, f, dom, cfg.depth)

    texts = {}

    def coord(n):  # once per n
        if n not in texts:
            texts[n] = _ratio_text(n, s)
        return texts[n]

    def value(n, den):
        return _fmt_exact(n, "--mode", den)

    # each row becomes text, or a JSON row, straight from the walk's record
    items = ((key, rows[key]) for key in keys)
    if cfg.fmt == "json":
        payload = {"schema": SCHEMA, "rows": [
            {"word": w, "corner": c, "x": coord(x), "y": coord(y), "value": value(n, den)}
            for (x, y), (w, c, n, den) in items]}
        return [json.dumps(payload, sort_keys=True)]
    lines = ["word,corner,x,y,value"]
    lines += [f"{w},{c},{coord(x)},{coord(y)},{value(n, den)}"
              for (x, y), (w, c, n, den) in items]
    return lines


def cmd_compare(cfg, fam, lam):
    from . import oracle  # only compare imports the oracle

    frame = fam.frame(cfg.level, lam)
    dom = frame.domain
    _refuse_rational(cfg, fam, lam)
    lo, hi = cfg.levels
    if hi > cylinder.MAX_RECURSION:  # data words, so the boundary lookup, reach no deeper
        raise UsageError(f"--levels {lo}:{hi}: the oracle solves levels up to {cylinder.MAX_RECURSION}")
    mode = cfg.mode if cfg.mode != "auto" else "float"
    # one run's cell shapes serve every level; the top level is counted
    # against the rational cap before the data is read
    shapes = oracle.CellShapes(dom, mode)
    unknowns = shapes.unknowns(hi)
    f = _data(cfg, fam, lam)
    if mode == "rational":
        oracle.check_exact_cap(unknowns)
    # every level is listed before any is solved, the top one first, so
    # the cell budget refuses before any level
    levels = list(range(lo, hi + 1))
    trees = {m: shapes.tree(m, (frame, f)) for m in (hi, *levels[:-1])}
    s, rows, keys = _solution_rows(frame, f, dom, cfg.depth)
    targets = [(F(x, s), F(y, s)) for x, y in keys]
    # float(Fraction(n, den)) is n / den, both correctly rounded
    explicit = [float(n) if den is None else n / den for _, _, n, den in map(rows.get, keys)]
    lines, maxes = ["level,max_abs,mean_abs"], []
    for m in levels:
        vals = oracle.solve_domain(trees[m], partial(frame.terminals, f), targets)
        diffs = [abs(e - float(v)) for e, v in zip(explicit, vals)]
        maxes.append(max(diffs))
        lines.append(f"{m},{maxes[-1]!r},{sum(diffs) / len(diffs)!r}")
    # a step may rise by rounding only, and two or more levels must fall
    # overall unless every maximum is 0 (exact agreement)
    falls = len(maxes) == 1 or maxes[-1] < maxes[0] - 1e-15 or not any(maxes)
    monotone = falls and all(a >= b - 1e-15 for a, b in zip(maxes, maxes[1:]))
    lines.append(f"monotone_decreasing,{str(monotone).lower()}")
    if cfg.svg:
        _write_svg(cfg.svg, levels, maxes)
    return lines


def _write_svg(path, xs, ys, width=480, height=320):
    """Minimal hand-rolled line plot; convenience only."""
    pad = 40
    import math

    logy = [math.log10(max(y, 1e-16)) for y in ys]
    y0, y1 = min(logy), max(logy)
    if y1 == y0:
        y1 = y0 + 1
    pts = []
    for x, ly in zip(xs, logy):
        px = pad + (width - 2 * pad) * (x - xs[0]) / max(xs[-1] - xs[0], 1)
        py = height - pad - (height - 2 * pad) * (ly - y0) / (y1 - y0)
        pts.append(f"{px:.1f},{py:.1f}")
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" stroke-width="1.5"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" text-anchor="middle">oracle level</text>',
        f'<text x="12" y="{height // 2}" font-size="12" transform="rotate(-90 12 {height // 2})" text-anchor="middle">log10 max abs discrepancy</text>',
        "</svg>",
    ]
    _write(path, "\n".join(body) + "\n", "plot")


# ---------------------------------------------------------------------------
# commands of one family


def _measure_half(cfg, fam, lam):
    mass = halfdomain.atom_mass(cfg.level, cfg.word, cfg.j)
    residual = halfdomain.residual_mass(cfg.level, cfg.depth)
    return [f"atom_mass,{cfg.word},{cfg.j},{_fmt_exact(mass, '--word')}",
            f"residual_mass_depth_{cfg.depth},{_fmt_exact(residual, '--depth')}"]


def _energy_half(cfg, fam, lam):
    f = _data(cfg, fam, lam)
    q = halfdomain.energy_form_Q(f, cfg.depth)
    e = halfdomain.domain_energy(f)
    lines = [f"Q,{_fmt(q)}", f"energy,{_fmt(e)}"]
    if q:
        lines += [f"ratio,{float(e) / float(q)!r}", f"upper_bound_225_28,{float(F(225, 28) * q)!r}"]
    return lines


def _dtn(cfg, fam, lam):
    if cfg.level != 2:
        raise UsageError("dtn is for the SG half domain: half-sg, or half with --l 2")
    f = _data(cfg, fam, lam)
    if f.q0 is None:
        raise UsageError("dtn needs the boundary value at q0 (the atom limit)")
    res = halfdomain.dirichlet_to_neumann_sg(f, cfg.kmax)
    lines = ["k,term,partial_sum"]
    fmt = partial(_fmt_exact, flag="--kmax")
    lines += [f"{k},{fmt(t)},{fmt(s)}" for k, (t, s) in enumerate(zip(res.terms, res.partial_sums))]
    return lines + [f"limit,{fmt(res.limit)}", f"residual,{fmt(abs(res.partial_sums[-1] - res.limit))}"]


def _eta_upper(cfg, fam, lam):
    ea = upperdomain.eta_alpha(lam, tol=1e-12)
    lines = [f"alpha,{ea.alpha!r}", f"eta,{ea.eta!r}", f"iterations,{ea.depth}",
             f"certified_bound,{ea.err!r}"]
    if cfg.check_closed_form:
        if lam.value == 1:
            exact = (75 - 2353 ** 0.5) / 60
            ok = abs(ea.alpha - exact) <= 1e-9
            lines.append(f"closed_form,alpha(1)=(75-sqrt(2353))/60,{'match' if ok else 'MISMATCH'}")
        else:
            lines.append("closed_form,none_available,skipped")
    return lines


def _measure_upper(cfg, fam, lam):
    return [f"cylinder_mass,{cfg.word},{upperdomain.cylinder_mass(lam, cfg.word)!r}"]


def _energy_upper(cfg, fam, lam):
    f = _data(cfg, fam, lam)
    est = upperdomain.energy_estimate_upper(lam, f.q0, f, cfg.depth)
    return [f"weighted_sum,{est.weighted_sum!r}", f"energy,{est.energy!r}",
            f"orthogonal_energy,{est.orthogonal_energy!r}",
            f"bracket,{est.bracket[0]!r},{est.bracket[1]!r}",
            f"h0_band,{est.band[0]!r},{est.band[1]!r}"]


def _haar(cfg, fam, lam):
    b, coeffs = upperdomain.haar_expand(lam, _data(cfg, fam, lam), cfg.depth)
    return ["word,j,coefficient", f",mean,{b!r}"] + [f"{w},{j},{c!r}" for (w, j), c in sorted(coeffs.items())]


def _eta_lower(cfg, fam, lam):
    ep = lowerdomain.eta_pair(lam, tol=1e-12)
    lines = [f"eta1,{_fmt(ep.eta1)}", f"eta2,{_fmt(ep.eta2)}", f"iterations,{ep.depth}",
             f"certified_bound,{_fmt(ep.err)}", f"exact,{ep.exact}"]
    if cfg.check_closed_form:
        ones = 0
        while lam.digit(ones + 1) == 1:
            ones += 1
        zeros = 0
        while lam.digit(zeros + 1) == 0 and zeros < 60:
            zeros += 1
        if ones:
            c1, c2 = lowerdomain.closed_form_ones(lam, ones)
            ok = abs(c1 - float(ep.eta1)) < 1e-9 and abs(c2 - float(ep.eta2)) < 1e-9
            lines.append(f"closed_form,ones_prefix_{ones},{'match' if ok else 'MISMATCH'}")
        elif zeros and lam.value != 0:
            s, d = lowerdomain.closed_form_zero_prefix(lam, zeros)
            ok = (abs(float(s) - float(ep.eta1 + ep.eta2)) < 1e-9
                  and abs(float(d) - float(ep.eta1 - ep.eta2)) < 1e-9)
            lines.append(f"closed_form,zeros_prefix_{zeros},{'match' if ok else 'MISMATCH'}")
        else:
            ok = (ep.eta1, ep.eta2) == (2, 1)
            lines.append(f"closed_form,lambda_zero,{'match' if ok else 'MISMATCH'}")
    return lines


def _measure_lower(cfg, fam, lam):
    m1, m2 = lowerdomain.lower_measures(lam, cfg.word)
    return [f"mu1_mass,{cfg.word},{_fmt(m1)}", f"mu2_mass,{cfg.word},{_fmt(m2)}"]


def _energy_lower(cfg, fam, lam):
    _refuse_rational(cfg, fam, lam)
    e = lowerdomain.domain_energy_lower(lam, _data(cfg, fam, lam))
    return [f"energy,{_fmt_exact(e, '--mode')}"]


def _lower_no_rational(lam):
    if not lam.dyadic:
        return "rational mode needs dyadic lambda (eta limits are irrational)"
    if not lowerdomain.etas(lam).exact:
        return f"rational mode needs exact eta values, here past {lowerdomain.EXACT_ETA_BITS} bits"


# ---------------------------------------------------------------------------
# the domain families


class Family(namedtuple("Family", ["data", "corners", "atoms", "lam", "frame", "no_rational",
                                   "float_data", "commands"])):
    """What the command line knows of one domain family:
    data         boundary-data class: (lambda, or the level without one, **kwargs)
    corners      its JSON corner keys and their defaults
    atoms        whether the data may list atoms
    lam          --lambda parser, None when the family has no lambda
    frame        (level, lam) -> root recursion frame; its `domain` is the
                 geometry descriptor
    no_rational  lam -> why solve and compare refuse rational mode, or None
    float_data   every command but solve reads the data as floats
    commands     the family's own commands: name -> (cfg, fam, lam) -> lines
    """


FAMILIES = {
    "half": Family(
        halfdomain.HalfBoundaryData, {"q1": 0, "q0": None}, True, None,
        lambda level, lam: halfdomain.structure(level),
        lambda lam: None, False,
        {"measure": _measure_half, "energy": _energy_half, "dtn": _dtn},
    ),
    "upper": Family(
        upperdomain.UpperBoundaryData, {"q0": 0}, False, upperdomain.TriadicLambda.parse,
        lambda level, lam: upperdomain.UpperFrame(lam),
        lambda lam: "upper-domain evaluation needs eta limits: use float mode", True,
        {"eta": _eta_upper, "measure": _measure_upper, "energy": _energy_upper, "haar": _haar},
    ),
    "lower": Family(
        lowerdomain.LowerBoundaryData, {"q1": 0, "q2": 0}, False, lowerdomain.BinaryLambda.parse,
        lambda level, lam: lowerdomain.LowerFrame(lam),
        _lower_no_rational,
        False,
        {"eta": _eta_lower, "measure": _measure_lower, "energy": _energy_lower},
    ),
}

SHARED = {"solve": cmd_solve, "compare": cmd_compare}


# ---------------------------------------------------------------------------
# argument parsing


def _common_parser(data):
    """The options every command shares, then --data when the command reads
    boundary data: the parent of each command's parser."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument("--domain",
                    choices=["half", "half-sg", "half-sg2", "half-sg3", "upper", "lower"])
    sp.add_argument("--l", dest="level", type=int,
                    help="gasket level for half domains (default 3)")
    sp.add_argument("--lambda", dest="lam",
                    help='cut parameter: "1/2" or a digit/bit program')
    sp.add_argument("--mode", choices=["auto", "rational", "float"], default="auto")
    sp.add_argument("--out")
    if data:
        sp.add_argument("--data", dest="data_path", required=True, help="boundary data JSON")
    return sp


# command -> (whether it reads boundary data, its own arguments in order)
COMMANDS = {
    "solve": (True, [("--level", dict(dest="depth", type=int, default=2,
                                      help="vertex enumeration level")),
                     ("--format", dict(dest="fmt", choices=["csv", "json"], default="csv"))]),
    "eta": (False, [("--check-closed-form", dict(action="store_true"))]),
    "measure": (False, [("--word", dict(default="")), ("--j", dict(type=int, default=1)),
                        ("--depth", dict(type=int, default=4))]),
    "energy": (True, [("--depth", dict(type=int, default=3))]),
    "compare": (True, [("--levels", dict(default="3:5", help="oracle level range lo:hi")),
                       ("--targets-level", dict(dest="depth", type=int, default=2)),
                       ("--svg", dict(help="optional SVG plot path"))]),
    "haar": (True, [("--depth", dict(type=int, default=2))]),
    "dtn": (True, [("--kmax", dict(type=int, default=40))]),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="gasketbvp",
        description="Dirichlet solvers for half, upper and lower gasket domains",
    )
    sub = p.add_subparsers(dest="command", required=True)
    parents = {data: [_common_parser(data)] for data in (False, True)}
    for name, (data, extra) in COMMANDS.items():
        sp = sub.add_parser(name, parents=parents[data])
        for flag, kwargs in extra:
            sp.add_argument(flag, **kwargs)
    return p


DOMAIN_ALIASES = {"half-sg": ("half", 2), "half-sg2": ("half", 2), "half-sg3": ("half", 3)}
DEFAULT_DOMAINS = {"haar": "upper", "dtn": "half-sg"}


def _config_from_args(cfg):
    """The parsed arguments with the domain alias and default resolved to a
    family and a level, and --levels read as (lo, hi)."""
    cfg.domain = cfg.domain or DEFAULT_DOMAINS.get(cfg.command)
    if cfg.domain in DOMAIN_ALIASES:
        alias, (cfg.domain, level) = cfg.domain, DOMAIN_ALIASES[cfg.domain]
        if cfg.level not in (None, level):
            raise UsageError(f"--l {cfg.level} conflicts with the {alias} domain (l = {level})")
        cfg.level = level
    if cfg.level is None:
        cfg.level = 3
    if hasattr(cfg, "levels"):
        text = cfg.levels
        try:
            lo, hi = text.split(":")
            cfg.levels = (int(lo), int(hi))
        except ValueError as exc:
            raise UsageError(f"bad --levels {text!r}, expected lo:hi") from exc
        if cfg.levels[0] > cfg.levels[1]:
            raise UsageError(f"empty --levels {text!r}: lo must not exceed hi")
        if cfg.levels[0] < cfg.depth:
            raise UsageError(f"--levels {text!r} starts below --targets-level {cfg.depth}:"
                             " every target must be a vertex of each oracle level")
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cmd = cfg.command
        homes = [name for name, fam in FAMILIES.items() if cmd in SHARED or cmd in fam.commands]
        if cfg.domain not in homes:
            raise UsageError(f"{cmd} is for {' or '.join(', '.join(homes).rsplit(', ', 1))} domains")
        fam = FAMILIES[cfg.domain]
        if fam.lam and cfg.lam is None:
            raise UsageError(f"--lambda is required for {cfg.domain} domains")
        try:
            lam = fam.lam and fam.lam(cfg.lam)
        except GasketError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"--lambda {cfg.lam!r} is not a fraction or a digit/bit program") from exc
        _emit((SHARED.get(cmd) or fam.commands[cmd])(cfg, fam, lam), cfg.out)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy: {exc}", file=sys.stderr)
        return 3
    except GasketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
