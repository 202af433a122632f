"""Command-line front end: parse domain descriptors and boundary data, run the
explicit evaluators and the finite-graph oracle, emit tables and plots.

Commands: solve and compare serve every domain family; eta, measure,
energy, haar and dtn are each a family's own (see `FAMILIES`).  Without
--domain, haar means upper and dtn means half-sg.
Exit codes: 0 success, 1 internal error, 2 usage/data error, 3 accuracy
failure.  Outputs are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from fractions import Fraction

from . import geometry, halfdomain, lowerdomain, upperdomain
from .errors import AccuracyError, GasketError

F = Fraction

SCHEMA = 1


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    domain: str = None
    level: int = 3
    lam: str = None
    data_path: str = None
    depth: int = 2
    mode: str = "auto"
    out: str = None
    fmt: str = "csv"
    check_closed_form: bool = False
    word: str = ""
    j: int = 1
    kmax: int = 40
    svg: str = None
    levels: tuple = None


def _parse_value(v, mode):
    if mode == "float":
        return float(F(v)) if isinstance(v, str) else float(v)
    if isinstance(v, (str, int)):
        return F(v)
    if isinstance(v, float) and mode == "rational":
        raise UsageError(f"rational mode cannot take the float literal {v!r}")
    return v


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

    def entries(key):
        items = raw.get(key, [])
        if not isinstance(items, list):
            raise UsageError(f"{key} must be a list, not {items!r}")
        for n, e in enumerate(items):
            if not isinstance(e, dict) or not isinstance(e.get("w"), str) or "v" not in e:
                raise UsageError(f'{key}[{n}] needs a word "w" and a value "v"')
            yield e, value(e["v"], f"{key}[{n}].v"), f"{key}[{n}]"

    atoms = {(e["w"], value(e.get("j", 1), f"{at}.j", int, "an integer")): v
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
    if isinstance(v, F):
        return str(v)
    return repr(float(v))


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands of every family; each returns its output lines


def _solution_rows(fam, lam, f, g):
    """(word, corner, x, y, value) at every vertex of g, ordered by (x, y);
    a function of its own so that the order and the points are freed
    before the output is formatted."""
    order = sorted(range(g.n_vertices()), key=lambda i: (int(g.verts[i][0]), int(g.verts[i][1])))
    points = [g.point(i) for i in order]
    rows = []
    for i, (x, y), v in zip(order, points, fam.evaluate(lam, f, points)):
        a = g.address(i)
        rows.append((geometry.word_to_str(a.word), a.corner, x, y, v))
    return rows


def _refuse_rational(cfg, fam, lam):
    refused = cfg.mode == "rational" and fam.no_rational(lam)
    if refused:
        raise UsageError(refused)


def cmd_solve(cfg, fam, lam):
    from . import oracle  # scipy loads only for solve and compare

    dom = fam.domain(cfg.level, lam)
    _refuse_rational(cfg, fam, lam)
    # upper data stays exact here: its cut-line values print as fractions
    f = load_boundary_data(cfg.data_path, cfg.domain, cfg.mode, lam=lam, level=cfg.level)
    rows = _solution_rows(fam, lam, f, oracle.domain_restricted_graph(dom, cfg.depth).graph)
    if cfg.fmt == "json":
        payload = {
            "schema": SCHEMA,
            "rows": [
                {"word": w, "corner": c, "x": _fmt(x), "y": _fmt(y), "value": _fmt(v)}
                for (w, c, x, y, v) in rows
            ],
        }
        return [json.dumps(payload, sort_keys=True)]
    lines = ["word,corner,x,y,value"]
    lines += [f"{w},{c},{_fmt(x)},{_fmt(y)},{_fmt(v)}" for (w, c, x, y, v) in rows]
    return lines


def cmd_compare(cfg, fam, lam):
    from . import oracle  # scipy loads only for solve and compare

    dom = fam.domain(cfg.level, lam)
    _refuse_rational(cfg, fam, lam)
    f = _data(cfg, fam, lam)
    frame = fam.frame(lam, f)
    base = oracle.domain_restricted_graph(dom, cfg.depth)
    targets = [base.graph.point(i) for i in range(base.graph.n_vertices())]
    exact = dict(zip(targets, fam.evaluate(lam, f, targets)))
    lines, maxes = ["level,max_abs,mean_abs"], []
    levels = list(range(cfg.levels[0], cfg.levels[1] + 1))
    for m in levels:
        sk = oracle.domain_restricted_graph(dom, m)
        vals = oracle.solve(sk.problem(lambda p: frame.terminal(f, p)),
                            mode=cfg.mode if cfg.mode != "auto" else "float")
        diffs = [abs(float(exact[p]) - float(vals[sk.graph.vertex_id(p)])) for p in targets]
        maxes.append(max(diffs))
        lines.append(f"{m},{maxes[-1]!r},{sum(diffs) / len(diffs)!r}")
    monotone = all(a >= b - 1e-15 for a, b in zip(maxes, maxes[1:]))
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
    for i, (x, ly) in enumerate(zip(xs, logy)):
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
    with open(path, "w") as fh:
        fh.write("\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# commands of one family


def _measure_half(cfg, fam, lam):
    mass = halfdomain.atom_mass(cfg.level, cfg.word, cfg.j)
    return [f"atom_mass,{cfg.word},{cfg.j},{_fmt(mass)}",
            f"residual_mass_depth_{cfg.depth},{_fmt(halfdomain.residual_mass(cfg.level, cfg.depth))}"]


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
    lines += [f"{k},{_fmt(t)},{_fmt(s)}" for k, (t, s) in enumerate(zip(res.terms, res.partial_sums))]
    return lines + [f"limit,{_fmt(res.limit)}", f"residual,{_fmt(abs(res.partial_sums[-1] - res.limit))}"]


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


# ---------------------------------------------------------------------------
# the domain families


class Family(namedtuple("Family", ["data", "corners", "atoms", "lam", "domain", "evaluate",
                                   "frame", "no_rational", "float_data", "commands"])):
    """What the command line knows of one domain family:
    data         boundary-data class: (lambda, or the level without one, **kwargs)
    corners      its JSON corner keys and their defaults
    atoms        whether the data may list atoms
    lam          --lambda parser, None when the family has no lambda
    domain       (level, lam) -> geometry descriptor
    evaluate     (lam, f, points) -> solution values, batched
    frame        (lam, f) -> root recursion frame
    no_rational  lam -> why solve and compare refuse rational mode, or None
    float_data   every command but solve reads the data as floats
    commands     the family's own commands: name -> (cfg, fam, lam) -> lines
    """


FAMILIES = {
    "half": Family(
        halfdomain.HalfBoundaryData, {"q1": 0, "q0": None}, True, None,
        lambda level, lam: geometry.HalfDomain(level),
        lambda lam, f, points: halfdomain.evaluate_many(f, points),
        lambda lam, f: f.st.frame,
        lambda lam: None, False,
        {"measure": _measure_half, "energy": _energy_half, "dtn": _dtn},
    ),
    "upper": Family(
        upperdomain.UpperBoundaryData, {"q0": 0}, False, upperdomain.TriadicLambda.parse,
        lambda level, lam: geometry.UpperDomain(cut_y=lam.cut_height()),
        upperdomain.evaluate_upper_many,
        lambda lam, f: upperdomain.UpperFrame(lam),
        lambda lam: "upper-domain evaluation needs eta limits: use float mode", True,
        {"eta": _eta_upper, "measure": _measure_upper, "energy": _energy_upper, "haar": _haar},
    ),
    "lower": Family(
        lowerdomain.LowerBoundaryData, {"q1": 0, "q2": 0}, False, lowerdomain.BinaryLambda.parse,
        lambda level, lam: geometry.LowerDomain(cut_y=lam.cut_height()),
        lowerdomain.evaluate_lower_many,
        lambda lam, f: lowerdomain.LowerFrame(lam),
        lambda lam: None if lam.dyadic else "rational mode needs dyadic lambda (eta limits are irrational)",
        False,
        {"eta": _eta_lower, "measure": _measure_lower},
    ),
}

SHARED = {"solve": cmd_solve, "compare": cmd_compare}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    p = argparse.ArgumentParser(
        prog="gasketbvp",
        description="Dirichlet solvers for half, upper and lower gasket domains",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, data=False):
        sp.add_argument("--domain",
                        choices=["half", "half-sg", "half-sg2", "half-sg3",
                                 "upper", "lower"])
        sp.add_argument("--l", dest="level", type=int,
                        help="gasket level for half domains (default 3)")
        sp.add_argument("--lambda", dest="lam",
                        help='cut parameter: "1/2" or a digit/bit program')
        sp.add_argument("--mode", choices=["auto", "rational", "float"], default="auto")
        sp.add_argument("--out")
        if data:
            sp.add_argument("--data", dest="data_path", required=True,
                            help="boundary data JSON")
        return sp

    sp = common(sub.add_parser("solve"), data=True)
    sp.add_argument("--level", dest="depth", type=int, default=2,
                    help="vertex enumeration level")
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    sp = common(sub.add_parser("eta"))
    sp.add_argument("--check-closed-form", action="store_true")

    sp = common(sub.add_parser("measure"))
    sp.add_argument("--word", default="")
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--depth", type=int, default=4)

    sp = common(sub.add_parser("energy"), data=True)
    sp.add_argument("--depth", type=int, default=3)

    sp = common(sub.add_parser("compare"), data=True)
    sp.add_argument("--levels", default="3:5", help="oracle level range lo:hi")
    sp.add_argument("--targets-level", dest="depth", type=int, default=2)
    sp.add_argument("--svg", help="optional SVG plot path")

    sp = common(sub.add_parser("haar"), data=True)
    sp.add_argument("--depth", type=int, default=2)

    sp = common(sub.add_parser("dtn"), data=True)
    sp.add_argument("--kmax", type=int, default=40)
    return p


DOMAIN_ALIASES = {"half-sg": ("half", 2), "half-sg2": ("half", 2), "half-sg3": ("half", 3)}
DEFAULT_DOMAINS = {"haar": "upper", "dtn": "half-sg"}


def _config_from_args(args):
    taken = {f.name for f in fields(RunConfig)} - {"levels"}
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in taken})
    cfg.domain = cfg.domain or DEFAULT_DOMAINS.get(cfg.command)
    if cfg.domain in DOMAIN_ALIASES:
        alias, (cfg.domain, level) = cfg.domain, DOMAIN_ALIASES[cfg.domain]
        if cfg.level not in (None, level):
            raise UsageError(f"--l {cfg.level} conflicts with the {alias} domain (l = {level})")
        cfg.level = level
    if cfg.level is None:
        cfg.level = RunConfig.level
    if hasattr(args, "levels"):
        try:
            lo, hi = args.levels.split(":")
            cfg.levels = (int(lo), int(hi))
        except ValueError as exc:
            raise UsageError(f"bad --levels {args.levels!r}, expected lo:hi") from exc
        if cfg.levels[0] > cfg.levels[1]:
            raise UsageError(f"empty --levels {args.levels!r}: lo must not exceed hi")
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
