"""Command-line front end: parse domain descriptors and boundary data, run the
explicit evaluators and the finite-graph oracle, emit tables and plots.

Commands: solve, eta, measure, energy, compare, haar, dtn.
Exit codes: 0 success, 1 internal error, 2 usage/data error, 3 accuracy
failure.  Outputs are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from . import geometry, halfdomain, lowerdomain, oracle, upperdomain
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
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read boundary data {path}: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise UsageError(f"boundary data {path} is empty or malformed")
    if raw.get("schema", SCHEMA) != SCHEMA:
        raise UsageError(f"unsupported schema {raw.get('schema')!r}")
    val = lambda k: _parse_value(raw[k], mode) if k in raw and raw[k] is not None else None
    atoms = {
        (e["w"], int(e.get("j", 1))): _parse_value(e["v"], mode)
        for e in raw.get("atoms", [])
    }
    cylinders = {e["w"]: _parse_value(e["v"], mode) for e in raw.get("cylinders", [])}
    default = val("default_tail")
    try:
        if domain == "half":
            return halfdomain.HalfBoundaryData(
                level, q1=val("q1") or 0, atoms=atoms, cylinders=cylinders,
                default=default, q0=val("q0"),
            )
        if domain == "upper":
            if atoms:
                raise UsageError("upper-domain data has no atoms, use cylinders")
            return upperdomain.UpperBoundaryData(
                lam, q0=val("q0") or 0, cylinders=cylinders, default=default,
            )
        if domain == "lower":
            if atoms:
                raise UsageError("lower-domain data has no atoms, use cylinders")
            return lowerdomain.LowerBoundaryData(
                lam, q1=val("q1") or 0, q2=val("q2") or 0,
                cylinders=cylinders, default=default,
            )
    except GasketError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown domain {domain!r}")


LAMBDA_TYPES = {"upper": upperdomain.TriadicLambda, "lower": lowerdomain.BinaryLambda}


def _lam(cfg, domain=None):
    """The parsed --lambda of an upper or lower domain (cfg.domain's by default)."""
    kind = LAMBDA_TYPES.get(domain or cfg.domain)
    return None if kind is None else kind.parse(cfg.lam)


def _domain_descriptor(cfg, lam):
    if cfg.domain == "half":
        return geometry.HalfDomain(cfg.level)
    if cfg.domain == "upper":
        return geometry.UpperDomain(cut_y=lam.cut_height())
    if cfg.domain == "lower":
        return geometry.LowerDomain(cut_y=lam.cut_height())
    raise UsageError(f"unknown domain {cfg.domain!r}")


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
# commands


def _evaluate(cfg, lam, f, points):
    """Values of the explicit solution with data f at the exact points."""
    if cfg.domain == "half":
        return halfdomain.evaluate_many(f, points)
    if cfg.domain == "upper":
        return upperdomain.evaluate_upper_many(lam, f, points)
    return lowerdomain.evaluate_lower_many(lam, f, points)


def _solution_rows(cfg, lam, f, g):
    """(word, corner, x, y, value) at every vertex of g, ordered by (x, y);
    a function of its own so that the order and the points are freed
    before the output is formatted."""
    order = sorted(range(g.n_vertices()), key=lambda i: (int(g.verts[i][0]), int(g.verts[i][1])))
    points = [g.point(i) for i in order]
    rows = []
    for i, (x, y), v in zip(order, points, _evaluate(cfg, lam, f, points)):
        a = g.address(i)
        rows.append((geometry.word_to_str(a.word), a.corner, x, y, v))
    return rows


def cmd_solve(cfg):
    lam = _lam(cfg)
    dom = _domain_descriptor(cfg, lam)
    mode = cfg.mode
    if cfg.domain == "upper" and mode == "rational":
        raise UsageError("upper-domain evaluation needs eta limits: use float mode")
    if cfg.domain == "lower" and mode == "rational" and not lam.dyadic:
        raise UsageError("rational mode needs dyadic lambda (eta limits are irrational)")
    f = load_boundary_data(cfg.data_path, cfg.domain, mode, lam=lam, level=cfg.level)
    rows = _solution_rows(cfg, lam, f, oracle.domain_restricted_graph(dom, cfg.depth).graph)
    if cfg.fmt == "json":
        payload = {
            "schema": SCHEMA,
            "rows": [
                {"word": w, "corner": c, "x": _fmt(x), "y": _fmt(y), "value": _fmt(v)}
                for (w, c, x, y, v) in rows
            ],
        }
        _emit([json.dumps(payload, sort_keys=True)], cfg.out)
    else:
        lines = ["word,corner,x,y,value"]
        lines += [f"{w},{c},{_fmt(x)},{_fmt(y)},{_fmt(v)}" for (w, c, x, y, v) in rows]
        _emit(lines, cfg.out)


def cmd_eta(cfg):
    lam = _lam(cfg)
    lines = []
    if cfg.domain == "upper":
        ea = upperdomain.eta_alpha(lam, tol=1e-12)
        lines.append(f"alpha,{ea.alpha!r}")
        lines.append(f"eta,{ea.eta!r}")
        lines.append(f"iterations,{ea.depth}")
        lines.append(f"certified_bound,{ea.err!r}")
        if cfg.check_closed_form:
            if lam.value == 1:
                exact = (75 - 2353 ** 0.5) / 60
                ok = abs(ea.alpha - exact) <= 1e-9
                lines.append(f"closed_form,alpha(1)=(75-sqrt(2353))/60,{'match' if ok else 'MISMATCH'}")
            else:
                lines.append("closed_form,none_available,skipped")
    elif cfg.domain == "lower":
        ep = lowerdomain.eta_pair(lam, tol=1e-12)
        lines.append(f"eta1,{_fmt(ep.eta1)}")
        lines.append(f"eta2,{_fmt(ep.eta2)}")
        lines.append(f"iterations,{ep.depth}")
        lines.append(f"certified_bound,{_fmt(ep.err)}")
        lines.append(f"exact,{ep.exact}")
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
    else:
        raise UsageError("eta needs --domain upper or lower")
    _emit(lines, cfg.out)


def cmd_measure(cfg):
    lam, word = _lam(cfg), cfg.word or ""
    lines = []
    if cfg.domain == "half":
        mass = halfdomain.atom_mass(cfg.level, word, cfg.j)
        lines.append(f"atom_mass,{word},{cfg.j},{_fmt(mass)}")
        lines.append(f"residual_mass_depth_{cfg.depth},{_fmt(halfdomain.residual_mass(cfg.level, cfg.depth))}")
    elif cfg.domain == "upper":
        lines.append(f"cylinder_mass,{word},{upperdomain.cylinder_mass(lam, word)!r}")
    elif cfg.domain == "lower":
        m1, m2 = lowerdomain.lower_measures(lam, word)
        lines.append(f"mu1_mass,{word},{_fmt(m1)}")
        lines.append(f"mu2_mass,{word},{_fmt(m2)}")
    else:
        raise UsageError("measure needs --domain half, upper or lower")
    _emit(lines, cfg.out)


def cmd_energy(cfg):
    lines = []
    if cfg.domain == "half":
        f = load_boundary_data(cfg.data_path, "half", cfg.mode, level=cfg.level)
        q = halfdomain.energy_form_Q(f, cfg.depth)
        e = halfdomain.domain_energy(f)
        lines.append(f"Q,{_fmt(q)}")
        lines.append(f"energy,{_fmt(e)}")
        if q:
            lines.append(f"ratio,{float(e) / float(q)!r}")
            lines.append(f"upper_bound_225_28,{float(F(225, 28) * q)!r}")
    elif cfg.domain == "upper":
        lam = _lam(cfg)
        f = load_boundary_data(cfg.data_path, "upper", "float", lam=lam)
        est = upperdomain.energy_estimate_upper(lam, f.q0 or 0.0, f, cfg.depth)
        lines.append(f"weighted_sum,{est.weighted_sum!r}")
        lines.append(f"energy,{est.energy!r}")
        lines.append(f"orthogonal_energy,{est.orthogonal_energy!r}")
        lines.append(f"bracket,{est.bracket[0]!r},{est.bracket[1]!r}")
        lines.append(f"h0_band,{est.band[0]!r},{est.band[1]!r}")
    else:
        raise UsageError("energy is available for half and upper domains")
    _emit(lines, cfg.out)


def _compare_levels(cfg):
    lo, hi = cfg.levels
    lam = _lam(cfg)
    dom = _domain_descriptor(cfg, lam)
    mode = cfg.mode if cfg.domain != "upper" else "float"
    f = load_boundary_data(cfg.data_path, cfg.domain, mode, lam=lam, level=cfg.level)
    base = oracle.domain_restricted_graph(dom, cfg.depth)
    targets = [base.graph.point(i) for i in range(base.graph.n_vertices())]
    exact = dict(zip(targets, _evaluate(cfg, lam, f, targets)))
    if cfg.domain == "half":
        bval = lambda p: halfdomain.boundary_value_at(f, p)
    elif cfg.domain == "upper":
        bval = lambda p: (f.q0 if p == geometry.Q0
                          else upperdomain.boundary_value_at_upper(lam, f, p))
    else:
        bval = lambda p: (f.q1 if p == geometry.Q1 else f.q2 if p == geometry.CORNERS[2]
                          else lowerdomain.boundary_value_at_lower(lam, f, p))

    def one_level(m):
        sk = oracle.domain_restricted_graph(dom, m)
        vals = oracle.solve(sk.problem(bval), mode=cfg.mode if cfg.mode != "auto" else "float")
        diffs = [abs(float(exact[p]) - float(vals[sk.graph.vertex_id(p)])) for p in targets]
        return max(diffs), sum(diffs) / len(diffs)

    levels = list(range(lo, hi + 1))
    return levels, [one_level(m) for m in levels]


def cmd_compare(cfg):
    levels, results = _compare_levels(cfg)
    lines = ["level,max_abs,mean_abs"]
    for m, (mx, mean) in zip(levels, results):
        lines.append(f"{m},{mx!r},{mean!r}")
    maxes = [mx for mx, _ in results]
    monotone = all(a >= b - 1e-15 for a, b in zip(maxes, maxes[1:]))
    lines.append(f"monotone_decreasing,{str(monotone).lower()}")
    _emit(lines, cfg.out)
    if cfg.svg:
        _write_svg(cfg.svg, levels, maxes)


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


def cmd_haar(cfg):
    if cfg.domain not in (None, "upper"):
        raise UsageError("haar is for upper domains")
    lam = _lam(cfg, "upper")
    f = load_boundary_data(cfg.data_path, "upper", "float", lam=lam)
    b, coeffs = upperdomain.haar_expand(lam, f, cfg.depth)
    lines = ["word,j,coefficient", f",mean,{b!r}"]
    for (w, j), c in sorted(coeffs.items()):
        lines.append(f"{w},{j},{c!r}")
    _emit(lines, cfg.out)


def cmd_dtn(cfg):
    f = load_boundary_data(cfg.data_path, "half", cfg.mode, level=2)
    if f.q0 is None:
        raise UsageError("dtn needs the boundary value at q0 (the atom limit)")
    res = halfdomain.dirichlet_to_neumann_sg(f, cfg.kmax)
    lines = ["k,term,partial_sum"]
    for k, (t, s) in enumerate(zip(res.terms, res.partial_sums)):
        lines.append(f"{k},{_fmt(t)},{_fmt(s)}")
    lines.append(f"limit,{_fmt(res.limit)}")
    lines.append(f"residual,{_fmt(abs(res.partial_sums[-1] - res.limit))}")
    _emit(lines, cfg.out)


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
        sp.add_argument("--l", dest="level", type=int, default=3,
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


def _config_from_args(args):
    taken = {f.name for f in fields(RunConfig)} - {"levels"}
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in taken})
    if cfg.domain in DOMAIN_ALIASES:
        cfg.domain, cfg.level = DOMAIN_ALIASES[cfg.domain]
    if hasattr(args, "levels"):
        try:
            lo, hi = args.levels.split(":")
            cfg.levels = (int(lo), int(hi))
        except ValueError as exc:
            raise UsageError(f"bad --levels {args.levels!r}, expected lo:hi") from exc
        if cfg.levels[0] > cfg.levels[1]:
            raise UsageError(f"empty --levels {args.levels!r}: lo must not exceed hi")
    return cfg


COMMANDS = {
    "solve": cmd_solve,
    "eta": cmd_eta,
    "measure": cmd_measure,
    "energy": cmd_energy,
    "compare": cmd_compare,
    "haar": cmd_haar,
    "dtn": cmd_dtn,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command in ("eta",) and not cfg.domain:
            raise UsageError("eta needs --domain")
        if cfg.domain in ("upper", "lower") and cfg.lam is None and args.command != "dtn":
            raise UsageError(f"--lambda is required for {cfg.domain} domains")
        COMMANDS[args.command](cfg)
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
