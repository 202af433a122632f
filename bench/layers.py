"""Per-layer metrics of the traced run, one layer per gasketbvp module.

Each entry is (name, unit, better, moves): `moves` names the end-to-end
metric and workload that a change in this layer metric should move, so a
later change can state its prediction by name before it is measured.

A name `<span>.<calls|self_s|total_s>` is read from the span statistics of
tracing.py; the others are derived in `layer_metrics`.
"""

OF = "wall_s, peak_rss_mb on oracle-float"
EX = "wall_s on explicit-solve"
SH = "wall_s on short-commands"

SPAN_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def _spans(prefix, kinds, moves):
    return [(f"{prefix}.{k}", SPAN_UNITS[k], "lower", moves) for k in kinds]


CS = ("calls", "self_s")
CT = ("calls", "total_s")

LAYER_METRICS = [
    # cli
    ("cli.import_s", "s", "lower", "setup_s on every workload; " + SH),
    *_spans("cli.main", ("self_s",), SH + " (import excluded); wall_s on explicit-solve (row sort, format, write)"),
    *_spans("cli.load_boundary_data", CT, SH),
    # geometry
    *_spans("geometry.build_graph", CT, OF),
    *_spans("geometry.Graph.index", ("total_s",), OF),
    *_spans("geometry.Graph.vertex_id", CS, OF),
    *_spans("geometry.Graph.neighbors", CS, "wall_s on oracle-exact"),
    *_spans("geometry.cells_containing", CS, EX),
    *_spans("geometry.classify_boundary", ("calls",), EX),
    # oracle
    *_spans("oracle.domain_restricted_graph", CS, OF),
    *_spans("oracle.DomainSkeleton.problem", CS, OF + "; wall_s on oracle-exact"),
    *_spans("oracle.solve", CS, OF + "; wall_s on oracle-exact (exact elimination)"),
    ("oracle.unknowns", "count", "lower", OF),
    ("oracle.lu.factor_s", "s", "lower", OF),
    ("oracle.lu.solve_s", "s", "lower", OF),
    ("oracle.lu.fill_nnz", "count", "lower", OF),
    ("oracle.lu.fill_ratio", "ratio", "lower", OF),
    # _exact
    *_spans("exact.solve_dense", CT, EX),
    # harmonic
    *_spans("harmonic.harmonic_value_in_cell", CS, EX),
    *_spans("harmonic.cell_extension", CS, EX),
    *_spans("harmonic.triangle_energy", ("calls",), SH),
    ("harmonic.cache_misses", "count", "lower", EX),
    # halfdomain
    *_spans("halfdomain.evaluate", CS, EX),
    *_spans("halfdomain.extend_step", CS, EX),
    *_spans("halfdomain.integrate", CS, EX),
    *_spans("halfdomain.HalfBoundaryData.subtree", CS, EX),
    *_spans("halfdomain.HalfBoundaryData.shifted", CS, EX),
    *_spans("halfdomain.HalfBoundaryData.atom", CS, EX),
    ("halfdomain.extend_step.per_row", "ratio", "lower", EX),
    *_spans("halfdomain.boundary_value_at", CT, "wall_s on oracle-float and oracle-exact"),
    *_spans("halfdomain.domain_energy", ("total_s",), SH),
    *_spans("halfdomain.energy_form_Q", ("total_s",), SH),
    *_spans("halfdomain.dirichlet_to_neumann_sg", ("total_s",), SH),
    # upperdomain
    *_spans("upperdomain.evaluate_upper", CS, EX),
    *_spans("upperdomain.extend_step_upper", CS, EX),
    *_spans("upperdomain.integrate_upper", CS, EX),
    *_spans("upperdomain.UpperBoundaryData.subtree", CS, EX),
    *_spans("upperdomain.UpperBoundaryData.shifted", CS, EX),
    *_spans("upperdomain.boundary_value_at_upper", CT, "wall_s on oracle-float"),
    *_spans("upperdomain.eta_alpha", ("calls",), EX + "; " + SH),
    ("upperdomain.eta_cache_misses", "count", "lower", SH),
    *_spans("upperdomain.haar_expand", ("total_s",), SH),
    *_spans("upperdomain.energy_estimate_upper", ("total_s",), SH),
    # lowerdomain
    *_spans("lowerdomain.evaluate_lower", CS, EX),
    *_spans("lowerdomain.extend_step_lower", CS, EX),
    *_spans("lowerdomain.integrate_lower", CS, EX),
    *_spans("lowerdomain.LowerBoundaryData.subtree", CS, EX),
    *_spans("lowerdomain.LowerBoundaryData.shifted", CS, EX),
    *_spans("lowerdomain.lower_measures", ("calls",), EX),
    *_spans("lowerdomain.transfer_matrix", ("calls",), EX),
    *_spans("lowerdomain.boundary_value_at_lower", CT, "wall_s on oracle-float and oracle-exact"),
    *_spans("lowerdomain.eta_pair", ("calls",), SH),
    ("lowerdomain.eta_cache_misses", "count", "lower", SH),
    # the tracing itself
    ("trace.wall_s", "s", "lower", "none: wall_s of a traced pass"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
]


def layer_metrics(commands, traced_wall, untraced_wall):
    """Metric values of one traced pass.

    commands: per command, a dict with `stats` (tracing.reduce_spans),
    `counters`, `import_s`, `argv` and `rows` (data rows of its output).
    """
    totals = {}
    counters = {}
    solve_rows = solve_steps = 0
    for cmd in commands:
        for name, stat in cmd["stats"].items():
            for kind in SPAN_UNITS:
                key = f"{name}.{kind}"
                totals[key] = totals.get(key, 0) + stat[kind]
        for name, n in cmd["counters"].items():
            counters[name] = counters.get(name, 0) + n
        steps = cmd["stats"].get("halfdomain.extend_step", {}).get("calls", 0)
        if cmd["argv"][0] == "solve" and steps:
            solve_rows += cmd["rows"]
            solve_steps += steps
    derived = {
        "cli.import_s": sum(cmd["import_s"] for cmd in commands),
        "oracle.unknowns": counters.get("oracle.unknowns", 0),
        "oracle.lu.factor_s": totals.get("oracle.lu.factor.total_s", 0),
        "oracle.lu.solve_s": totals.get("oracle.lu.solve.total_s", 0),
        "oracle.lu.fill_nnz": counters.get("oracle.lu.fill_nnz", 0),
        "oracle.lu.fill_ratio": (counters["oracle.lu.fill_nnz"] / counters["oracle.lu.a_nnz"]
                                 if counters.get("oracle.lu.a_nnz") else 0),
        "harmonic.cache_misses": counters.get("harmonic.cache_misses", 0),
        "upperdomain.eta_cache_misses": counters.get("upperdomain.eta_cache_misses", 0),
        "lowerdomain.eta_cache_misses": counters.get("lowerdomain.eta_cache_misses", 0),
        "halfdomain.extend_step.per_row": solve_steps / solve_rows if solve_rows else 0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name, unit, _better, _moves in LAYER_METRICS:
        value = derived[name] if name in derived else totals.get(name, 0)
        out[name] = (value, unit)
    return out
