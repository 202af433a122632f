"""Span tracing of the gasketbvp modules from outside the program.

Run as a script, this is the traced entry point of one CLI command:

    python3 bench/tracing.py SPAN_PREFIX -- solve --domain half-sg3 ...

It times `import gasketbvp.cli`, wraps the public functions listed in
TRACED, runs `gasketbvp.cli.main(argv)` and exits with its code.  Spans are
kept in memory and written when the command ends, to SPAN_PREFIX.bin (one
int64 record per field: name index, parent span, start ns, end ns) and
SPAN_PREFIX.json (span names and the counters read outside the spans).

Imported, it reads those files back and reduces them to per-layer metrics.
Only the standard library is used here, so the import of this file adds
nothing to the timed import of the package.
"""

import array
import functools
import importlib
import json
import sys
import time

# (module, attribute path) of every traced function.  Each is patched on its
# class, in its module and wherever another gasketbvp module binds the same
# function object by name (so `from ._exact import solve_dense` is seen).
TRACED = [
    ("cli", "main"),
    ("cli", "load_boundary_data"),
    ("geometry", "build_graph"),
    ("geometry", "Graph.index"),
    ("geometry", "Graph.vertex_id"),
    ("geometry", "Graph.neighbors"),
    ("geometry", "cells_containing"),
    ("geometry", "classify_boundary"),
    ("oracle", "domain_restricted_graph"),
    ("oracle", "DomainSkeleton.problem"),
    ("oracle", "solve"),
    ("_exact", "solve_dense"),
    ("harmonic", "harmonic_value_in_cell"),
    ("harmonic", "cell_extension"),
    ("harmonic", "triangle_energy"),
    ("halfdomain", "evaluate"),
    ("halfdomain", "extend_step"),
    ("halfdomain", "integrate"),
    ("halfdomain", "HalfBoundaryData.subtree"),
    ("halfdomain", "HalfBoundaryData.shifted"),
    ("halfdomain", "HalfBoundaryData.atom"),
    ("halfdomain", "boundary_value_at"),
    ("halfdomain", "domain_energy"),
    ("halfdomain", "energy_form_Q"),
    ("halfdomain", "dirichlet_to_neumann_sg"),
    ("upperdomain", "evaluate_upper"),
    ("upperdomain", "extend_step_upper"),
    ("upperdomain", "integrate_upper"),
    ("upperdomain", "UpperBoundaryData.subtree"),
    ("upperdomain", "UpperBoundaryData.shifted"),
    ("upperdomain", "boundary_value_at_upper"),
    ("upperdomain", "eta_alpha"),
    ("upperdomain", "haar_expand"),
    ("upperdomain", "energy_estimate_upper"),
    ("lowerdomain", "evaluate_lower"),
    ("lowerdomain", "extend_step_lower"),
    ("lowerdomain", "integrate_lower"),
    ("lowerdomain", "LowerBoundaryData.subtree"),
    ("lowerdomain", "LowerBoundaryData.shifted"),
    ("lowerdomain", "lower_measures"),
    ("lowerdomain", "transfer_matrix"),
    ("lowerdomain", "boundary_value_at_lower"),
    ("lowerdomain", "eta_pair"),
]

# sparse LU as reached through `oracle.spla`
LU_FACTOR = "oracle.lu.factor"
LU_SOLVE = "oracle.lu.solve"

# module caches whose growth over a command is counted as misses
CACHES = [
    ("harmonic", "_BASIS_CACHE", "harmonic.cache_misses"),
    ("upperdomain", "_ETA_CACHE", "upperdomain.eta_cache_misses"),
    ("lowerdomain", "_ETA_CACHE", "lowerdomain.eta_cache_misses"),
]

FIELDS = 4  # name index, parent span index (-1 at the root), start ns, end ns


def span_name(module, path):
    return f"{module.lstrip('_')}.{path}"


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.names = []
        self.records = array.array("q")
        self.stack = [-1]
        self.counters = {}

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        """Return fn timed as span `name`.  `before(args)` runs before the span
        starts and `after(args, result)` once it has ended, so that counts
        are read outside the timed interval."""
        nid = len(self.names)
        self.names.append(name)
        records, stack, clock = self.records, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(records) // FIELDS
            records.extend((nid, stack[-1], 0, 0))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[idx * FIELDS + 2] = start
                records[idx * FIELDS + 3] = end
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    def write(self, prefix, header):
        with open(prefix + ".bin", "wb") as fh:
            self.records.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump(dict(header, names=self.names, counters=self.counters), fh)


class _LUProxy:
    """SuperLU object whose `solve` is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _SplaProxy:
    """Stand-in for `scipy.sparse.linalg` inside `oracle`, tracing `splu`."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer

        def fill(args, lu):
            tracer.count("oracle.lu.fill_nnz", lu.L.nnz + lu.U.nnz)
            tracer.count("oracle.lu.a_nnz", args[0].nnz)

        self._factor = tracer.wrap(LU_FACTOR, spla.splu, after=fill)

    def splu(self, *args, **kwargs):
        lu = self._factor(*args, **kwargs)
        return _LUProxy(lu, self._tracer.wrap(LU_SOLVE, lu.solve))

    def __getattr__(self, attr):
        return getattr(self._spla, attr)


def install(tracer):
    """Patch every TRACED function of the imported package."""
    modules = {m: importlib.import_module(f"gasketbvp.{m}") for m, _ in TRACED}
    package = [sys.modules[n] for n in list(sys.modules) if n.startswith("gasketbvp.")]

    def unknowns(args):
        problem = args[0]
        tracer.count("oracle.unknowns",
                     problem.graph.n_vertices() - len(set(problem.boundary_ids.tolist())))

    for module, path in TRACED:
        owner = modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        name = span_name(module, path)
        wrapped = tracer.wrap(name, fn, before=unknowns if name == "oracle.solve" else None)
        setattr(owner, attr, wrapped)
        if not outer:
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
    modules["oracle"].spla = _SplaProxy(modules["oracle"].spla, tracer)


def cache_sizes():
    return {metric: len(getattr(sys.modules[f"gasketbvp.{m}"], attr))
            for m, attr, metric in CACHES}


def traced_main(prefix, argv):
    start = time.perf_counter_ns()
    import gasketbvp.cli as cli
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    install(tracer)
    before = cache_sizes()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        for metric, size in cache_sizes().items():
            tracer.count(metric, size - before[metric])
        tracer.write(prefix, {"import_s": import_ns / 1e9, "exit_code": code})
    return code


# ---------------------------------------------------------------------------
# reading spans back


class SpanTreeError(Exception):
    pass


def load(prefix, command):
    """Spans of one command as (counters, import_s, spans), where each span
    is (name, parent span index, start_ns, end_ns, command index)."""
    with open(prefix + ".json") as fh:
        header = json.load(fh)
    records = array.array("q")
    with open(prefix + ".bin", "rb") as fh:
        records.frombytes(fh.read())
    names = header["names"]
    spans = [
        (names[records[i]], records[i + 1], records[i + 2], records[i + 3], command)
        for i in range(0, len(records), FIELDS)
    ]
    return header["counters"], header["import_s"], spans


def _union_ns(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def reduce_spans(spans):
    """Per span name: calls, total_s (outermost spans of that name only, so
    recursion is not counted twice) and self_s (duration minus the union of
    child intervals).  Raises SpanTreeError if a parent's children last
    longer than the parent or lie outside it."""
    children = {}
    for i, (_, parent, start, end, _cmd) in enumerate(spans):
        if end < start:
            raise SpanTreeError(f"span {i} ends before it starts")
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats = {}
    for i, (name, parent, start, end, _cmd) in enumerate(spans):
        dur = end - start
        kids = children.get(i, ())
        if kids:
            if sum(b - a for a, b in kids) > dur:
                raise SpanTreeError(f"children of span {i} ({name}) outlast it")
            if min(a for a, _ in kids) < start or max(b for _, b in kids) > end:
                raise SpanTreeError(f"a child of span {i} ({name}) lies outside it")
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[2] += dur - _union_ns(kids, start, end)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            entry[1] += dur
    return {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
            for name, (c, t, s) in stats.items()}


if __name__ == "__main__":
    # mirror the untraced command's import path: no bench/ on sys.path
    sys.path[0] = ""
    sep = sys.argv.index("--")
    sys.exit(traced_main(sys.argv[1], sys.argv[sep + 1:]))
