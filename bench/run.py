"""End-to-end benchmark of the gasketbvp command line.

    python3 bench/run.py --workload explicit-solve --seed 0 --seconds 20 --trace 0

Run from the root of a source tree.  Each command of the workload runs as
users run it: a fresh interpreter doing what the `gasketbvp` console script
does, with `src/` on PYTHONPATH.  One client, closed loop: the next command
starts when the previous one has exited.  Passes over the command list
repeat until --seconds of passes have been measured.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s of the fastest
pass (cpu_s is user + sys of the children, from wait4), setup_s (median
time of a fresh `import gasketbvp.cli`), peak_rss_mb (largest child
ru_maxrss in a pass) and pass_frac (commands that exited 0 and passed the
output check, over commands attempted).  The fastest pass, not the median
one, is reported because the speed of a shared host drifts over tens of
seconds: on a 2-vCPU virtual machine, pass times within one run spread by
20 % and the median of a run moved with them.  Every pass time is in the
run record.

--trace 1 alternates untraced passes with passes through bench/tracing.py
and reports the per-layer metrics of bench/layers.py, plus the tracing
overhead (fastest traced pass minus fastest untraced pass).

Children run single-threaded: GASKET_NUM_THREADS unset and
OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = MKL_NUM_THREADS = 1.  PYTHONHASHSEED
is fixed at 0.

The last line of stdout is the result as JSON; the line before it is the
run record (versions, nproc, pinned environment, seed, src/ line count,
every pass and set-up time).

    python3 bench/run.py --write-refs

regenerates bench/refs.json from the default seed's outputs.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import check
import layers
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(BENCH_DIR, "refs.json")

# what the installed `gasketbvp` console script runs
ENTRY = "import sys; from gasketbvp.cli import main; sys.exit(main())"
IMPORT = "import gasketbvp.cli"
# set-up samples: SETUP_FIRST before the first pass, then up to
# SETUP_PER_PASS after each pass, SETUP_MAX in all, so that they spread over
# the run like the passes do
SETUP_FIRST, SETUP_PER_PASS, SETUP_MAX = 5, 3, 20
# a run stops starting passes once it could not finish within this budget
BUDGET_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fixed string hashing, so dict and set layouts repeat from run to run
PINNED_ENV = dict(THREAD_ENV, PYTHONHASHSEED="0")


class Runner:
    """Spawns one child at a time and collects its resource usage."""

    def __init__(self, root, workdir, deadline):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **PINNED_ENV)
        env.pop("GASKET_NUM_THREADS", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env

    def spawn(self, argv, out_path):
        """Run argv to completion; returns (wall_s, cpu_s, rss_mb, exit code).
        The child is killed if it would overrun the run's deadline."""
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                return 0.0, 0.0, 0.0, None
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode

    def run_pass(self, commands, tag, traced=False):
        """One closed-loop pass.  Returns (wall_s, cpu_s, peak_rss_mb, results)
        with one (command, exit code, output path) per command."""
        cpu = rss = 0.0
        results = []
        start = time.perf_counter()
        for i, cmd in enumerate(commands):
            out = os.path.join(self.workdir, f"{tag}-{i}.out")
            if traced:
                argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), out, "--"]
            else:
                argv = [sys.executable, "-c", ENTRY]
            _, c, r, code = self.spawn(argv + cmd["argv"], out)
            cpu += c
            rss = max(rss, r)
            results.append((cmd, code, out))
        return time.perf_counter() - start, cpu, rss, results


def read(path):
    with open(path) as fh:
        return fh.read()


def failures(results, refs, default_seed):
    """Names and reasons of the commands of a pass that failed."""
    failed = []
    for cmd, code, out in results:
        if code is None:
            failed.append((cmd["name"], "not started: the run's time budget is spent"))
            continue
        if code != 0:
            err = read(out + ".err").strip().splitlines()
            failed.append((cmd["name"], f"exit code {code}: {err[-1] if err else ''}"))
            continue
        reasons = check.problems(cmd, read(out), refs.get(cmd["name"]), default_seed)
        if reasons:
            failed.append((cmd["name"], "; ".join(reasons)))
    return failed


def traced_commands(results):
    """Span statistics of each command of a traced pass."""
    out = []
    for i, (cmd, _code, path) in enumerate(results):
        counters, import_s, spans = tracing.load(path, i)
        out.append({
            "argv": cmd["argv"],
            "stats": tracing.reduce_spans(spans),
            "counters": counters,
            "import_s": import_s,
            "rows": read(path).count("\n") - 1,
        })
    return out


def src_lines(root):
    total = 0
    for base, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_record(args, runner, root):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_env": {k: runner.env.get(k) for k in [*PINNED_ENV, "GASKET_NUM_THREADS"]},
        "src_lines": src_lines(root),
    }


def measure(args, root, workdir):
    deadline = time.monotonic() + BUDGET_S
    runner = Runner(root, workdir, deadline)
    commands = workloads.prepare(args.workload, args.seed, os.path.join(workdir, "data"))
    with open(REFS) as fh:
        refs = json.load(fh)
    default_seed = args.seed == workloads.DEFAULT_SEED
    record = run_record(args, runner, root)

    # compile the package's bytecode and warm the file cache, as an
    # installed package would be
    runner.spawn([sys.executable, "-c", IMPORT], os.path.join(workdir, "warm.out"))
    setup = []

    def sample_setup(count):
        if args.trace:
            return
        for _ in range(min(count, SETUP_MAX - len(setup))):
            out = os.path.join(workdir, f"setup-{len(setup)}.out")
            wall, _, _, code = runner.spawn([sys.executable, "-c", IMPORT], out)
            if code != 0:
                raise SystemExit(f"import gasketbvp.cli failed: {read(out + '.err')}")
            setup.append(wall)

    sample_setup(SETUP_FIRST)

    plain, traced, failed = [], [], []
    attempted = 0
    measured = 0.0
    started = time.monotonic()
    while True:
        n = len(plain)
        pass_start = time.monotonic()
        wall, cpu, rss, results = runner.run_pass(commands, f"p{n}")
        plain.append((wall, cpu, rss))
        attempted += len(results)
        failed += failures(results, refs, default_seed)
        measured += wall
        if args.trace:
            wall, _, _, results = runner.run_pass(commands, f"t{n}", traced=True)
            attempted += len(results)
            failed += failures(results, refs, default_seed)
            try:
                traced.append((wall, traced_commands(results)))
            except (OSError, ValueError, tracing.SpanTreeError) as exc:
                failed.append(("trace", str(exc)))
            measured += wall
        sample_setup(SETUP_PER_PASS)
        last = time.monotonic() - pass_start
        if measured >= args.seconds or time.monotonic() - started + 2 * last > BUDGET_S:
            break

    for name, reason in failed:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    median = statistics.median
    if args.trace:
        untraced_wall = min(w for w, _, _ in plain)
        traced_wall = min(w for w, _ in traced) if traced else 0
        per_pass = [layers.layer_metrics(cmds, traced_wall, untraced_wall) for _, cmds in traced]
        metrics = {
            name: {"value": median(p[name][0] for p in per_pass), "unit": unit}
            for name, unit, _, _ in layers.LAYER_METRICS
        } if per_pass else {}
    else:
        metrics = {
            "wall_s": {"value": min(w for w, _, _ in plain), "unit": "s"},
            "cpu_s": {"value": min(c for _, c, _ in plain), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": median(r for _, _, r in plain), "unit": "MB"},
            "pass_frac": {"value": (attempted - len(failed)) / attempted, "unit": "ratio"},
        }
    record["pass_wall_s"] = [w for w, _, _ in plain]
    record["pass_cpu_s"] = [c for _, c, _ in plain]
    record["setup_s"] = setup
    print(json.dumps({"run_record": record}, sort_keys=True))
    return {"correct": not failed and bool(metrics), "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def write_refs(root, workdir):
    runner = Runner(root, workdir, time.monotonic() + 3600)
    refs = {}
    for name in workloads.WORKLOADS:
        commands = workloads.prepare(name, workloads.DEFAULT_SEED, os.path.join(workdir, name))
        _, _, _, results = runner.run_pass(commands, name)
        for cmd, code, out in results:
            if code != 0:
                raise SystemExit(f"{cmd['name']} exited {code}: {read(out + '.err')}")
            refs[cmd["name"]] = check.reference(cmd, read(out))
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gasketbvp", "cli.py")):
        parser.exit(2, f"error: {root} holds no gasketbvp source tree (src/gasketbvp)\n")
    if not args.write_refs and args.workload is None:
        parser.error("--workload is required")
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=root)
    try:
        if args.write_refs:
            write_refs(root, workdir)
            return
        result = measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
