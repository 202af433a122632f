"""Checks of the benchmark itself.

    python3 bench/selftest.py [WORKLOAD ...]

From the root of a source tree: verifies that BENCHMARK.json lists the
metrics and workloads this directory produces, that each named workload
passes its output check for the default seed and for seed 1, and that the
check rejects corrupted outputs, so that pass_frac falls.  Exits non-zero
on the first disagreement.
"""

import json
import os
import sys
import tempfile
import time
from fractions import Fraction

import check
import layers
import run
import workloads

E2E = ["wall_s", "cpu_s", "setup_s", "peak_rss_mb", "pass_frac"]


def manifest(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        sys.exit("BENCHMARK.json workloads differ from bench/workloads.py")
    if [m["name"] for m in bench["end_to_end"]] != E2E:
        sys.exit("BENCHMARK.json end-to-end metrics differ from bench/run.py")
    want = [{"name": n, "unit": u, "better": b} for n, u, b, _ in layers.LAYER_METRICS]
    if bench["per_layer"] != want:
        sys.exit("BENCHMARK.json per-layer metrics differ from bench/layers.py")


def corrupt(cmd, text):
    """Copies of one output, each with a single defect."""
    lines = text.rstrip("\n").split("\n")
    out = {"truncated": "\n".join(lines[:-1]) + "\n"}
    n = check.KEY_COLUMNS.get(cmd["argv"][0], 1)
    for i, line in enumerate(lines):
        cells = line.split(",")
        for k in range(n, len(cells)):
            try:
                value = Fraction(cells[k])
            except ValueError:
                continue
            shifted = float(value) + 1 if check.FLOAT_TOKEN.fullmatch(cells[k]) else value + 1
            cells[k] = str(shifted)
            out["value"] = "\n".join(lines[:i] + [",".join(cells)] + lines[i + 1:]) + "\n"
            break
        if "value" in out:
            break
    if cmd["argv"][0] == "solve":
        top = max(workloads.data_values(cmd["data"])) + 1
        cells = lines[1].split(",")
        cells[-1] = str(top)
        out["out_of_range"] = "\n".join(lines[:1] + [",".join(cells)] + lines[2:]) + "\n"
    return out


def main():
    root = os.getcwd()
    manifest(root)
    with open(run.REFS) as fh:
        refs = json.load(fh)
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=root) as workdir:
        runner = run.Runner(root, workdir, time.monotonic() + 3600)
        for name in names:
            for seed in (workloads.DEFAULT_SEED, 1):
                default = seed == workloads.DEFAULT_SEED
                commands = workloads.prepare(name, seed, os.path.join(workdir, f"{name}-{seed}"))
                _, _, _, results = runner.run_pass(commands, f"{name}-{seed}")
                failed = run.failures(results, refs, default)
                if failed:
                    sys.exit(f"{name} seed {seed}: {failed}")
                caught = total = 0
                for cmd, _code, path in results:
                    for kind, bad in corrupt(cmd, run.read(path)).items():
                        # a changed value is only caught by the reference,
                        # which exists for the default seed
                        if kind == "value" and not default:
                            continue
                        total += 1
                        if check.problems(cmd, bad, refs[cmd["name"]], default):
                            caught += 1
                        else:
                            print(f"NOT CAUGHT {name} seed {seed} {cmd['name']} {kind}")
                print(f"{name} seed {seed}: outputs pass; {caught}/{total} corruptions caught")
                if caught != total:
                    sys.exit("the check let a corrupted output pass")
    print("selftest passed")


if __name__ == "__main__":
    main()
