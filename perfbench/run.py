"""Benchmark entry point.

    python3 perfbench/run.py --workload fig11-failover --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all``) from the root of a source checkout and
prints a metric table followed, on the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same cases a second time
with per-layer timing wrappers installed and reports the per-layer
metrics.  ``attempted`` and ``failed`` count cases (one simulation run
each); a case fails when one of its correctness checks does.

Correctness checks: the workload's own (see ``workloads.py``), plus the
``sim_digest`` — a hash of every simulated output — which must repeat
exactly when a case is run again in the same process, when the traced
pass re-runs every case, and across processes run on the same code and
seed (recorded in ``perfbench/out/digests.json``).  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
NAMES = ("fig11-failover", "fabric-300", "chaos-check")
#: The str-hash seed every run uses; part of what a sim_digest depends on.
HASH_SEED = "0"


def run_pass(run_case, specs):
    """Run every case in order; the cluster of one case is freed (outside
    any timing) before the next is built."""
    cases = []
    for spec in specs:
        cases.append(run_case(spec))
        gc.collect()
    return cases


def declared_units(kind: str) -> dict:
    """``metric -> unit`` for one metric list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def code_fingerprint() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_recorded_digest(key: str, sim_digest: str) -> str:
    """Compare with the digest an earlier process recorded for ``key``;
    record it if none was.  Returns a problem description or ''."""
    path = OUT / "digests.json"
    try:
        recorded = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        recorded = {}
    if key in recorded:
        if recorded[key] != sim_digest:
            return f"sim_digest {sim_digest} differs from {recorded[key]} recorded for {key}"
        return ""
    recorded[key] = sim_digest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return ""


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    from perfbench.report import end_to_end, per_layer
    from perfbench.spans import SpanTracer
    from perfbench.stats import digest
    from perfbench.workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    plan, run_case = WORKLOADS[name]
    specs = plan(seed, seconds)
    start = perf_counter()
    cases = run_pass(run_case, specs)
    problems = [p for c in cases for p in c.problems]
    sim_digest = digest([c.digest for c in cases])
    notes = []
    if not trace:
        again = run_case(specs[0])
        if again.digest != cases[0].digest:
            problems.append(f"{cases[0].label}: re-run in the same process changed sim_digest")
        del again
        gc.collect()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end(cases, peak_rss_mb)
    else:
        tracer = SpanTracer()
        with tracer:
            traced = run_pass(run_case, specs)
        if digest([c.digest for c in traced]) != sim_digest:
            problems.append("traced pass changed sim_digest")
        problems += [p for c in traced for p in c.problems]

        def wall(cs):
            return sum(c.setup_s + c.host_s for c in cs)

        metrics = per_layer(cases, tracer, wall(traced) / wall(cases))
        tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                     workload=name, seed=seed, seconds=seconds, sim_digest=sim_digest)
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        problems.append(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    key = f"{name}|seed={seed}|seconds={seconds}|code={code_fingerprint()}"
    problem = check_recorded_digest(key, sim_digest)
    if problem:
        problems.append(problem)

    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "metrics": metrics, "sim_digest": sim_digest, "problems": problems,
        "cases": [dict(label=c.label, setup_s=c.setup_s, host_s=c.host_s,
                       sim_s=c.sim_s, ops=len(c.ops), events=c.events,
                       verdict=c.verdict, digest=c.digest) for c in cases],
    }, indent=1))
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)}: "
          f"{len(cases)} cases in {perf_counter() - start:.1f} s")
    for metric, value in metrics.items():
        print(f"  {metric:28s} {value:14.6g} {units.get(metric, '?')}")
    for line in notes:
        print(f"  # {line}")
    print(f"  sim_digest {sim_digest}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    failed_cases = sum(1 for c in cases if c.problems)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(cases),
        "failed": failed_cases,
        "metrics": {m: {"value": v, "unit": units.get(m, "?")} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, one after another, so that peak
    memory is per workload."""
    results = {}
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok and code == 0,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {n: r["metrics"] for n, r in results.items() if r},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Under packet loss the program's event order depends on the
        # iteration order of sets of node names, i.e. on str hashing, so
        # a random hash seed would make runs of the same code and seed
        # differ.  Pin it by replacing this process (no child is left).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
