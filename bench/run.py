"""detksat benchmark: seeded workloads, oracle-checked solve timings and a
per-module trace.

    python3 bench/run.py --workload br3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The run repeats passes over the workload until ``--seconds`` is
used up. Each pass is a fresh worker process that imports the library,
generates the instances, and solves them one after another in an order
drawn from ``--seed``: a closed loop with one caller, one process and no
threads. A fresh process per pass keeps every pass cold, as a
``detksat solve`` user sees it, so that caches inside the library help only
within a pass. Every verdict is compared with the stored oracle reference
(``reference.json``) and every SAT assignment is checked against the
clauses. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. Each instance's
time is the median over passes; ``batch_s`` sums these medians and
``solve_s_p50`` is their median. ``setup_s`` (process start to the first
timed call) and ``peak_rss_mb`` are medians over the passes. Times are
reported at the machine's fast speed (see ``SPEED_NOMINAL_S``). With
``--trace 1`` traced and untraced passes alternate; the metrics are the
per-layer ones of the traced passes, and ``trace.overhead_ratio`` compares
the two kinds.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".bench_out"  # spans of the first traced pass of each run
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s

# The machine runs the same Python code up to 1.8x slower for stretches of
# seconds to minutes, as its neighbours load the host. A pass times a fixed
# kernel before each solve and after the last one. A solve's speed factor is
# the median kernel time just before and just after it, over
# SPEED_NOMINAL_S; the run reports each time divided by its factor, that is
# at the machine's fast speed. NOTES.md has the evidence.
SPEED_NOMINAL_S = 0.006
SPEED_SAMPLES = 20  # kernel timings per pass at least


def _import_library():
    """Import detksat from this checkout's source, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "detksat" / "__init__.py").is_file():
        raise ImportError("no detksat package under %s" % src)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    import detksat

    if Path(detksat.__file__).resolve().parent != src / "detksat":
        raise ImportError("detksat was imported from %s" % detksat.__file__)


# ---------------------------------------------------------------------------
# one pass, in the worker process


def solve_order(count: int, seed: int, pass_index: int) -> list[int]:
    order = list(range(count))
    random.Random(seed * 1_000_003 + pass_index).shuffle(order)
    return order


def speed_kernel() -> int:
    """Fixed pure-Python work, dict lookups and compares like the solver's
    inner loops; about 6 ms when the machine runs fast."""
    table = {i: i & 1 for i in range(64)}
    hits = 0
    for _ in range(1500):
        for i in range(64):
            if (table.get(i, 0) == 1) == (i > 3):
                hits += 1
    return hits


def time_kernel(repeat: int) -> list[float]:
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        speed_kernel()
        out.append(time.perf_counter() - t0)
    return out


def run_pass(insts: list, reference: dict, order: list[int], tracer=None) -> dict:
    """Solve every instance once, in ``order``; time, check and digest each,
    and time the speed kernel around each solve."""
    from workloads import digest, reference_problem

    results = []
    counters: dict = {}
    per_solve = -(-SPEED_SAMPLES // len(order))
    kernels = [time_kernel(per_solve)]
    for i in order:
        inst = insts[i]
        t0 = time.perf_counter()
        try:
            solved = inst.solve()
        except Exception as e:  # any exception is a failed operation
            seconds = time.perf_counter() - t0
            results.append({"id": inst.id, "seconds": seconds, "digest": "",
                            "problem": "%s: %s" % (type(e).__name__, e)})
        else:
            seconds = time.perf_counter() - t0
            problem = solved.problem or reference_problem(inst, solved, reference.get(inst.id))
            results.append({"id": inst.id, "seconds": seconds,
                            "digest": digest(solved.behaviour), "problem": problem})
            for k, v in solved.counters.items():
                counters[k] = max(counters.get(k, 0), v) if k == "max_depth" else counters.get(k, 0) + v
        kernels.append(time_kernel(per_solve))
    for r, before, after in zip(results, kernels, kernels[1:]):
        r["speed"] = statistics.median(before + after) / SPEED_NOMINAL_S
    out = {
        "results": results,
        "speed": statistics.median(t for ts in kernels for t in ts) / SPEED_NOMINAL_S,
        "setup_speed": statistics.median(kernels[0]) / SPEED_NOMINAL_S,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(counters)
    return out


def worker(args) -> None:
    from tracer import Tracer
    from workloads import instances

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    insts = instances(args.workload, args.smoke)
    reference = json.loads(REFERENCE.read_text())["instances"]
    order = solve_order(len(insts), args.seed, args.pass_index)
    setup_s = time.time() - args.spawned_at
    out = run_pass(insts, reference, order, tracer)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["missing_sites"] = tracer.missing
        if args.pass_index == 1:
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.write(SPANS_DIR / ("%s-seed%d.spans.jsonl" % (args.workload, args.seed)))
    print(json.dumps(out))


# ---------------------------------------------------------------------------
# the run, in the parent process


def spawn_pass(args, pass_index: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index), "--traced", str(int(traced)),
           "--spawned-at", repr(time.time())]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("pass %d exited with %d" % (pass_index, proc.returncode))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    return out


def per_instance_medians(passes: list[dict], at_speed: bool = True) -> dict:
    """Each instance's median time over the passes, at the machine's fast
    speed unless ``at_speed`` is false."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p["results"]:
            times.setdefault(r["id"], []).append(r["seconds"] / (r["speed"] if at_speed else 1.0))
    return {k: statistics.median(v) for k, v in times.items()}


def layers_at_speed(p: dict) -> dict:
    out = {}
    for k, v in p["layers"].items():
        unit = _unit(k)
        out[k] = v / p["speed"] if unit == "s" else v * p["speed"] if unit == "1/s" else v
    return out


def loc_metrics() -> dict:
    """Non-blank, non-comment lines of each module of ``src/detksat``."""
    out = {}
    total = 0
    for path in sorted((ROOT / "src" / "detksat").glob("*.py")):
        lines = [l.strip() for l in path.read_text().splitlines()]
        n = sum(1 for l in lines if l and not l.startswith("#"))
        name = "init" if path.stem == "__init__" else path.stem
        out["%s.loc" % name] = n
        total += n
    out["total.loc"] = total
    return out


def measure(args) -> dict:
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(spawn_pass(args, len(passes), traced, max(5.0, RUN_LIMIT_S - elapsed)))
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / len(passes)
        floor = 4 if args.trace else MIN_PASSES
        if len(passes) >= floor and elapsed + mean_pass > args.seconds:
            break
        if elapsed + mean_pass > RUN_LIMIT_S - 10:
            break
    return summarize(args, passes)


def summarize(args, passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    results = [r for p in passes for r in p["results"]]
    failed = [r for r in results if r["problem"]]
    for r in failed[:10]:
        print("failed: %s: %s" % (r["id"], r["problem"]), file=sys.stderr)
    medians = per_instance_medians(plain)
    batch_s = sum(medians.values())
    if not args.trace:
        metrics = {
            "batch_s": (batch_s, "s"),
            "solve_s_p50": (statistics.median(medians.values()), "s"),
            "setup_s": (statistics.median(p["setup_s"] / p["setup_speed"] for p in plain), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        }
    else:
        from tracer import median_metrics

        layers = median_metrics([layers_at_speed(p) for p in traced])
        stored = json.loads(REFERENCE.read_text())["instances"]
        drifted = {r["id"] for r in results
                   if r["digest"] and r["digest"] != stored.get(r["id"], {}).get("digest")}
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        traced_batch = sum(per_instance_medians(traced).values())
        metrics["trace.overhead_ratio"] = (traced_batch / batch_s, "ratio")
        metrics["behaviour.digest_mismatches"] = (len(drifted), "count")
        metrics["behaviour.fail_ratio"] = (len(failed) / len(results), "ratio")
        metrics["machine.speed_factor"] = (statistics.median(p["speed"] for p in passes), "ratio")
        metrics["machine.batch_wall_s"] = (
            sum(per_instance_medians(plain, at_speed=False).values()), "s")
        metrics.update({k: (v, "lines") for k, v in loc_metrics().items()})
        for site in traced[0].get("missing_sites", []):
            print("trace: no %s to wrap" % site, file=sys.stderr)
    print("%s: %d passes (%d traced), %d solves" % (
        args.workload, len(passes), len(traced), len(results)), file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rate"):
        return "1/s"
    if name.endswith("balls_per_center"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    from_start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("br3", "dls-threshold", "dls-sat", "table2"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one tiny instance per workload, for the benchmark's tests")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, default=from_start, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        _import_library()
    except ImportError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.worker:
        worker(args)
        return 0
    try:
        report = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
