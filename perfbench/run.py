"""thermoservo benchmark: one workload, end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload closed_loop_adaptive --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` the workload's unit (one CLI invocation's worth of API
calls) runs untraced as many times as fit in ``--seconds`` (at least once)
and the end-to-end metrics are printed. With ``--trace 1`` one untraced and
one traced unit run, followed by the micro set, and the per-layer metrics
are printed. Either way every output is checked against references
computed outside the timed region. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (correctness checks)
and ``metrics``, named and ordered as in ``BENCHMARK.json``.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 11

SETUP_TEMPLATE = """import time
t0 = time.perf_counter()
{body}print(repr(time.perf_counter() - t0))
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def setup_seconds(workload) -> list[float]:
    """Fresh-interpreter import of thermoservo plus the workload's set-up."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = SETUP_TEMPLATE.format(body=workload.setup_code())
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def peak_rss_mb() -> tuple[float, float]:
    """(this process, largest reaped child) peak resident set, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def deviations_line(checks) -> str:
    """Largest deviation seen against each reference."""
    return "deviations: " + ", ".join(
        f"{name} {value:.3g}" for name, value in checks.deviations.items()
    )


def run_unit(workload, tracer=None):
    gc.collect()
    t0 = perf_counter()
    items, payload = workload.unit(tracer)
    wall = perf_counter() - t0
    return items, wall, workload.collect(payload)


def end_to_end(workload, seconds: float, checks):
    """Untraced units until `seconds` would be exceeded, then checks and
    set-up time. Returns (metrics, report lines).

    Peak RSS is read after the first unit: later units would add what the
    allocator keeps from earlier ones, so the figure would depend on how
    many units fit. Earlier units' outputs are kept only as digests."""
    counts, walls, digests = [], [], []
    begin = perf_counter()
    while True:
        out = None
        items, wall, out = run_unit(workload)
        if not walls:
            own_mb, child_mb = peak_rss_mb()
        counts.append(items)
        walls.append(wall)
        digests.append(out["digest"])
        if perf_counter() - begin + wall > seconds:
            break
    workload.check(out, digests, checks)
    setups = setup_seconds(workload)

    # Work completed per second over every unit of the run. Printed under the
    # item's own name; the JSON carries it as items_per_s.
    rate_name = f"{workload.item}_per_s"
    rate = sum(counts) / sum(walls)
    vf_err = checks.vf_max_abs_err
    lines = [
        f"{rate_name:<16} {rate:.6g} {workload.item}/s  {sum(counts)} {workload.item} in "
        f"{len(walls)} runs of {', '.join(f'{w:.3f}' for w in walls)} s",
        f"{'setup_s':<16} {median(setups):.6g} s  median of {len(setups)} fresh processes "
        f"({', '.join(f'{s:.4f}' for s in setups)})",
        f"{'peak_rss_mb':<16} {own_mb + child_mb:.6g} MB  process {own_mb:.1f} MB + "
        f"largest child {child_mb:.1f} MB",
        f"{'error_rate':<16} {checks.failed / checks.attempted:.6g} ratio  "
        f"{checks.failed} failed / {checks.attempted} checks",
        f"{'vf_max_abs_err':<16} "
        + (f"{vf_err:.3g} 1  over the sampled cells" if vf_err is not None else "n/a"),
        deviations_line(checks),
    ]
    metrics = {
        "items_per_s": rate,
        "setup_s": median(setups),
        "peak_rss_mb": own_mb + child_mb,
    }
    return metrics, lines


def per_layer(workload, seed: int, checks):
    """One untraced and one traced unit, checks, then the micro set.
    Returns (metrics, report lines, notes by layer or metric name)."""
    from layers import analyse
    from micro import run_micro
    from tracer import Tracer

    _, wall_plain, out = run_unit(workload)
    digest_plain = out["digest"]
    out = None
    tracer = Tracer(OUT_DIR / "workers")
    for stale in tracer.out_dir.glob("worker-*.json"):
        stale.unlink()
    tracer.install()
    try:
        _, wall_traced, out_traced = run_unit(workload, tracer)
    finally:
        tracer.uninstall()
    tracer.finalize()
    workload.check(out_traced, [digest_plain, out_traced["digest"]], checks)

    metrics, notes = analyse(tracer, workload.facts(out_traced))
    metrics["viewfactor.max_abs_err"] = checks.vf_max_abs_err or 0.0
    micro = run_micro(seed, OUT_DIR)
    for name, (value, _, _) in micro.items():
        metrics[name] = value
    metrics["trace.overhead"] = wall_traced / wall_plain - 1.0
    tracer.write(OUT_DIR / f"trace-{workload.name}-{seed}.jsonl")

    lines = [
        f"untraced unit {wall_plain:.3f} s, traced unit {wall_traced:.3f} s",
        deviations_line(checks),
    ]
    lines += [f"{layer:<12} {note}" for layer, note in notes.items()]
    for name, (_, samples, _) in micro.items():
        notes[name] = f"median of {samples} calls"
    for name in ("viewfactor.node_pairs", "viewfactor.pairs_per_s"):
        notes.setdefault(name, "computed: (n+1)^2 per pair integral, Partial counts 2")
    return metrics, lines, notes


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print the report and return the result object
    whose JSON form is the last line of output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import Checks

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed, OUT_DIR)
    checks = Checks()
    print(f"thermoservo benchmark: workload={workload.name} seed={seed} trace={trace}")
    notes = {}
    if trace:
        metrics, lines, notes = per_layer(workload, seed, checks)
        listed = spec["per_layer"]
    else:
        metrics, lines = end_to_end(workload, seconds, checks)
        listed = spec["end_to_end"]
    for line in lines:
        print("  " + line)
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {},
    }
    for entry in listed:
        name = entry["name"]
        value = metrics[name]
        result["metrics"][name] = {"value": value, "unit": entry["unit"]}
        if trace:
            note = "; ".join(n for n in (notes.get(name.split(".")[0]), notes.get(name)) if n)
            note = f"  [{note}]" if note else ""
            print(f"  {name:<32} {value:.6g} {entry['unit']}{note}")
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermoservo" / "__init__.py").is_file():
        print(f"no thermoservo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
