"""Smoke test of the benchmark itself at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks three things and exits non-zero if any fails:

1. every metric named in BENCHMARK.json is printed with its unit, for each
   workload, untraced and traced;
2. a hook whose target does not exist makes its layer print ``untraced``
   instead of raising;
3. a field with one cell perturbed by 1e-2 raises the error rate.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from thermoservo import GridSpec  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    Checks,
    ClosedLoop,
    FeasibilitySearch,
    FieldExport,
)

TINY = {
    "closed_loop_adaptive": lambda: ClosedLoop(
        "closed_loop_adaptive", "three_sheet_adaptive.yaml", duration_s=60.0
    ),
    "closed_loop_model_based": lambda: ClosedLoop(
        "closed_loop_model_based", "aluminum_model_based.yaml", duration_s=120.0
    ),
    "field_export": lambda: FieldExport(
        GridSpec(((-20.0, 20.0), (-20.0, 20.0), (0.0, 30.0)), 10.0), rotation_step=30.0
    ),
    "feasibility_search": lambda: FeasibilitySearch(step_cm=10.0),
}


def _quiet(fn, *args):
    """Call fn, returning (result, captured standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = fn(*args)
    return result, out.getvalue()


def check_metrics_printed(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for name, make in TINY.items():
            _, text = _quiet(run.run, make(), 1, 1.0, trace)
            last = json.loads(text.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name} trace={trace}: result keys {sorted(last)}")
            for entry in listed:
                got = last["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    failures.append(
                        f"{name} trace={trace}: {entry['name']} [{entry['unit']}] missing"
                    )
                elif not isinstance(got["value"], (int, float)):
                    failures.append(f"{name} trace={trace}: {entry['name']} not a number")
            if len(last["metrics"]) != len(listed):
                failures.append(f"{name} trace={trace}: unlisted metrics printed")


def check_missing_hook(failures: list[str]) -> None:
    saved = tracer.HOOKS
    tracer.HOOKS = tuple(
        (layer, module, "_renamed_kernel" if layer == "viewfactor" else path)
        for layer, module, path in saved
    )
    try:
        _, text = _quiet(run.run, TINY["feasibility_search"](), 1, 1.0, 1)
    except Exception as exc:  # the point of the check: report, not crash
        failures.append(f"missing hook raised {type(exc).__name__}: {exc}")
        return
    finally:
        tracer.HOOKS = saved
    if "viewfactor   untraced" not in text:
        failures.append("missing view-factor hooks not reported as untraced")


def check_perturbed_field(failures: list[str]) -> None:
    workload = TINY["field_export"]()
    workload.prepare(1, run.OUT_DIR)
    _, _, out = run.run_unit(workload)
    clean = Checks()
    workload.check(out, [out["digest"]], clean)
    translation = out["fields"][0]
    i, j, k = (int(v) for v in next(iter(zip(*(~translation.degenerate).nonzero()))))
    translation.values[i, j, k] += 1e-2
    perturbed = Checks()
    workload.check(out, [out["digest"]], perturbed)
    if clean.failed != 0:
        failures.append(f"unperturbed tiny field failed: {clean.failures}")
    if perturbed.failed / perturbed.attempted <= clean.failed / clean.attempted:
        failures.append("a 1e-2 perturbation did not raise the error rate")


def main() -> int:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    for check in (check_metrics_printed, check_missing_hook, check_perturbed_field):
        before = len(failures)
        check(failures)
        status = "ok" if len(failures) == before else "FAILED"
        print(f"{check.__name__}: {status}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
