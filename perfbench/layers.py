"""Per-layer metrics from the spans of one traced unit.

Self time is a span's duration minus the part of it its child spans cover
and minus the tracer's own bookkeeping inside it. Node pairs are computed,
not measured: (n+1)^2 per pair integral, a Partial evaluation integrating
two pairs (arc and chord).
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from thermoservo import Pose
from thermoservo.geometry import Common, Partial, classify_occlusion

from tracer import ARGS, CONTROL_LAWS, END, ERROR, NAME, OVERHEAD, PARENT, RESULT, START

DEGENERATE = "DegeneratePoseError"


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _pct_us(durations, q) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def _pair_count(key, cache) -> tuple[int, bool]:
    """(node pairs, is Partial) of one non-degenerate evaluation."""
    pose_vec, radius, _, n = key
    hit = cache.get((pose_vec, radius))
    if hit is None:
        occlusion = classify_occlusion(Pose(*pose_vec), radius)
        hit = cache[(pose_vec, radius)] = (
            2 if isinstance(occlusion, Partial) else int(isinstance(occlusion, Common))
        )
    return hit * (n + 1) ** 2, hit == 2


def analyse(tracer, facts: dict):
    """Return (metrics, notes): metric name -> value, layer -> note.

    `facts` carries what the workload knows from its outputs (ticks,
    cells, bytes). Every workload evaluates view factors, so a traced unit
    that recorded none reports that layer as untraced, not as idle.
    """
    spans = tracer.spans
    layer_of = tracer.layers
    kids = defaultdict(list)
    for idx, s in enumerate(spans):
        kids[s[PARENT]].append(idx)

    def dur(s):
        return s[END] - s[START]

    def self_time(idx):
        s = spans[idx]
        children = [spans[k] for k in kids.get(idx, ())]
        own_overhead = s[OVERHEAD] - sum(c[OVERHEAD] for c in children)
        covered = _covered([(c[START], c[END]) for c in children], s[START], s[END])
        return dur(s) - covered - max(own_overhead, 0.0)

    by_layer = defaultdict(list)
    for idx, s in enumerate(spans):
        by_layer[layer_of.get(s[NAME])].append(idx)

    m: dict[str, float] = {}
    notes: dict[str, str] = {}

    # viewfactor
    vf = by_layer["viewfactor"]
    durations = [dur(spans[i]) for i in vf]
    keys = [spans[i][ARGS] for i in vf]
    m["viewfactor.evals"] = len(vf)
    m["viewfactor.self_s"] = sum(self_time(i) for i in vf)
    m["viewfactor.eval_us_p50"] = _pct_us(durations, 50)
    m["viewfactor.eval_us_p99"] = _pct_us(durations, 99)
    degenerate = [i for i in vf if spans[i][ERROR] == DEGENERATE]
    m["viewfactor.degenerate"] = len(degenerate)
    pairs = partial = 0
    if None in keys:
        notes["viewfactor"] = "untraced: view-factor arguments not recognised"
    else:
        m["viewfactor.repeat_share"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        cache = {}
        for i, key in zip(vf, keys):
            if spans[i][ERROR] is None:
                count, is_partial = _pair_count(key, cache)
                pairs += count
                partial += is_partial
    m.setdefault("viewfactor.repeat_share", 0.0)
    m["viewfactor.node_pairs"] = pairs
    m["viewfactor.pairs_per_s"] = pairs / sum(durations) if durations else 0.0
    m["viewfactor.partial_share"] = partial / len(vf) if vf else 0.0

    # interaction
    grads = by_layer["interaction"]
    m["interaction.gradients"] = len(grads)
    m["interaction.self_s"] = sum(self_time(i) for i in grads)
    m["interaction.gradient_us_p50"] = _pct_us([dur(spans[i]) for i in grads], 50)
    grad_set = set(grads)
    m["interaction.fallbacks"] = sum(1 for i in degenerate if spans[i][PARENT] in grad_set)

    # estimation
    est = by_layer["estimation"]
    m["estimation.updates"] = len(est)
    m["estimation.busy_s"] = sum(dur(spans[i]) for i in est)
    m["estimation.update_us_p50"] = _pct_us([dur(spans[i]) for i in est], 50)

    # control
    ctrl = by_layer["control"]
    laws = [i for i in ctrl if spans[i][NAME] in CONTROL_LAWS]
    m["control.solves"] = len(laws)
    m["control.busy_s"] = sum(dur(spans[i]) for i in ctrl)
    m["control.solve_us_p50"] = _pct_us([dur(spans[i]) for i in laws], 50)
    clamped = sum(1 for i in laws if spans[i][RESULT])
    m["control.clamp_ratio"] = clamped / len(laws) if laws else 0.0

    # thermal
    th = by_layer["thermal"]
    m["thermal.periods"] = len(th)
    m["thermal.busy_s"] = sum(dur(spans[i]) for i in th)
    m["thermal.period_us_p50"] = _pct_us([dur(spans[i]) for i in th], 50)

    # simulator and feasibility: spans around the benchmark's own calls
    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    m["simulator.ticks"] = facts.get("simulator.ticks", 0)
    m["simulator.self_s"] = sum(self_time(i) for i in named("simulator.run_simulation"))
    m["simulator.csv_s"] = sum(dur(spans[i]) for i in named("simulator.RunLog.to_csv"))
    m["simulator.csv_bytes"] = facts.get("simulator.csv_bytes", 0)
    m["simulator.export_field_s"] = sum(dur(spans[i]) for i in named("simulator.export_field"))
    m["simulator.export_field_bytes"] = facts.get("simulator.export_field_bytes", 0)
    m["feasibility.grid_s"] = sum(dur(spans[i]) for i in named("feasibility.isosurface_grid"))
    m["feasibility.grid_cpu_s"] = facts.get("feasibility.grid_cpu_s", 0.0)
    m["feasibility.cells"] = facts.get("feasibility.cells", 0)
    m["feasibility.degenerate_cells"] = facts.get("feasibility.degenerate_cells", 0)
    m["feasibility.search_s"] = sum(
        dur(spans[i]) for i in named("feasibility.pairwise_feasibility")
    )
    m["feasibility.poses"] = facts.get("feasibility.poses", 0)

    for layer in ("viewfactor", "interaction", "estimation", "control", "thermal"):
        reason = tracer.layer_untraced(layer)
        if reason:
            notes[layer] = f"untraced: {reason}"
        elif not by_layer[layer]:
            notes[layer] = "not run on this workload"
    if notes.get("viewfactor") == "not run on this workload":
        notes["viewfactor"] = (
            "untraced: no view-factor spans recorded, though every workload "
            "evaluates view factors (pool workers started without the hooks?)"
        )
    for layer, calls in (
        ("simulator", ("simulator.run_simulation", "simulator.export_field")),
        ("feasibility", ("feasibility.isosurface_grid", "feasibility.pairwise_feasibility")),
    ):
        if not any(s[NAME] in calls for s in spans):
            notes[layer] = "not run on this workload"
    return m, notes
