"""In-memory span tracer that wraps thermoservo entry points by name.

Each hook replaces one callable under the name the calling module resolves
it by (for example ``thermoservo.simulator._general_value``, which the loop
looks up at call time), records a span per call and restores the original
on ``uninstall``. A hook whose target no longer exists is reported as
untraced instead of raising, so the benchmark keeps running after the
program is refactored.

Spans live in memory as tuples and are written out once, at the end of a
run. Time the tracer spends on its own bookkeeping is accumulated per span
and subtracted from the parent span's self time.

``multiprocessing.Pool`` workers are forked with the hooks in place. The
``feasibility._grid_chunk`` hook writes the spans a worker recorded to the
output directory before the chunk returns, and the parent merges them under
its ``isosurface_grid`` span. A pool that starts workers without the hooks
(the ``spawn`` method) leaves no such files; the analysis then reports the
view-factor layer of that workload as untraced.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (layer, module, attribute path) of every wrapped callable.
HOOKS = (
    ("viewfactor", "thermoservo.simulator", "_general_value"),
    ("viewfactor", "thermoservo.interaction", "_general_value"),
    ("viewfactor", "thermoservo.feasibility", "_general_value"),
    ("interaction", "thermoservo.simulator", "view_factor_gradient"),
    ("estimation", "thermoservo.estimation", "SampleWindow.push_and_estimate"),
    ("control", "thermoservo.simulator", "adaptive_control"),
    ("control", "thermoservo.simulator", "model_based_control"),
    ("control", "thermoservo.simulator", "adaptive_update"),
    ("control", "thermoservo.simulator", "adaptive_lyapunov"),
    ("thermal", "thermoservo.simulator", "integrate_thermal"),
    ("feasibility", "thermoservo.feasibility", "_grid_chunk"),
)

# Spans the benchmark opens around its own calls into the public API.
CALL_SITES = {
    "simulator.run_simulation": "simulator",
    "simulator.RunLog.to_csv": "simulator",
    "simulator.export_field": "simulator",
    "feasibility.isosurface_grid": "feasibility",
    "feasibility.pairwise_feasibility": "feasibility",
}

CONTROL_LAWS = ("simulator.adaptive_control", "simulator.model_based_control")
_CHUNK_HOOK = "feasibility._grid_chunk"

# Span tuple fields. OVERHEAD is tracer bookkeeping time inside the span;
# ARGS holds the view-factor key (see `vf_key`), RESULT the clamp flag of a
# control law.
NAME, START, END, PARENT, RUN, OVERHEAD, ERROR, ARGS, RESULT = range(9)


def hook_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


def vf_key(args):
    """Hashable, JSON-safe form of `_general_value(pose, radius, contour,
    spec)` arguments: pose vector, radius, contour repr, quadrature n."""
    pose, radius, contour, spec = args[:4]
    return (
        tuple(float(v) for v in pose.as_vector()),
        float(radius),
        repr(contour),
        int(spec.n_per_dim),
    )


class Tracer:
    """Records spans (name, start, end, parent, run id) for hooked calls."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.hooks = HOOKS
        self.layers = dict(CALL_SITES)
        for layer, module, path in self.hooks:
            self.layers[hook_name(module, path)] = layer
        self.untraced: dict[str, str] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.overhead = 0.0
        self.run_id = 0
        self.pid = os.getpid()
        self._worker_pid = None
        self._worker_dumps = 0
        self._patched: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, module, path in self.hooks:
            name = hook_name(module, path)
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.untraced[name] = f"hook {module}.{path} not found ({exc})"
                continue
            setattr(owner, attr, self._wrap(name, layer, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_untraced(self, layer: str) -> str | None:
        """Reason if any hook of the layer is missing (its counts would be
        partial), else None."""
        missing = [
            self.untraced[name]
            for lay, m, p in self.hooks
            if lay == layer and (name := hook_name(m, p)) in self.untraced
        ]
        return "; ".join(missing) or None

    # -- recording ----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, name, start, end, parent, ov_start, error, args, result):
        self.stack.pop()
        self.spans[idx] = (
            name, start, end, parent, self.run_id,
            self.overhead - ov_start, error, args, result,
        )

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        keep_args = layer == "viewfactor"
        keep_result = name in CONTROL_LAWS
        is_chunk = name == _CHUNK_HOOK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            in_worker = is_chunk and os.getpid() != tracer.pid
            if in_worker:
                tracer._enter_worker()
            idx, parent = tracer._open()
            start = perf_counter()
            tracer.overhead += start - t_in
            ov_start = tracer.overhead
            error = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer._close(
                    idx, name, start, end, parent, ov_start, error,
                    args if keep_args else None,
                    getattr(result, "clamped", None) if keep_result else None,
                )
                if in_worker:
                    tracer._dump_worker()
                tracer.overhead += perf_counter() - end

        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes."""
        idx, parent = self._open()
        ov_start = self.overhead
        start = perf_counter()
        try:
            yield idx
        finally:
            end = perf_counter()
            self._close(idx, name, start, end, parent, ov_start, None, None, None)

    def finalize(self) -> None:
        """Replace kept view-factor arguments by their `vf_key` (after the
        timed region, so the conversion costs the traced unit nothing)."""
        self.spans = [_keyed(s) for s in self.spans]

    # -- pool workers -------------------------------------------------------

    def _enter_worker(self) -> None:
        """First chunk in a forked worker: drop the spans copied from the
        parent, which the parent reports itself."""
        pid = os.getpid()
        if self._worker_pid != pid:
            self._worker_pid = pid
            self._worker_dumps = 0
            self.spans = []
            self.stack = []
            self.overhead = 0.0

    def _dump_worker(self) -> None:
        rows = [list(_keyed(s)) for s in self.spans]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"worker-{self._worker_pid}-{self._worker_dumps}.json"
        path.write_text(json.dumps(rows))
        self._worker_dumps += 1
        self.spans = []

    def merge_workers(self, parent_idx: int) -> int:
        """Adopt the span files pool workers wrote; return how many."""
        files = sorted(self.out_dir.glob("worker-*.json"))
        for path in files:
            rows = json.loads(path.read_text())
            base = len(self.spans)
            for row in rows:
                row[PARENT] = parent_idx if row[PARENT] < 0 else row[PARENT] + base
                row[RUN] = self.run_id
                if row[ARGS] is not None:
                    pose, radius, contour, n = row[ARGS]
                    row[ARGS] = (tuple(pose), radius, contour, n)
                self.spans.append(tuple(row))
            path.unlink()
        return len(files)

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for idx, s in enumerate(self.spans):
                record = {
                    "id": idx, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "run": s[RUN], "error": s[ERROR],
                }
                out.write(json.dumps(record) + "\n")


def _keyed(span):
    args = span[ARGS]
    if args is None or isinstance(args[0], tuple):
        return span
    try:
        key = vf_key(args)
    except (AttributeError, TypeError, ValueError):
        key = None
    return span[:ARGS] + (key,) + span[ARGS + 1:]
