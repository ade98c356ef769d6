"""Span tracer that instruments macfusion from outside the package.

``instrument(tracer)`` replaces the public functions of each layer with
wrappers at every place they are bound: their home module, each module
that bound them with ``from ... import``, and the class for methods. Each
call records a span ``(id, name, start, end, parent, thread)`` plus counts
of the work it was handed. Every thread keeps its own span stack, so the
spans of the CLI's worker threads never become each other's children.

``run_totals`` sums the recorded spans and counts of one run, totals of
several runs add up with ``merge_totals``, and ``layer_metrics`` turns
them into the per-layer metrics the benchmark reports. A span's self time
is its duration minus the durations of its direct children, which all ran
on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

# Prefix of the spans around the CLI driver itself; they enclose all layers.
CLI = "cli."


class _ThreadState:
    __slots__ = ("ident", "stack", "spans", "counts", "maxima", "notes")

    def __init__(self, ident):
        self.ident = ident
        self.stack = []
        self.spans = []
        self.counts = {}
        self.maxima = {}
        self.notes = {}


class Tracer:
    """In-memory spans and counters, safe to use from several threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str, cpu: bool = False):
        state = self._state()
        sid = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(sid)
        return (state, sid, parent, name, time.process_time() if cpu else None, time.perf_counter())

    def exit(self, token) -> None:
        end = time.perf_counter()
        state, sid, parent, name, cpu_start, start = token
        state.stack.pop()
        state.spans.append((sid, name, start, end, parent, state.ident))
        if cpu_start is not None:
            self.count(name + ".cpu_s", time.process_time() - cpu_start)

    def count(self, key: str, n=1) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + n

    def maximum(self, key: str, value) -> None:
        maxima = self._state().maxima
        maxima[key] = max(maxima.get(key, value), value)

    def note(self, key: str, value) -> None:
        """Remember a distinct value under ``key`` (a set per key)."""
        self._state().notes.setdefault(key, set()).add(value)

    def spans(self) -> list:
        with self._lock:
            states = list(self._states)
        return [span for state in states for span in state.spans]

    def counts(self) -> dict:
        out = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, n in state.counts.items():
                out[key] = out.get(key, 0) + n
            for key, v in state.maxima.items():
                out[key] = max(out.get(key, v), v)
            for key, values in state.notes.items():
                out.setdefault(key, set()).update(values)
        return out


def traced(tracer: Tracer, name: str, fn, before=None, after=None, cpu: bool = False):
    """Wrap ``fn`` in a span; ``before``/``after`` hooks record counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        token = tracer.enter(name, cpu)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(token)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _uniforms_before(tracer, args, kwargs):
    stream, count = args[0], int(_arg(args, kwargs, 1, "count"))
    tracer.count("numerics.uniforms.values", count)
    tracer.maximum("numerics.uniforms.max_block_values", count)
    if stream.counter == 0:
        # A fresh stream object starting at the head of its sequence: one
        # pass over that point's draws.
        tracer.count("harness.draw_passes")
        tracer.note("harness.streams", (stream.master_seed, stream.stream_id))


def _counter(key: str, index: int, arg: str):
    def before(tracer, args, kwargs):
        tracer.count(key, _size(_arg(args, kwargs, index, arg)))

    return before


def _trials_before(tracer, args, kwargs):
    tracer.count("detection.simulate.trials", int(_arg(args, kwargs, 2, "trials")))


def _invert_before(tracer, args, kwargs):
    targets = _size(_arg(args, kwargs, 5, "targets"))
    tracer.count("kernels.invert.targets", targets)
    tracer.count("kernels.invert.target_nodes", targets * _size(_arg(args, kwargs, 0, "nodes")))


def _flat_build_after(tracer, args, kwargs, result):
    tracer.count("estimation.flat_build.nodes_total", result.nodes.size)
    tracer.maximum("estimation.flat_build.nodes_max", result.nodes.size)


def _flat_invert_after(tracer, args, kwargs, result):
    clamped = result[1]
    tracer.count("estimation.clamped", int(clamped.sum()))
    tracer.count("estimation.inverted", clamped.size)


def _quadrature(tracer: Tracer, fn):
    """``adaptive_quadrature`` wrapper that also traces its integrand."""

    @functools.wraps(fn)
    def wrapper(fun, *args, **kwargs):
        def integrand(x):
            tracer.count("numerics.quad.integrand_points", _size(x))
            token = tracer.enter("numerics.integrand")
            try:
                return fun(x)
            finally:
                tracer.exit(token)

        return traced_quad(integrand, *args, **kwargs)

    traced_quad = traced(tracer, "numerics.quad", fn)
    return wrapper


def instrument(tracer: Tracer) -> list[str]:
    """Patch every binding site of the traced functions.

    Returns the binding sites that no longer exist, so a refactor that
    moves a function shows up in the results instead of silently dropping
    its spans.
    """
    from macfusion import cli, detection, estimation, harness, kernels, noise, numerics

    # span name -> (binding sites, hooks); the first site is the home binding.
    sites = {
        "numerics.uniforms": ([(numerics.RngStream, "uniforms")], dict(before=_uniforms_before)),
        "noise.transform": ([(noise, "transform_uniforms")], dict(before=_counter("noise.transform.values", 1, "u"))),
        "kernels.channel_sums": ([(kernels, "channel_sums")], dict(before=_counter("kernels.channel_sums.elems", 3, "x"))),
        "kernels.eval_transmit": ([(kernels, "eval_transmit")], dict(before=_counter("kernels.eval_transmit.elems", 3, "x"))),
        "kernels.invert": ([(kernels, "invert_h_targets")], dict(before=_invert_before, cpu=True)),
        "detection.simulate": (
            [(detection, "simulate_decisions"), (harness, "simulate_decisions")],
            dict(before=_trials_before),
        ),
        "detection.decide": ([(detection, "decide")], {}),
        "detection.deflection": ([(detection, "deflection")], {}),
        "detection.build_detector": ([(detection, "build_detector"), (harness, "build_detector")], {}),
        "numerics.minimize": ([(numerics, "minimize_scalar"), (detection, "minimize_scalar")], {}),
        "numerics.expect": ([(numerics, "expect"), (estimation, "expect")], {}),
        "estimation.g_moment": ([(estimation, "g_moment"), (detection, "g_moment")], {}),
        "estimation.mean_response": ([(estimation, "mean_response")], {}),
        "estimation.asymptotic_variance": ([(estimation, "asymptotic_variance")], {}),
        "estimation.flat_build": (
            [(estimation, "build_flat_response"), (harness, "build_flat_response")],
            dict(after=_flat_build_after),
        ),
        "estimation.flat_invert": ([(estimation.FlatResponse, "invert")], dict(after=_flat_invert_after)),
        "harness.experiment": (
            [
                (harness, "run_estimation_experiment"),
                (harness, "run_detection_experiment"),
                (harness, "run_signal_statistics"),
            ],
            {},
        ),
        "cli.run": ([(cli, "run_config")], {}),
        "cli.write_csv": ([(cli, "write_csv")], {}),
    }
    quad_sites = [(numerics, "adaptive_quadrature"), (detection, "adaptive_quadrature"), (estimation, "adaptive_quadrature")]

    missing = []
    wrappers = {}

    def patch(owner, attr, make):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if id(fn) not in wrappers:
            wrappers[id(fn)] = make(fn)
        setattr(owner, attr, wrappers[id(fn)])

    for name, (bindings, hooks) in sites.items():
        for owner, attr in bindings:
            patch(owner, attr, lambda fn, name=name, hooks=hooks: traced(tracer, name, fn, **hooks))
    for owner, attr in quad_sites:
        patch(owner, attr, lambda fn: _quadrature(tracer, fn))
    return missing


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def span_stats(spans) -> dict:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    child_time = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {}
    for sid, name, start, end, _, _ in spans:
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return stats


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _has_ancestor(sid, name, by_id) -> bool:
    parent = by_id[sid][1]
    while parent is not None:
        pname, parent_next = by_id[parent]
        if pname == name:
            return True
        parent = parent_next
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Totals that merge by maximum rather than by sum across runs.
MAXIMA = ("numerics.uniforms.max_block_values", "estimation.flat_build.nodes_max")


def run_totals(spans, counts: dict, workers: int) -> dict:
    """Additive totals of one traced run: span statistics plus counts.

    Totals of several runs (the parts of one workload) merge with
    ``merge_totals``; ``layer_metrics`` derives the metrics from them.
    """
    by_id = {sid: (name, parent) for sid, name, _, _, parent, _ in spans}
    run_s = sum(end - start for _, name, start, end, _, _ in spans if name == "cli.run")
    layer_roots = [
        end - start
        for _, name, start, end, parent, _ in spans
        if not name.startswith(CLI) and (parent is None or by_id[parent][0].startswith(CLI))
    ]
    inner = [(start, end) for _, name, start, end, _, _ in spans if name != "cli.run"]
    totals = {key: len(value) if isinstance(value, set) else value for key, value in counts.items()}
    totals.update(
        {
            "cli.run_s": run_s,
            "cli.capacity_s": workers * run_s,
            "cli.busy_s": sum(layer_roots),
            # Wall time of the run in which no layer span was open on any
            # thread: driver bookkeeping plus waiting. With one worker this
            # is the plain self time of the cli.run span.
            "cli.idle_s": run_s - _union_length(inner),
            "estimation.g_moment.quads": sum(
                1 for sid, name, *_ in spans if name == "numerics.quad" and _has_ancestor(sid, "estimation.g_moment", by_id)
            ),
        }
    )
    for name, entry in span_stats(spans).items():
        for key, value in entry.items():
            totals[f"span:{name}.{key}"] = value
    return totals


def merge_totals(runs) -> dict:
    merged = {}
    for totals in runs:
        for key, value in totals.items():
            if key in MAXIMA:
                merged[key] = max(merged.get(key, value), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics, keyed by metric name, from run totals."""

    def c(key):
        return totals.get(key, 0)

    def stat(name, key):
        return c(f"span:{name}.{key}")

    values = c("numerics.uniforms.values")
    transformed = c("noise.transform.values")
    sums = c("kernels.channel_sums.elems")
    target_nodes = c("kernels.invert.target_nodes")
    moments = stat("estimation.g_moment", "calls")
    quads = c("estimation.g_moment.quads")
    return {
        "numerics.uniforms.values": values,
        "numerics.uniforms.self_s": stat("numerics.uniforms", "self_s"),
        "numerics.uniforms.ns_per_value": 1e9 * _ratio(stat("numerics.uniforms", "self_s"), values),
        "numerics.uniforms.max_block_mb": 8.0 * c("numerics.uniforms.max_block_values") / 1e6,
        "noise.transform.values": transformed,
        "noise.transform.self_s": stat("noise.transform", "self_s"),
        "noise.transform.ns_per_value": 1e9 * _ratio(stat("noise.transform", "self_s"), transformed),
        "kernels.channel_sums.elems": sums,
        "kernels.channel_sums.self_s": stat("kernels.channel_sums", "self_s"),
        "kernels.channel_sums.ns_per_elem": 1e9 * _ratio(stat("kernels.channel_sums", "self_s"), sums),
        "kernels.eval_transmit.elems": c("kernels.eval_transmit.elems"),
        "kernels.eval_transmit.self_s": stat("kernels.eval_transmit", "self_s"),
        "detection.simulate.trials": c("detection.simulate.trials"),
        "detection.simulate.self_s": stat("detection.simulate", "self_s"),
        "detection.decide.self_s": stat("detection.decide", "self_s"),
        "kernels.invert.targets": c("kernels.invert.targets"),
        "kernels.invert.target_nodes": target_nodes,
        "kernels.invert.self_s": stat("kernels.invert", "self_s"),
        "kernels.invert.ns_per_target_node": 1e9 * _ratio(stat("kernels.invert", "self_s"), target_nodes),
        "kernels.invert.cpu_per_wall": _ratio(c("kernels.invert.cpu_s"), stat("kernels.invert", "total_s")),
        "estimation.flat_invert.self_s": stat("estimation.flat_invert", "self_s"),
        "estimation.flat_build.calls": stat("estimation.flat_build", "calls"),
        "estimation.flat_build.self_s": stat("estimation.flat_build", "self_s"),
        "estimation.flat_build.nodes_max": c("estimation.flat_build.nodes_max"),
        "estimation.flat_build.nodes_total": c("estimation.flat_build.nodes_total"),
        "estimation.clamp_ratio": _ratio(c("estimation.clamped"), c("estimation.inverted")),
        "numerics.quad.calls": stat("numerics.quad", "calls"),
        "numerics.quad.integrand_points": c("numerics.quad.integrand_points"),
        "numerics.quad.self_s": stat("numerics.quad", "self_s"),
        "numerics.quad.integrand_s": stat("numerics.integrand", "total_s"),
        "estimation.g_moment.calls": moments,
        "estimation.g_moment.quads": quads,
        "estimation.g_moment.hit_ratio": 1.0 - _ratio(quads, moments) if moments else 0.0,
        "detection.deflection.calls": stat("detection.deflection", "calls"),
        "detection.deflection.self_s": stat("detection.deflection", "self_s"),
        "detection.build_detector.calls": stat("detection.build_detector", "calls"),
        "harness.experiments": stat("harness.experiment", "calls"),
        "harness.draw_passes_per_point": _ratio(c("harness.draw_passes"), c("harness.streams")),
        "harness.self_s": stat("harness.experiment", "self_s"),
        "cli.worker_busy_ratio": _ratio(c("cli.busy_s"), c("cli.capacity_s")),
        "cli.self_s": c("cli.idle_s"),
        "cli.write_csv_s": stat("cli.write_csv", "total_s"),
    }
