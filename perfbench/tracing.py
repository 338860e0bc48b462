"""Spans at streamuniq's layer boundaries, recorded from outside the package.

A ``Tracer`` replaces the module attributes that callers look up at call
time (``streamuniq.verify.picard_solve``, ``streamuniq.picard.kernel_prefix``,
``VorticityModel.evaluate_grid`` and so on) with wrappers that record one
span per call: name, start, end, parent span and the op it belongs to, plus
a few counts read from the arguments and the result.  ``uninstall`` puts
every original attribute back.  Wrappers pass straight through while the
tracer is not recording, so benchmark-side checks never produce spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field

import numpy as np

# (module, class or None, attribute, span name); a target the package no
# longer has is skipped and listed in Tracer.missing
TARGETS = (
    ("streamuniq.verify", None, "run_uniqueness_analysis", "verify.analysis"),
    ("streamuniq.cli", None, "run_uniqueness_analysis", "verify.analysis"),
    ("streamuniq.verify", None, "continuity_sweep", "verify.analysis"),
    ("streamuniq.verify", None, "validate_hypotheses", "vorticity.validate"),
    ("streamuniq.cli", None, "validate_hypotheses", "vorticity.validate"),
    ("streamuniq.vorticity", "VorticityModel", "evaluate_grid", "vorticity.eval_grid"),
    ("streamuniq._kernels", None, "vorticity_grid", "kernels.vorticity_grid"),
    ("streamuniq.picard", None, "kernel_prefix", "quadrature.prefix"),
    ("streamuniq._kernels", None, "prefix_moments", "kernels.prefix_moments"),
    ("streamuniq.verify", None, "picard_solve", "picard.solve"),
    ("streamuniq.verify", None, "residual", "picard.residual"),
    ("streamuniq.verify", None, "rk_solve", "rk.solve"),
    ("streamuniq._kernels", None, "rk_core_python", "kernels.rk_core"),
    ("streamuniq.grids", "RadialGrid", "geometric", "grids.build"),
    ("streamuniq.grids", "RadialGrid", "uniform", "grids.build"),
    ("streamuniq.config", None, "load_config", "config.build"),
    ("streamuniq.config", None, "build_model", "config.build"),
    ("streamuniq.config", None, "build_grid", "config.build"),
    ("streamuniq.config", None, "build_control", "config.build"),
    ("streamuniq.cli", None, "write_csv", "cli.write_csv"),
    ("streamuniq.cli", None, "write_atomic", "cli.write_atomic"),
    ("streamuniq.cli", None, "line_plot", "svgplot.plot"),
)


def _count_write(args, kwargs, result):
    # write_csv delegates to write_atomic, so only write_atomic is counted
    path, text = args[0], args[1]
    rows = text.count("\n") - 1 if path.endswith(".csv") else 0
    return {"bytes": os.path.getsize(path), "csv_rows": rows}


def _count_prefix(args, kwargs, result):
    a, b = result
    # inputs nodes, log weights and values are each as large as one output
    return {"points": int(a.size), "bytes_computed": int(3 * a.nbytes + a.nbytes + b.nbytes)}


COUNTERS = {
    "vorticity.validate": lambda a, k, r: {"samples": int(r.samples_used)},
    "vorticity.eval_grid": lambda a, k, r: {"points": int(np.size(r))},
    "quadrature.prefix": _count_prefix,
    "picard.solve": lambda a, k, r: {"iterations": int(r[1].iterations)},
    "rk.solve": lambda a, k, r: {"accepted": int(r[1].n_accepted),
                                 "rejected": int(r[1].n_rejected),
                                 "output_nodes": int(np.size(r[0].psi))},
    "grids.build": lambda a, k, r: {"nodes": int(r.n)},
    "cli.write_atomic": _count_write,
}

# spans whose call is kept so it can be replayed after the op
KEEP_CALL = frozenset({"rk.solve"})


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)
    call: tuple | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.recording_now = False
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, cls_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            key = ".".join(filter(None, (module_name, cls_name, attr)))
            if owner is None or not hasattr(owner, attr):
                self.missing.append(key)
                continue
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, own, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, span_name)))
            else:
                setattr(owner, attr, self._wrap(raw, span_name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, own, raw = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        keep = name in KEEP_CALL

        def traced(*args, **kwargs):
            if not self.recording_now:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if keep:
                span.call = (fn, args, kwargs)
            return result

        return traced

    def _open(self, name: str) -> Span:
        span = Span(id=len(self.spans), name=name,
                    parent=self._stack[-1] if self._stack else None,
                    op=self._op, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def recording(self, op: int | None = None):
        """Record spans inside the block; with op set, under one root span "op"."""
        self.recording_now = True
        self._op = op
        root = self._open("op") if op is not None else None
        try:
            yield
        finally:
            if root is not None:
                self._close(root)
            self.recording_now = False
            self._op = None

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


def replay_rk_steps(spans: list[Span]) -> tuple[float, bool]:
    """Re-run each rk.solve call with a two-node [r0, r_max] output grid.

    Step selection does not depend on the output nodes, so the replay times
    the stepping alone.  Returns (total replay seconds, whether every replay
    made the same accepted and rejected steps as the original call).
    """
    from streamuniq import RadialGrid

    total = 0.0
    same = True
    for span in spans:
        if span.name != "rk.solve" or span.call is None:
            continue
        fn, args, kwargs = span.call
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        grid = bound.arguments["output_grid"]
        bound.arguments["output_grid"] = RadialGrid(np.array([grid.nodes[0], grid.nodes[-1]]))
        t0 = time.perf_counter()
        _, diag = fn(*bound.args, **bound.kwargs)
        total += time.perf_counter() - t0
        same &= (diag.n_accepted == span.counts["accepted"]
                 and diag.n_rejected == span.counts["rejected"])
        span.call = None
    return total, same


# (name, unit) of every per-layer metric, all reported per traced op
LAYER_METRICS = (
    ("vorticity.validate_s", "s/op"),
    ("vorticity.validate_calls", "count/op"),
    ("vorticity.validate_samples", "count/op"),
    ("vorticity.eval_grid_s", "s/op"),
    ("vorticity.eval_grid_points", "count/op"),
    ("vorticity.eval_grid_sampling_s", "s/op"),
    ("vorticity.eval_grid_picard_s", "s/op"),
    ("vorticity.eval_grid_residual_s", "s/op"),
    ("kernels.vorticity_grid_s", "s/op"),
    ("quadrature.prefix_s", "s/op"),
    ("quadrature.prefix_calls", "count/op"),
    ("quadrature.prefix_points", "count/op"),
    ("quadrature.prefix_bytes_computed", "bytes/op"),
    ("kernels.prefix_moments_s", "s/op"),
    ("picard.solve_s", "s/op"),
    ("picard.calls", "count/op"),
    ("picard.iterations", "count/op"),
    ("picard.residual_s", "s/op"),
    ("rk.solve_s", "s/op"),
    ("rk.step_s", "s/op"),
    ("rk.dense_fill_s", "s/op"),
    ("rk.dense_fill_valid", "bool"),
    ("rk.accepted_steps", "count/op"),
    ("rk.rejected_steps", "count/op"),
    ("rk.accept_ratio", "ratio"),
    ("rk.output_nodes", "count/op"),
    ("kernels.rk_core_s", "s/op"),
    ("verify.analysis_s", "s/op"),
    ("verify.checks_self_s", "s/op"),
    ("cli.artifact_write_s", "s/op"),
    ("cli.artifact_bytes", "bytes/op"),
    ("cli.csv_rows", "count/op"),
    ("svgplot.plot_s", "s/op"),
    ("grids.build_s", "s/op"),
    ("grids.nodes", "count/op"),
    ("config.build_s", "s/op"),
    ("trace.overhead_ms", "ms"),
)

# nearest ancestor that says why the vorticity was evaluated
_EVAL_PURPOSE = {"vorticity.validate": "sampling", "picard.solve": "picard",
                 "picard.residual": "residual"}


def layer_metrics(tracer: Tracer, n_ops: int, step_s: float, steps_same: bool,
                  overhead_ms: float) -> dict[str, float]:
    """Per-op layer metrics from n_ops traced ops; step_s is the replay total."""
    spans = tracer.spans
    self_t = tracer.self_times()
    out = {name: 0.0 for name, _ in LAYER_METRICS}

    def add(name: str, value: float) -> None:
        out[name] += value

    for s, own in zip(spans, self_t):
        d = s.duration
        c = s.counts
        parent = spans[s.parent] if s.parent is not None else None
        if s.name == "vorticity.validate":
            add("vorticity.validate_s", d)
            add("vorticity.validate_calls", 1)
            add("vorticity.validate_samples", c.get("samples", 0))
        elif s.name == "vorticity.eval_grid":
            add("vorticity.eval_grid_s", d)
            add("vorticity.eval_grid_points", c.get("points", 0))
            anc = parent
            while anc is not None and anc.name not in _EVAL_PURPOSE:
                anc = spans[anc.parent] if anc.parent is not None else None
            if anc is not None:
                add(f"vorticity.eval_grid_{_EVAL_PURPOSE[anc.name]}_s", d)
        elif s.name == "kernels.vorticity_grid":
            add("kernels.vorticity_grid_s", d)
        elif s.name == "quadrature.prefix":
            add("quadrature.prefix_s", d)
            add("quadrature.prefix_calls", 1)
            add("quadrature.prefix_points", c.get("points", 0))
            add("quadrature.prefix_bytes_computed", c.get("bytes_computed", 0))
        elif s.name == "kernels.prefix_moments":
            add("kernels.prefix_moments_s", d)
        elif s.name == "picard.solve":
            add("picard.solve_s", d)
            add("picard.calls", 1)
            add("picard.iterations", c.get("iterations", 0))
        elif s.name == "picard.residual":
            add("picard.residual_s", d)
        elif s.name == "rk.solve":
            add("rk.solve_s", d)
            add("rk.accepted_steps", c.get("accepted", 0))
            add("rk.rejected_steps", c.get("rejected", 0))
            add("rk.output_nodes", c.get("output_nodes", 0))
        elif s.name == "kernels.rk_core":
            add("kernels.rk_core_s", d)
        elif s.name == "verify.analysis":
            add("verify.analysis_s", d)
            add("verify.checks_self_s", own)
        elif s.name.startswith("cli.write"):
            if parent is None or not parent.name.startswith("cli.write"):
                add("cli.artifact_write_s", d)
            add("cli.artifact_bytes", c.get("bytes", 0))
            add("cli.csv_rows", c.get("csv_rows", 0))
        elif s.name == "svgplot.plot":
            add("svgplot.plot_s", d)
        elif s.name == "grids.build":
            add("grids.build_s", d)
            add("grids.nodes", c.get("nodes", 0))
        elif s.name == "config.build":
            add("config.build_s", d)

    steps = out["rk.accepted_steps"] + out["rk.rejected_steps"]
    out["rk.accept_ratio"] = out["rk.accepted_steps"] / steps if steps else 0.0
    out["rk.step_s"] = step_s
    out["rk.dense_fill_s"] = out["rk.solve_s"] - step_s
    out["rk.dense_fill_valid"] = 1.0 if steps_same else 0.0
    ratio_like = {"rk.accept_ratio", "rk.dense_fill_valid"}
    for name in out:
        if name not in ratio_like:
            out[name] /= n_ops
    out["trace.overhead_ms"] = overhead_ms
    return out
