"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces the public functions of each pmaflow module,
at every module that imported them, with wrappers that record a span
(name, start, end, parent, thread) in memory.  A few wrappers also count:
`newton_step` wraps the residual, linearization and admissibility
callbacks it receives, and the `bicgstab`/`gmres` names that `stepping`
calls wrap the A and M operators they receive.  `Tracer.dump()` returns
the record; `layer_metrics()` turns the records of a session into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import threading
import time

# (module, function) -> span name
SPANS = {
    ("pmaflow.grid", "complex_hessian_matrices"): "grid.hessian",
    ("pmaflow.grid", "convolve_radial"): "grid.convolve",
    ("pmaflow.flow_ma", "solve_flow"): "flow_ma.solve",
    ("pmaflow.flow_ma", "implicit_step"): "flow_ma.implicit_step",
    ("pmaflow.flow_hessian", "solve_hessian_flow"): "flow_hessian.solve",
    ("pmaflow.estimates", "entropy"): "estimates.entropy",
    ("pmaflow.estimates", "i_series"): "estimates.i_series",
    ("pmaflow.estimates", "level_stats"): "estimates.level_stats",
    ("pmaflow.estimates", "moser_trudinger"): "estimates.moser_trudinger",
    ("pmaflow.estimates", "exp_alpha_integral"): "estimates.exp_alpha",
    ("pmaflow.estimates", "holder_moduli"): "estimates.holder_moduli",
    ("pmaflow.estimates", "stability_ratio"): "estimates.stability_ratio",
    ("pmaflow.regularize", "kiselman_legendre"): "regularize.kiselman_legendre",
    ("pmaflow.regularize", "mollify"): "regularize.mollify",
    ("pmaflow.regularize", "theta_scale_bound"): "regularize.theta_scale_bound",
    ("pmaflow.regularize", "time_average"): "regularize.time_average",
    ("pmaflow.regularize", "ball_mass_profile"): "regularize.ball_mass_profile",
    ("pmaflow.maxprinciple", "contact_set"): "maxprinciple.contact_set",
    ("pmaflow.maxprinciple", "lieberman_form_check"): "maxprinciple.lieberman",
    ("pmaflow.cli", "run"): "cli.run",
}

# The counters that must repeat exactly between two runs of the same code.
COUNTERS = ("stepping.newton.calls", "stepping.newton.iters",
            "stepping.linesearch.trials", "stepping.krylov.solves",
            "stepping.krylov.matvecs", "stepping.krylov.precond",
            "stepping.krylov.gmres_fallbacks")

# The per-layer metrics, with their units, in the order they are printed.
LAYER_METRICS = {
    "grid.hessian.calls": "count", "grid.hessian.s": "s",
    "grid.convolve.calls": "count", "grid.convolve.s": "s",
    "grid.checkpoint.s": "s", "grid.checkpoint.bytes": "bytes",
    "stepping.newton.calls": "count", "stepping.newton.iters": "count",
    "stepping.newton.s": "s", "stepping.newton.ms_p50": "ms",
    "stepping.newton.ms_p90": "ms",
    "stepping.residual.calls": "count", "stepping.residual.s": "s",
    "stepping.linearization.s": "s",
    "stepping.admissible.calls": "count", "stepping.admissible.s": "s",
    "stepping.linesearch.accept_ratio": "ratio",
    "stepping.krylov.solves": "count", "stepping.krylov.matvecs": "count",
    "stepping.krylov.precond": "count",
    "stepping.krylov.gmres_fallbacks": "count",
    "stepping.krylov.s": "s", "stepping.matvec.s": "s",
    "stepping.precond.s": "s",
    "flow_ma.solve.s": "s", "flow_ma.self.s": "s",
    "flow_hessian.solve.s": "s", "flow_hessian.self.s": "s",
    "estimates.entropy.s": "s", "estimates.i_series.s": "s",
    "estimates.level_stats.s": "s", "estimates.moser_trudinger.s": "s",
    "estimates.exp_alpha.s": "s", "estimates.holder_moduli.s": "s",
    "estimates.stability_ratio.s": "s",
    "regularize.kiselman_legendre.calls": "count",
    "regularize.kiselman_legendre.s": "s", "regularize.mollify.s": "s",
    "regularize.theta_scale_bound.s": "s", "regularize.time_average.s": "s",
    "regularize.ball_mass_profile.s": "s",
    "maxprinciple.contact_set.s": "s", "maxprinciple.lieberman.s": "s",
    "cli.run.self.s": "s", "cli.sweep.parallel_eff": "ratio",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, thread]
        self.counts: dict[str, int] = {}
        self.newton: list[list[int]] = []   # per step: [iterations, trials]
        self.sweeps: dict[int, int] = {}    # sweep span index -> workers
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # a worker thread's outermost span is caused by the main thread's
        # innermost open span (the sweep that submitted it)
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    # -- special wrappers -----------------------------------------------------

    def _newton(self, fn):
        sig = inspect.signature(fn)
        callbacks = (("residual_fn", "stepping.residual"),
                     ("linearization_fn", "stepping.linearization"),
                     ("admissible_fn", "stepping.admissible"))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            calls = {}
            for param, name in callbacks:
                if param in bound.arguments:
                    calls[name] = 0
                    bound.arguments[param] = self._counted(
                        name, bound.arguments[param], calls)
            idx = self._open("stepping.newton")
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._close(idx)
                # one linearization per iteration; every line-search trial
                # checks admissibility, besides the checks on entry and exit
                with self._lock:
                    self.newton.append([
                        calls.get("stepping.linearization", 0),
                        max(calls.get("stepping.admissible", 0) - 2, 0)])
        return traced

    def _counted(self, name: str, fn, calls: dict):
        traced = self.wrap(name, fn)

        def counted(*args, **kwargs):
            calls[name] += 1
            return traced(*args, **kwargs)
        return counted

    def _krylov(self, fn, fallback: bool):
        from scipy.sparse.linalg import LinearOperator

        def operator(op, name):
            if op is None:
                return None
            return LinearOperator(op.shape, matvec=self.wrap(name, op.matvec),
                                  dtype=op.dtype)

        @functools.wraps(fn)
        def traced(A, b, *args, **kwargs):
            self.count("stepping.krylov.gmres_fallbacks" if fallback
                       else "stepping.krylov.solves")
            if kwargs.get("M") is not None:
                kwargs["M"] = operator(kwargs["M"], "stepping.precond")
            idx = self._open("stepping.krylov")
            try:
                return fn(operator(A, "stepping.matvec"), b, *args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _checkpoint(self, fn, saving: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            path = args[1] if saving else args[0]
            if not saving:
                self.count("grid.checkpoint.bytes", os.path.getsize(path))
            idx = self._open("grid.checkpoint")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if saving:
                    self.count("grid.checkpoint.bytes", os.path.getsize(path))
        return traced

    def _sweep(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            n_values = len(bound.arguments.get("values", ()))
            workers = min(bound.arguments.get("max_workers", 1),
                          max(n_values, 1))
            idx = self._open("cli.sweep")
            self.sweeps[idx] = workers
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each pmaflow module that holds a reference."""
        targets = {key: (lambda fn, name=name: self.wrap(name, fn))
                   for key, name in SPANS.items()}
        targets[("pmaflow.stepping", "newton_step")] = self._newton
        targets[("pmaflow.stepping", "bicgstab")] = (
            lambda fn: self._krylov(fn, fallback=False))
        targets[("pmaflow.stepping", "gmres")] = (
            lambda fn: self._krylov(fn, fallback=True))
        targets[("pmaflow.grid", "save_trajectory")] = (
            lambda fn: self._checkpoint(fn, saving=True))
        targets[("pmaflow.grid", "load_trajectory")] = (
            lambda fn: self._checkpoint(fn, saving=False))
        targets[("pmaflow.cli", "sweep")] = self._sweep

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pmaflow" or name.startswith("pmaflow.")]
        for (mod_name, attr), make in targets.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue   # renamed or removed: its metrics read 0
            wrapped = make(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "newton": self.newton,
                "sweeps": {str(k): v for k, v in self.sweeps.items()}}


# ---------------------------------------------------------------------------
# aggregation (in the benchmark's own process)


def _durations(spans):
    return [end - start for _, start, end, _, _ in spans]


def _children(spans):
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            kids.setdefault(span[3], []).append(i)
    return kids


def self_times(spans) -> list[float]:
    """Duration minus the part of the span its direct children cover.

    Children may run in worker threads and overlap, so the covered part is
    the union of their intervals.
    """
    kids = _children(spans)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for k in sorted(kids.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def counters(records: list[dict]) -> dict:
    """The exactly repeatable work counts of one or more commands."""
    out = dict.fromkeys(COUNTERS, 0)
    for rec in records:
        counts = rec["counts"]
        spans = rec["spans"]
        out["stepping.newton.calls"] += len(rec["newton"])
        out["stepping.newton.iters"] += sum(i for i, _ in rec["newton"])
        out["stepping.linesearch.trials"] += sum(t for _, t in rec["newton"])
        out["stepping.krylov.solves"] += counts.get("stepping.krylov.solves", 0)
        out["stepping.krylov.gmres_fallbacks"] += counts.get(
            "stepping.krylov.gmres_fallbacks", 0)
        out["stepping.krylov.matvecs"] += sum(
            1 for s in spans if s[0] == "stepping.matvec")
        out["stepping.krylov.precond"] += sum(
            1 for s in spans if s[0] == "stepping.precond")
    return out


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(records: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and per-module self times of a traced session."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    newton_ms: list[float] = []
    minus_newton = {"flow_ma.self.s": 0.0, "flow_hessian.self.s": 0.0}
    module_self: dict[str, float] = {}
    run_self = 0.0
    sweep_busy = 0.0
    sweep_capacity = 0.0
    n_spans = 0

    for rec in records:
        spans = rec["spans"]
        n_spans += len(spans)
        dur = _durations(spans)
        own = self_times(spans)
        kids = _children(spans)
        for i, (name, *_rest) in enumerate(spans):
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            module = name.split(".")[0]
            module_self[module] = module_self.get(module, 0.0) + own[i]
            if name == "stepping.newton":
                newton_ms.append(1e3 * dur[i])
            elif name == "cli.run":
                run_self += own[i]
            key = {"flow_ma.implicit_step": "flow_ma.self.s",
                   "flow_hessian.solve": "flow_hessian.self.s"}.get(name)
            if key is not None:
                minus_newton[key] += dur[i] - sum(
                    dur[k] for k in kids.get(i, ())
                    if spans[k][0] == "stepping.newton")
        for idx, workers in rec["sweeps"].items():
            idx = int(idx)
            sweep_capacity += workers * dur[idx]
            sweep_busy += sum(dur[k] for k in kids.get(idx, ())
                              if spans[k][0] == "cli.run")

    work = counters(records)
    bytes_moved = sum(r["counts"].get("grid.checkpoint.bytes", 0)
                      for r in records)
    m = {
        "grid.hessian.calls": calls.get("grid.hessian", 0),
        "grid.hessian.s": total.get("grid.hessian", 0.0),
        "grid.convolve.calls": calls.get("grid.convolve", 0),
        "grid.convolve.s": total.get("grid.convolve", 0.0),
        "grid.checkpoint.s": total.get("grid.checkpoint", 0.0),
        "grid.checkpoint.bytes": bytes_moved,
        "stepping.newton.calls": work["stepping.newton.calls"],
        "stepping.newton.iters": work["stepping.newton.iters"],
        "stepping.newton.s": total.get("stepping.newton", 0.0),
        "stepping.newton.ms_p50": _quantile(newton_ms, 50),
        "stepping.newton.ms_p90": _quantile(newton_ms, 90),
        "stepping.residual.calls": calls.get("stepping.residual", 0),
        "stepping.residual.s": total.get("stepping.residual", 0.0),
        "stepping.linearization.s": total.get("stepping.linearization", 0.0),
        "stepping.admissible.calls": calls.get("stepping.admissible", 0),
        "stepping.admissible.s": total.get("stepping.admissible", 0.0),
        "stepping.linesearch.accept_ratio": (
            work["stepping.newton.iters"] / work["stepping.linesearch.trials"]
            if work["stepping.linesearch.trials"] else 0.0),
        "stepping.krylov.solves": work["stepping.krylov.solves"],
        "stepping.krylov.matvecs": work["stepping.krylov.matvecs"],
        "stepping.krylov.precond": work["stepping.krylov.precond"],
        "stepping.krylov.gmres_fallbacks":
            work["stepping.krylov.gmres_fallbacks"],
        "stepping.krylov.s": total.get("stepping.krylov", 0.0),
        "stepping.matvec.s": total.get("stepping.matvec", 0.0),
        "stepping.precond.s": total.get("stepping.precond", 0.0),
        "flow_ma.solve.s": total.get("flow_ma.solve", 0.0),
        "flow_hessian.solve.s": total.get("flow_hessian.solve", 0.0),
        "cli.run.self.s": run_self,
        "cli.sweep.parallel_eff": (sweep_busy / sweep_capacity
                                   if sweep_capacity else 0.0),
        "trace.spans": n_spans,
    }
    m.update(minus_newton)
    for name in SPANS.values():
        if name.split(".")[0] in ("estimates", "regularize", "maxprinciple"):
            m[f"{name}.s"] = total.get(name, 0.0)
    m["regularize.kiselman_legendre.calls"] = calls.get(
        "regularize.kiselman_legendre", 0)
    return m, module_self
