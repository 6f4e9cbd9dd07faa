"""Span tracing of sontagctl layers from outside the program.

``Tracer.install`` wraps every public function and public method that
the ``sontagctl`` modules define, and rebinds every module-level name
that refers to one of them (``riccati.solve_lyapunov`` as well as
``linalg.solve_lyapunov``, ``cli.simulate`` as well as
``sim.simulate``), so calls made through any alias are traced. The
model callables ``f`` and ``G`` are closures, not module-level names;
they are wrapped on every system that ``pendulum_system`` and
``lti_system`` return while tracing is installed. ``uninstall`` puts
every original back, so untraced passes run the unmodified program.

Each wrapped call records a span (id, parent span, op id, name, start,
end) in memory and adds to per-name counters: calls, self seconds
(span time minus the time covered by child spans) and, for the
controller and CLF entry points, stacked rows. Hooks read results
after the span closes to count outcomes (halted rows, lambda
fallbacks, CLF-violation flags, grid points) and to keep each Riccati
solve for the oracle comparison made after the pass.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

#: Spans kept in memory per run; counters keep counting past the cap.
SPAN_CAP = 50_000

#: Span names whose first positional argument (after self) is a batch of
#: stacked states, so rows are counted.
ROW_NAMES = frozenset({
    "control.SontagController.u",
    "control.SontagController.closed_loop_deriv",
    "control.SontagController.evaluate",
    "control.FblController.u",
    "control.LqrController.u",
    "clf.QuadraticClf.grad",
    "clf.TransformedClf.grad",
})


def _rows(X) -> int:
    shape = np.shape(X)
    if len(shape) < 2:
        return 1
    return int(np.prod(shape[:-1]))


class Tracer:
    """In-memory spans and per-name counters for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = 0
        self._next_id = 1
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.reset_counters()

    def reset_counters(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.rows = defaultdict(int)
        self.counts = defaultdict(int)
        self.care_by_n = defaultdict(list)   # n -> inclusive ms of certified solves
        self.care_solves: list[tuple] = []   # (A, B, Q, R, P) for the scipy oracle
        self.grid_points = 0
        self.grid_seconds = 0.0

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        clock = time.perf_counter
        count_rows = name in ROW_NAMES

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, parent, t0, clock())
                if hook is not None:
                    hook(self, args, None, exc, 0.0)
                raise
            t1 = clock()
            self._close(name, frame, parent, t0, t1)
            if count_rows and len(args) > 1:
                self.rows[name] += _rows(args[1])
            if hook is not None:
                hook(self, args, result, None, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _close(self, name, frame, parent, t0, t1) -> None:
        self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent, self.op_id, name, t0, t1))
        else:
            self.spans_dropped += 1

    # -- patching ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of every submodule of
        ``package`` and rebind every module-level alias to them."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)
                   if not info.name.startswith("_")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, HOOKS.get(name))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            self._set(obj, meth, self.wrap(name, fn, HOOKS.get(name)))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV, times in seconds from the first span."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{op},{name},{t0 - base:.9f},{t1 - base:.9f}\n")


# -- outcome hooks -------------------------------------------------------

def _wrap_model(tracer, args, result, exc, dur):
    if exc is not None:
        return
    system = result[0]
    # SystemModel is frozen; swap the callables on this instance only.
    object.__setattr__(system, "f", tracer.wrap("model.f", system.f))
    object.__setattr__(system, "G", tracer.wrap("model.G", system.G))


def _care(tracer, args, result, exc, dur):
    if exc is None:
        A, B, Q, R = (np.asarray(a, dtype=float) for a in args[:4])
        tracer.care_by_n[A.shape[0]].append(dur * 1e3)
        tracer.care_solves.append((A, B, Q, R, result.P))


def _rollout(tracer, args, result, exc, dur):
    if exc is None:
        tracer.counts["sim.halted_rows"] += int(np.count_nonzero(result[2]))


def _simulate(tracer, args, result, exc, dur):
    if exc is None:
        tracer.counts["sim.halted_rows"] += int(result.diverged)
        tracer.counts["sim.clf_violation_flags"] += sum(
            row.split(";").count("clf_violation") for row in result.flags)


def _cost_report(tracer, args, result, exc, dur):
    if exc is None:
        tracer.counts["sim.lambda_fallbacks"] += int(result.lambda_fallback_count)


def _roa_certify(tracer, args, result, exc, dur):
    if exc is None:
        tracer.grid_points += int(result.points.shape[0])
        tracer.grid_seconds += dur


def _largest_sublevel(tracer, args, result, exc, dur):
    if exc is None:
        tracer.grid_points += int(np.prod(args[3].points_per_axis))
        tracer.grid_seconds += dur


HOOKS = {
    "model.pendulum_system": _wrap_model,
    "model.lti_system": _wrap_model,
    "riccati.solve_care": _care,
    "sim.rollout_costs": _rollout,
    "sim.simulate": _simulate,
    "sim.make_cost_report": _cost_report,
    "analysis.roa_certify": _roa_certify,
    "analysis.largest_certified_sublevel": _largest_sublevel,
}
