"""Span and counter recorder for the holoflow pipeline benchmark.

The recorder times calls into each holoflow module's public functions from
outside the package: ``install`` replaces every binding of a target function
in the loaded ``holoflow.*`` modules (``holoflow.flow.derive_flow`` and
``holoflow.verify.derive_flow`` are the same object, so both names get the
wrapper) and ``uninstall`` puts the original objects back.  Spans
``[name, start, end, parent]`` stay in memory; the child process writes them
out when it ends and the benchmark aggregates them with ``span_totals``.

Hot methods get a counter only, because a span per call would cost more
than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Optional


class Target(NamedTuple):
    """One wrapped callable: ``owner`` is a module name or ``module:Class``."""

    owner: str
    attr: str
    name: str  # span or counter name, ``<layer>.<what>``
    kind: str  # "span" or "count"
    hook: Optional[str] = None  # Recorder method that inspects the call's result


#: what the benchmark wraps; both model constructors share one span name
TARGETS = (
    Target("holoflow.algebra:Multivector", "eval_numeric", "algebra.eval_numeric", "span"),
    Target("holoflow.homogeneous", "q_model", "homogeneous.model_build", "span", "_model_built"),
    Target("holoflow.homogeneous", "m_model", "homogeneous.model_build", "span", "_model_built"),
    Target("holoflow.homogeneous", "classify_invariant_g2", "homogeneous.classify", "span"),
    Target("holoflow.homogeneous", "invariant_d", "homogeneous.invariant_d", "span"),
    Target("holoflow.structures", "build_invariant_structure", "structures.build_invariant_structure", "span"),
    Target("holoflow.structures", "rotate_structure", "structures.rotate_structure", "span"),
    Target("holoflow.flow", "derive_flow", "flow.derive_flow", "span"),
    Target("holoflow.flow", "kaehler_search", "flow.kaehler_search", "span"),
    Target("holoflow.flow", "exterior_d_time", "flow.exterior_d_time", "span"),
    Target("holoflow.integrate", "series_start", "integrate.series_start", "span"),
    Target("holoflow.integrate", "solve_orbit", "integrate.solve_orbit", "span"),
    Target("holoflow.integrate", "integrate", "integrate.integrate", "span", "_kernel_stats"),
    Target("holoflow.integrate:Trajectory", "to_csv", "integrate.csv_write", "span"),
    Target("holoflow.integrate:Trajectory", "from_csv", "integrate.csv_read", "span"),
    Target("holoflow._kernel", "solve", "kernel.solve", "span"),
    Target("holoflow.closed_form", "profile", "closed_form.profile", "span"),
    Target("holoflow.closed_form", "compare", "closed_form.compare", "span"),
    Target("holoflow.closed_form:_Profile", "value_squared", "closed_form.value_squared", "count"),
    Target("holoflow.closed_form:ProfileQ", "coefficient_squares", "closed_form.coefficient_squares", "count"),
    Target("holoflow.closed_form:ProfileM", "coefficient_squares", "closed_form.coefficient_squares", "count"),
    Target("holoflow.verify", "run_report", "verify.run_report", "span"),
    Target("holoflow.verify", "check_closure", "verify.check_closure", "span"),
    Target("holoflow.verify", "check_closure_samples", "verify.check_closure_samples", "span"),
    Target("holoflow.verify", "cone_fit", "verify.cone_fit", "span"),
    Target("holoflow.verify", "smoothness_report", "verify.smoothness_report", "span"),
    Target("holoflow.verify", "su4_family_check", "verify.su4_family_check", "span"),
    Target("holoflow.verify:ProfileSampler", "__call__", "verify.sampler", "count"),
    Target("holoflow.verify:TrajectorySampler", "__call__", "verify.sampler", "count"),
    Target("holoflow.cli", "main", "cli.main", "span"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def _holoflow_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "holoflow" or name.startswith("holoflow."))
    ]


class Recorder:
    """Wraps the targets while installed; spans and counts live on the instance."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (namespace object, attribute, original)

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder is already installed")
        try:
            for target in self.targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        owner = _resolve(target.owner)
        if isinstance(owner, type):
            raw = owner.__dict__[target.attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._patches.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapped)
            return
        original = getattr(owner, target.attr)
        wrapped = self._wrap(original, target)
        for mod in _holoflow_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        name = target.name
        counts = self.counts
        if target.kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        hook = getattr(self, target.hook) if target.hook else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            after = hook(fn) if hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after:
                after(result)
            return result

        return spanned

    # result hooks: hook(fn) runs before the call and returns a function of
    # its result; both run inside the parent span, outside this one

    def _model_built(self, fn):
        before = fn.cache_info().misses

        def after(_model):
            self.counts["homogeneous.models_built"] += fn.cache_info().misses - before

        return after

    def _kernel_stats(self, fn):
        def after(traj):
            for key in ("naccept", "nreject", "nfev"):
                self.counts[f"kernel.{key}"] += int(traj.stats.get(key, 0))

        return after

    # -- export ------------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_totals(spans: List[list], pauses=()) -> Dict[str, Dict[str, float]]:
    """Per span name: number of calls, inclusive time and self time.

    ``pauses`` are ``(start, seconds)`` of work that is not the program's,
    such as speed probes taken from a timer signal: each is taken off the
    innermost span it interrupted and off that span's ancestors."""
    total = [end - start for _, start, end, _ in spans]
    own = self_times(spans)
    for at, seconds in pauses:
        inner = max(
            (i for i, (_, start, end, _) in enumerate(spans) if start <= at < end),
            key=lambda i: spans[i][1],
            default=-1,
        )
        if inner >= 0:
            own[inner] -= seconds
        while inner >= 0:
            total[inner] -= seconds
            inner = spans[inner][3]
    totals: Dict[str, Dict[str, float]] = {}
    for span, inclusive, exclusive in zip(spans, total, own):
        entry = totals.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += inclusive
        entry["self_s"] += exclusive
    return totals
