"""Span tracing of riskscale from outside the package.

``Tracer.install()`` replaces every module-level binding of the traced
public functions in the loaded ``riskscale`` modules (modules bind them by
name, e.g. ``from .samplers import gamma_sample``), the ``verify.CHECKS``
tuple, ``RngStream.generator`` and each ``RadialLaw`` subclass's ``sample``
with timing wrappers. ``uninstall()`` puts every original back. The program
itself is not modified.

A span is ``[id, parent, name, thread, start, end, attrs]``; spans stay in
memory until the caller writes them out. ``SpanSummary`` and
``layer_metric`` turn a span list into the per-layer metrics named in
BENCHMARK.json.

This module imports riskscale only inside ``install``, so the benchmark
driver can analyse spans without importing the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict


def _size(bound) -> int:
    """Number of values a sampler's ``size`` argument asks for."""
    size = bound.arguments.get("size")
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _points(*names):
    def count(bound) -> int:
        import numpy as np
        return sum(int(np.size(bound.arguments[name])) for name in names)
    return count


# span name -> (module, function, attrs counter)
FUNCTIONS = {
    "cli.run": ("cli", "run", None),
    "samplers.gamma": ("samplers", "gamma_sample", {"draws": _size}),
    "samplers.beta": ("samplers", "beta_sample", {"draws": _size}),
    "samplers.pareto": ("samplers", "pareto_sample", {"draws": _size}),
    "samplers.inv_gamma": ("samplers", "inv_gamma_sample", {"draws": _size}),
    "samplers.y_marginal": ("samplers", "y_marginal_sample", {"draws": _size}),
    "samplers.normal": ("samplers", "normal_sample", {"draws": _size}),
    "samplers.bernoulli_pm1": ("samplers", "bernoulli_pm1", {"draws": _size}),
    "dirichlet.angular_sample": ("dirichlet", "angular_sample", {"rows": _size}),
    "dirichlet.lp_dirichlet_sample": ("dirichlet", "lp_dirichlet_sample", None),
    "dirichlet.weighted_sample": ("dirichlet", "weighted_sample", None),
    "dirichlet.random_p_sample": ("dirichlet", "random_p_sample", None),
    "dirichlet.random_scale_sequence_sample":
        ("dirichlet", "random_scale_sequence_sample", None),
    "dirichlet.beta_gamma_sample": ("dirichlet", "beta_gamma_sample", None),
    "tails.mgb2_sample": ("tails", "mgb2_sample", None),
    "tails.mgb2_conditional_sample": ("tails", "mgb2_conditional_sample", None),
    "tails.scale_mixture_exp_sample": ("tails", "scale_mixture_exp_sample", None),
    "tails.tail_dependence_limit": ("tails", "tail_dependence_limit", None),
    "tails.tail_ratio_empirical": ("tails", "tail_ratio_empirical", None),
    "tails.tail_convergence_table": ("tails", "tail_convergence_table", None),
    "credibility.premium_mc": ("credibility", "premium_mc", None),
    "credibility.premium_gaussian": ("credibility", "premium_gaussian", None),
    "credibility.premium_elliptical": ("credibility", "premium_elliptical", None),
    "linalg.mat_inverse": ("linalg", "mat_inverse", None),
    "gof.ks_one_sample": ("gof", "ks_one_sample", {"points": _points("x")}),
    "gof.ks_two_sample": ("gof", "ks_two_sample", {"points": _points("x", "y")}),
    "cdfs.beta_cdf": ("cdfs", "beta_cdf", None),
    "cdfs.normal_cdf": ("cdfs", "normal_cdf", None),
}

MAP_BLOCKS = "rng.map_blocks"
FILL = "rng.map_blocks.fill"
GENERATOR = "rng.generator"
RADIAL = "radial.sample"
SPANS = {*FUNCTIONS, MAP_BLOCKS, FILL, GENERATOR, RADIAL}


def _is_riskscale(name: str) -> bool:
    return name == "riskscale" or name.startswith("riskscale.")


class Tracer:
    """Installs span-recording wrappers into the loaded riskscale modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, call, attrs=None, parent=None, span_id=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if span_id is None:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, parent, name, threading.get_ident(),
                               start, end, attrs])

    def _wrap(self, name, fn, counters=None):
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if counters:
                bound = signature.bind(*args, **kwargs)
                attrs = {key: count(bound) for key, count in counters.items()}
            return self._record(name, lambda: fn(*args, **kwargs), attrs)

        wrapper.span_name = name
        return wrapper

    def _wrap_map_blocks(self, fn, rng):
        """map_blocks span plus one child span per block ``fill`` call."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            n = int(bound.arguments["n"])
            blocks = -(-n // rng.BLOCK_ROWS)
            workers = rng.resolve_workers(bound.arguments.get("workers"))
            attrs = {"rows": n, "cols": bound.arguments.get("ncols") or 1,
                     "workers": 1 if blocks <= 1 else min(workers, blocks)}
            span_id = next(self._ids)
            fill = bound.arguments["fill"]

            def traced_fill(block, lo, hi):
                return self._record(FILL, lambda: fill(block, lo, hi),
                                    {"rows": hi - lo}, parent=span_id)

            bound.arguments["fill"] = traced_fill
            return self._record(MAP_BLOCKS, lambda: fn(*bound.args, **bound.kwargs),
                                attrs, span_id=span_id)

        wrapper.span_name = MAP_BLOCKS
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {name: importlib.import_module(f"riskscale.{name}")
                   for name in ("cli", "rng", "radial", "verify",
                                *(mod for mod, _, _ in FUNCTIONS.values()))}
        rng, radial, verify = modules["rng"], modules["radial"], modules["verify"]

        wrappers = {}  # id(original) -> (original, wrapper)
        for name, (mod, attr, counters) in FUNCTIONS.items():
            fn = getattr(modules[mod], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, counters))
        wrappers[id(rng.map_blocks)] = (
            rng.map_blocks, self._wrap_map_blocks(rng.map_blocks, rng))
        for check in verify.CHECKS:
            wrappers[id(check)] = (check, self._wrap(f"verify.{check.__name__}", check))

        for modname, module in sorted(sys.modules.items()):
            if not _is_riskscale(modname) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patch(module, attr, wrapper)
        self._patch(verify, "CHECKS",
                    tuple(wrappers[id(check)][1] for check in verify.CHECKS))

        self._patch(rng.RngStream, "generator",
                    self._wrap(GENERATOR, rng.RngStream.generator))
        for cls in vars(radial).values():
            if (isinstance(cls, type) and issubclass(cls, radial.RadialLaw)
                    and cls is not radial.RadialLaw and "sample" in vars(cls)):
                self._patch(cls, "sample", self._wrap(RADIAL, vars(cls)["sample"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def is_wrapper(obj) -> bool:
    return hasattr(obj, "span_name") and hasattr(obj, "__wrapped__")


# -- analysis ----------------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanSummary:
    """Per-name aggregates of one traced run's spans."""

    def __init__(self, spans):
        children = defaultdict(list)
        for span in spans:
            if span[1] is not None:
                children[span[1]].append(span)
        self.by_name = defaultdict(list)
        self.self_time = {}
        for span in spans:
            span_id, _, name, _, start, end, _ = span
            self.by_name[name].append(span)
            kids = [(c[4], c[5]) for c in children.get(span_id, ())]
            self.self_time[span_id] = (end - start) - _covered(start, end, kids)
        self._children = children

    def calls(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, name) -> float:
        return sum(s[5] - s[4] for s in self.by_name.get(name, ()))

    def self_s(self, name) -> float:
        return sum(self.self_time[s[0]] for s in self.by_name.get(name, ()))

    def total(self, name, key) -> int:
        return sum(s[6][key] for s in self.by_name.get(name, ()))

    def block_counts(self) -> list[tuple[int, int]]:
        """(rows, fill calls) of every map_blocks span, in start order."""
        spans = sorted(self.by_name.get(MAP_BLOCKS, ()), key=lambda s: s[4])
        return [(s[6]["rows"],
                 sum(1 for c in self._children.get(s[0], ()) if c[2] == FILL))
                for s in spans]

    def map_blocks_idle(self) -> float:
        """Worker time inside map_blocks not spent in block fills."""
        idle = 0.0
        for span in self.by_name.get(MAP_BLOCKS, ()):
            fills = sum(c[5] - c[4] for c in self._children.get(span[0], ())
                        if c[2] == FILL)
            idle += span[6]["workers"] * (span[5] - span[4]) - fills
        return idle

    def largest_self(self) -> tuple[str, float]:
        totals = {name: self.self_s(name) for name in self.by_name}
        name = max(totals, key=totals.get)
        return name, totals[name]


def layer_metric(summary: SpanSummary, name: str, extra: dict) -> float:
    """Value of one per-layer metric name from BENCHMARK.json.

    ``extra`` holds the values measured outside the spans (set-up times,
    output size, tracing overhead), keyed by full metric name.
    """
    if name in extra:
        return extra[name]
    if name == "cli.run_self_s":
        return summary.self_s("cli.run")
    if name == "rng.map_blocks.blocks":
        return summary.calls(FILL)
    if name == "rng.map_blocks.fill_s":
        return summary.busy(FILL)
    if name == "rng.map_blocks.overhead_s":
        return summary.self_s(MAP_BLOCKS)
    if name == "rng.map_blocks.idle_s":
        return summary.map_blocks_idle()
    if name == "rng.map_blocks.bytes_out":
        return sum(8 * s[6]["rows"] * s[6]["cols"]
                   for s in summary.by_name.get(MAP_BLOCKS, ()))
    if name == "samplers.gamma.draws_per_s":
        busy = summary.busy("samplers.gamma")
        return summary.total("samplers.gamma", "draws") / busy if busy else 0.0
    span, stat = name.rsplit(".", 1)
    if span not in SPANS and not span.startswith("verify.check_"):
        raise KeyError(f"no span named {span!r} for metric {name!r}")
    if stat == "calls":
        return summary.calls(span)
    if stat in ("busy_s", "s"):
        return summary.busy(span)
    if stat == "self_s":
        return summary.self_s(span)
    if stat in ("draws", "rows", "points"):
        return summary.total(span, stat)
    raise KeyError(f"unknown statistic {stat!r} in metric {name!r}")

