"""Spans around the calls into each skewcube module, and the per-layer metrics.

The traced run replaces public functions at the sites they are imported
into (``skewcube.search.covered_set``, ``skewcube.kernel.modp_rank``, ...)
with wrappers that record a span: name, start, end, parent and run id. Spans
stay in memory until the run writes them out. A span's self time is its
duration minus the time its child spans cover; calls are strictly nested in
one thread, so that is the duration minus the children's durations.

Layers are the package modules. Row blocks for ``modp_rank`` are generated
lazily by its caller's generator and consumed inside it, so the
``linalg.modp_rank`` self time includes building the rows.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name, counter hook). A target the package no
# longer has is skipped, and its metrics read 0.
TARGETS = [
    ("skewcube.cli", "main", "cli.main", None),
    ("skewcube.cli", "read_planes", "cli.read_planes", None),
    ("skewcube.cli", "read_poly", "cli.read_poly", None),
    ("skewcube.cli", "verify_cover", "cube.verify_cover", "verify"),
    ("skewcube.search", "verify_cover", "cube.verify_cover", "verify"),
    ("skewcube.search", "covered_set", "cube.covered_set", None),
    ("skewcube.cli", "min_cover_search", "search.min_cover_search", "nodes"),
    ("skewcube.search", "candidate_pool", "search.candidate_pool", "pool"),
    ("skewcube.search", "greedy_cover", "search.greedy_cover", None),
    ("skewcube.cli", "inverse_wht", "fourier.inverse_wht", None),
    ("skewcube.cli", "wht", "fourier.wht", None),
    ("skewcube.fourier.MultilinearPoly", "value_at", "fourier.value_at", None),
    ("skewcube.cli", "build_scheme", "interpolation.build_scheme", None),
    ("skewcube.interpolation", "build_scheme", "interpolation.build_scheme", None),
    ("skewcube.cli", "recover_coefficient", "interpolation.recover_coefficient", "atoms"),
    ("skewcube.interpolation", "recover_coefficient", "interpolation.recover_coefficient", "atoms"),
    ("skewcube.interpolation", "vanishing_dimension", "interpolation.vanishing_dimension", None),
    ("skewcube.cli", "build_system", "kernel.build_system", None),
    ("skewcube.cli", "kernel_dim", "kernel.kernel_dim", None),
    ("skewcube.kernel", "modp_rank", "linalg.modp_rank", "certified"),
    ("skewcube.interpolation", "modp_rank", "linalg.modp_rank", "certified"),
    ("skewcube.kernel", "exact_nullity", "linalg.exact_nullity", None),
    ("skewcube.interpolation", "exact_nullity", "linalg.exact_nullity", None),
]

# Every per-layer metric with its unit and direction, in report order.
LAYER_METRICS = {
    "cube.verify_cover.self_s": ("s", "lower"),
    "cube.evals": ("count", "lower"),
    "cube.evals_per_s": ("1/s", "higher"),
    "cube.parallel_eff": ("ratio", "higher"),
    "cube.covered_set.calls": ("count", "lower"),
    "cube.covered_set.self_s": ("s", "lower"),
    "search.candidate_pool.self_s": ("s", "lower"),
    "search.pool_size": ("count", "lower"),
    "search.min_cover_search.self_s": ("s", "lower"),
    "search.nodes": ("count", "lower"),
    "search.nodes_per_s": ("1/s", "higher"),
    "search.greedy_cover.self_s": ("s", "lower"),
    "fourier.inverse_wht.self_s": ("s", "lower"),
    "fourier.wht.self_s": ("s", "lower"),
    "fourier.butterfly_adds": ("count", "lower"),
    "fourier.value_at.calls": ("count", "lower"),
    "fourier.value_at.self_s": ("s", "lower"),
    "interpolation.build_scheme.self_s": ("s", "lower"),
    "interpolation.atoms": ("count", "lower"),
    "interpolation.recover_coefficient.calls": ("count", "lower"),
    "interpolation.recover_coefficient.self_s": ("s", "lower"),
    "interpolation.vanishing_dimension.self_s": ("s", "lower"),
    "kernel.build_system.self_s": ("s", "lower"),
    "kernel.kernel_dim.self_s": ("s", "lower"),
    "linalg.modp_rank.calls": ("count", "lower"),
    "linalg.modp_rank.self_s": ("s", "lower"),
    "linalg.certified_ratio": ("ratio", "higher"),
    "linalg.exact_nullity.calls": ("count", "lower"),
    "linalg.exact_nullity.self_s": ("s", "lower"),
    "linalg.matrix_cells": ("count", "lower"),
    "cli.read_planes.self_s": ("s", "lower"),
    "cli.read_poly.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _resolve(dotted: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.counters: dict[str, int] = defaultdict(int)
        self.verify_calls: list[tuple] = []  # (planes, workers, evals, seconds)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields the span's index."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def _wrap(self, fn, name: str, hook: str | None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sid:
                result = fn(*args, **kwargs)
            if hook:
                tracer._count(hook, args, kwargs, result, sid)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, hook, args, kwargs, result, sid):
        c = self.counters
        if hook == "verify":
            family = args[0]
            _, start, end, _ = self.spans[sid]
            self.verify_calls.append(
                (family.planes, kwargs.get("workers", 1), len(family) << family.n, end - start)
            )
        elif hook == "nodes":
            c["search.nodes"] += result.nodes_explored
        elif hook == "pool":
            c["search.pool_size"] += len(result)
        elif hook == "atoms":
            c["interpolation.atoms"] += len(args[0].atoms)
        elif hook == "certified":
            c["linalg.certified"] += bool(result[1])

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for owner_path, attr, name, hook in TARGETS:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": i, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: total self time and number of spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
        return self_s, calls


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round, except ``trace.overhead_s``.

    ``records`` are the round's judged jobs; their ``computed`` counts
    (butterfly additions, matrix cells) come from the job sizes, not from
    the program.
    """
    self_s, calls = tracer.self_times()
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        name, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = self_s.get(name, 0.0)
        elif field == "calls":
            out[metric] = calls.get(name, 0)

    serial = [(planes, evals, sec) for planes, workers, evals, sec in tracer.verify_calls if workers == 1]
    out["cube.evals"] = sum(evals for _, _, evals, _ in tracer.verify_calls)
    serial_s = sum(sec for _, _, sec in serial)
    out["cube.evals_per_s"] = sum(evals for _, evals, _ in serial) / serial_s if serial_s else 0.0
    out["cube.parallel_eff"] = 0.0
    for planes, workers, _, sec in tracer.verify_calls:
        t1 = next((s for p, _, s in serial if p == planes), None)
        if workers > 1 and t1 is not None:
            out["cube.parallel_eff"] = t1 / (workers * sec)
            break

    for key in ("search.nodes", "search.pool_size", "interpolation.atoms"):
        out[key] = tracer.counters.get(key, 0)
    search_s = out["search.min_cover_search.self_s"]
    out["search.nodes_per_s"] = out["search.nodes"] / search_s if search_s else 0.0
    ranks = out["linalg.modp_rank.calls"]
    out["linalg.certified_ratio"] = tracer.counters.get("linalg.certified", 0) / ranks if ranks else 0.0

    def computed(key):
        return sum(r["computed"].get(key, 0) for r in records)

    out["fourier.butterfly_adds"] = computed("butterfly_adds")
    out["linalg.matrix_cells"] = computed("matrix_cells")
    return out
