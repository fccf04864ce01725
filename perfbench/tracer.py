"""Span tracing of lattes_lab from outside the package.

`Recorder.install()` replaces each traced public function with a wrapper in
every lattes_lab module that binds it by name (methods are replaced on their
class), and `uninstall()` puts the originals back.  A wrapper records a span
[name, start, end, parent] in memory; counters are kept beside the spans.
Forked pool workers inherit the wrappers but do not record: a fork handler
switches the recorder off in the child, so pool time is seen only through the
pool span and the reaped children's rusage.

`layer_metrics()` turns the spans and counters of one traced run into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path, span name); a span name of None means
# "<module>.<last attribute>"
TARGETS = (
    ("intmath", "primes_upto", None),
    ("elliptic", "count_points", None),
    ("elliptic", "lattes_map", None),
    ("elliptic", "DivisionPolynomials.__getitem__", "elliptic.division_polys"),
    ("elliptic", "torsion_x_rational", None),
    ("elliptic", "Curve.good_primes", "elliptic.Curve.good_primes"),
    ("polyrat", "RatMap.reduce_mod_p", None),
    ("polyrat", "RatMap.is_bijection", None),
    ("polyrat", "RatMap.value_table", None),
    ("polyrat", "format_ratmap", None),
    ("exceptionality", "scan", None),
    ("exceptionality", "frobenius_scan", None),
    ("exceptionality", "TraceCache.__init__", "exceptionality.TraceCache.load"),
    ("exceptionality", "TraceCache.get", "exceptionality.TraceCache.get"),
    ("exceptionality", "TraceCache.save", "exceptionality.TraceCache.save"),
    ("exceptionality", "render_scan_csv", None),
    ("exceptionality", "strategy_primes", None),
    ("quadorder", "find_prime_element", None),
    ("eisenstein", "power_residue_symbol", None),
    ("eisenstein", "lemma_ab_witness", None),
    ("galois", "empirical_density", None),
    ("cli", "main", None),
)

# span names whose recursive calls are folded into the outermost span
_FOLD_RECURSION = {"elliptic.division_polys"}


def _count_points_elems(counts, args, kwargs, result):
    counts["elliptic.count_points.elems"] += kwargs.get("p", args[1] if len(args) > 1 else 0)


def _frobenius_primes(counts, args, kwargs, result):
    counts["exceptionality.frobenius_scan.primes"] += len(result)


def _cache_get(counts, args, kwargs, result):
    counts["exceptionality.TraceCache.misses" if result is None else "exceptionality.TraceCache.hits"] += 1


_ON_RESULT = {
    "elliptic.count_points": _count_points_elems,
    "exceptionality.frobenius_scan": _frobenius_primes,
    "exceptionality.TraceCache.get": _cache_get,
}


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self._patches: list[tuple[object, str, object]] = []
        self._lattes_cache = None
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def open_span(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_span(self, span: list):
        span[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        rec = self
        fold = name in _FOLD_RECURSION
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled or (fold and rec.stack and rec.spans[rec.stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = rec.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close_span(span)
            if on_result is not None:
                on_result(rec.counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        elliptic = importlib.import_module("lattes_lab.elliptic")
        self._lattes_cache = elliptic.lattes_map  # the lru_cache object, for its hit count
        self._lattes_hits0 = self._lattes_cache.cache_info().hits
        modules = [m for n, m in list(sys.modules.items()) if n == "lattes_lab" or n.startswith("lattes_lab.")]
        for modname, path, span_name in TARGETS:
            mod = importlib.import_module(f"lattes_lab.{modname}")
            *owner_path, attr = path.split(".")
            name = span_name or f"{modname}.{attr}"
            if owner_path:
                cls = getattr(mod, owner_path[0])
                self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapped)
        exc = importlib.import_module("lattes_lab.exceptionality")
        self._patch(exc, "ProcessPoolExecutor", _traced_pool(self, exc.ProcessPoolExecutor))

    def uninstall(self):
        if self._lattes_cache is not None:
            hits = self._lattes_cache.cache_info().hits - self._lattes_hits0
            self.counts["elliptic.lattes_map.cache_hits"] += hits
            self._lattes_cache = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _traced_pool(rec: Recorder, base):
    """A ProcessPoolExecutor that records a 'pool' span from entry to the
    end of shutdown, the chunks it was given and its reaped workers' CPU."""

    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            rec.counts["pool.workers"] = max(rec.counts["pool.workers"], self._max_workers)

        def __enter__(self):
            self._span = rec.open_span("pool")
            self._cpu0 = _child_cpu_s()
            return super().__enter__()

        def map(self, fn, *iterables, **kwargs):
            items = list(iterables[0])
            rec.counts["pool.chunks"] += len(items)
            return super().map(fn, items, *iterables[1:], **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec.counts["pool.child_cpu_s"] += _child_cpu_s() - self._cpu0
                rec.close_span(self._span)

    return TracedPool


# -- per-layer metrics -----------------------------------------------------------


def span_times(spans: list[list]) -> tuple[dict, dict, Counter]:
    """Inclusive seconds, self seconds and call counts per span name.  Self
    time is a span's duration minus the time its child spans cover; children
    of one span run one after another, so their durations add up."""
    incl: dict[str, float] = {}
    child: list[float] = [0.0] * len(spans)
    calls: Counter = Counter()
    for name, start, end, parent in spans:
        dur = end - start
        incl[name] = incl.get(name, 0.0) + dur
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
    self_s: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
    return incl, self_s, calls


def find_prime_retries(spans: list[list]) -> tuple[int, int]:
    """(retries, kept): each strategy_primes span keeps the result of its
    last find_prime_element call; every earlier call was a x4 bound retry."""
    per_parent: Counter = Counter()
    for name, _, _, parent in spans:
        if name == "quadorder.find_prime_element" and parent >= 0:
            per_parent[parent] += 1
    kept = len(per_parent)
    return sum(per_parent.values()) - kept, kept


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    incl, self_s, calls = span_times(spans)
    s = lambda name: incl.get(name, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    c = counts
    fps = s("exceptionality.frobenius_scan")
    hits, misses = c["exceptionality.TraceCache.hits"], c["exceptionality.TraceCache.misses"]
    retries, kept = find_prime_retries(spans)
    fpe_calls = calls["quadorder.find_prime_element"]
    return {
        "elliptic.count_points.s": s("elliptic.count_points"),
        "elliptic.count_points.calls": calls["elliptic.count_points"],
        "elliptic.count_points.ns_per_elem": ratio(s("elliptic.count_points") * 1e9, c["elliptic.count_points.elems"]),
        "exceptionality.frobenius_scan.s": fps,
        "exceptionality.frobenius_scan.self_s": self_s.get("exceptionality.frobenius_scan", 0.0),
        "exceptionality.frobenius_scan.primes": c["exceptionality.frobenius_scan.primes"],
        "pool.s": s("pool"),
        "pool.child_cpu_s": c["pool.child_cpu_s"],
        "pool.chunks": c["pool.chunks"],
        "pool.busy_frac": ratio(c["pool.child_cpu_s"], c["pool.workers"] * fps),
        "intmath.primes_upto.s": s("intmath.primes_upto"),
        "intmath.primes_upto.calls": calls["intmath.primes_upto"],
        "elliptic.Curve.good_primes.s": s("elliptic.Curve.good_primes"),
        "exceptionality.TraceCache.load_s": s("exceptionality.TraceCache.load"),
        "exceptionality.TraceCache.save_s": s("exceptionality.TraceCache.save"),
        "exceptionality.TraceCache.get_s": s("exceptionality.TraceCache.get"),
        "exceptionality.TraceCache.hits": hits,
        "exceptionality.TraceCache.misses": misses,
        "exceptionality.TraceCache.hit_ratio": ratio(hits, hits + misses),
        "exceptionality.scan.self_s": self_s.get("exceptionality.scan", 0.0),
        "exceptionality.render_scan_csv.s": s("exceptionality.render_scan_csv"),
        "galois.empirical_density.self_s": self_s.get("galois.empirical_density", 0.0),
        "elliptic.lattes_map.s": s("elliptic.lattes_map"),
        "elliptic.lattes_map.calls": calls["elliptic.lattes_map"],
        "elliptic.lattes_map.cache_hits": c["elliptic.lattes_map.cache_hits"],
        "elliptic.division_polys.s": s("elliptic.division_polys"),
        "elliptic.torsion_x_rational.s": s("elliptic.torsion_x_rational"),
        "polyrat.format_ratmap.s": s("polyrat.format_ratmap"),
        "polyrat.reduce_mod_p.s": s("polyrat.reduce_mod_p"),
        "polyrat.reduce_mod_p.calls": calls["polyrat.reduce_mod_p"],
        "polyrat.is_bijection.self_s": self_s.get("polyrat.is_bijection", 0.0),
        "polyrat.is_bijection.calls": calls["polyrat.is_bijection"],
        "polyrat.value_table.s": s("polyrat.value_table"),
        "exceptionality.strategy_primes.s": s("exceptionality.strategy_primes"),
        "exceptionality.strategy_primes.self_s": self_s.get("exceptionality.strategy_primes", 0.0),
        "exceptionality.strategy_primes.calls": calls["exceptionality.strategy_primes"],
        "quadorder.find_prime_element.s": s("quadorder.find_prime_element"),
        "quadorder.find_prime_element.calls": fpe_calls,
        "quadorder.find_prime_element.retries": retries,
        "quadorder.find_prime_element.useful_frac": ratio(kept, fpe_calls),
        "eisenstein.power_residue_symbol.s": s("eisenstein.power_residue_symbol"),
        "eisenstein.power_residue_symbol.calls": calls["eisenstein.power_residue_symbol"],
        "eisenstein.lemma_ab_witness.s": s("eisenstein.lemma_ab_witness"),
        "cli.main.s": s("cli.main"),
        "cli.main.calls": calls["cli.main"],
    }


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read from its suffix."""
    if name.endswith("ns_per_elem"):
        return "ns"
    if name.endswith(("frac", "ratio")):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"

