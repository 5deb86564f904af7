"""Outside-in tracing of seuclid's public functions.

The tracer replaces each traced function at every place its name is
bound: the defining module, the package namespace and every module that
took it with ``from .x import y``.  Calls inside seuclid look the name up
in their own module's globals, so they reach the wrapper too.
``uninstall`` puts the original objects back.

Timed functions record a span ``(name, start, end, parent)`` in memory.
Count-only names (the comparison kernel and surd construction) just bump
a counter, which keeps the traced run close enough to the untraced one
to be useful.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

# functions that get a span per call, by layer (module of definition)
TIMED = {
    "covering": ["intervals", "covers_unit", "certify_euclidean", "residual", "replay_chain"],
    "witness": ["witness_bound", "certify_non_euclidean", "oracle_min_snorm"],
    "disks": ["verify_disk_cert", "verify_gap_line", "verify_exceptional_bundle", "certify_exceptional"],
    "certs": [
        "certificate_to_obj",
        "canonical_json",
        "load_certificate_obj",
        "certificate_from_obj",
        "verify_certificate_obj",
    ],
    "cli": ["decide", "survey_rows"],
}
COUNTED = ["exact.surd_cmp", "exact.SurdValue"]

# extra per-call counters: function -> (stat, f(arguments, result, raised) -> increment)
EXTRAS = {
    "covering.intervals": ("built", lambda a, r, e: 0 if e else len(r)),
    "covering.covers_unit": ("covers", lambda a, r, e: int(not e and hasattr(r, "chain"))),
    "covering.residual": ("gaps", lambda a, r, e: 0 if e else len(r.gaps)),
    "covering.replay_chain": ("links", lambda a, r, e: len(a["chain"])),
    "witness.oracle_min_snorm": ("points", lambda a, r, e: (a["n_max"] + 1) * (2 * a["coeff_max"] + 1) ** 2),
    "disks.verify_disk_cert": ("cells", lambda a, r, e: a["cert"].subdivision_depth ** 2),
    "disks.verify_gap_line": ("pieces", lambda a, r, e: len(a["cert"].pieces)),
    "certs.verify_certificate_obj": ("rejected", lambda a, r, e: int(e or r is not True)),
    "certs.canonical_json": ("bytes", lambda a, r, e: 0 if e else len(r.encode())),
}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{key}.calls" for key in COUNTED]
    for module, functions in TIMED.items():
        for function in functions:
            key = f"{module}.{function}"
            names += [f"{key}.calls", f"{key}.busy_s", f"{key}.self_s"]
            if key in EXTRAS:
                stat = EXTRAS[key][0]
                names.append(f"{key}.useful_ratio" if stat == "covers" else f"{key}.{stat}")
    return names + ["trace.overhead_ratio"]


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("ratio"):
        return "ratio"
    return "bytes" if stat == "bytes" else "count"


class Tracer:
    """Wraps seuclid's public functions while installed; ``take`` returns
    and clears what was recorded since its last call."""

    def __init__(self, api):
        self.api = api
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        for module, functions in TIMED.items():
            for function in functions:
                original = getattr(getattr(api, module), function)
                wrapper = self._timed(f"{module}.{function}", original)
                self._wrappers[id(original)] = (original, wrapper)
        surd_cmp = api.exact.surd_cmp
        self._wrappers[id(surd_cmp)] = (surd_cmp, self._counted("exact.surd_cmp.calls", surd_cmp))
        self._post_init = api.exact.SurdValue.__post_init__

    def _timed(self, key, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        stat, extra = EXTRAS.get(key, (None, None))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised, result = True, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (key, start, end, stack[-1] if stack else -1)
                if extra is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    name = f"{key}.{stat}"
                    counts[name] = counts.get(name, 0) + extra(bound.arguments, result, raised)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "seuclid" and not mod_name.startswith("seuclid."):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._patches.append((module, attr, value))
        post_init, counts = self._post_init, self.counts

        def counted_post_init(obj):
            counts["exact.SurdValue.calls"] = counts.get("exact.SurdValue.calls", 0) + 1
            post_init(obj)

        self.api.exact.SurdValue.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for module, attr, value in self._patches:
            setattr(module, attr, value)
        self._patches.clear()
        self.api.exact.SurdValue.__post_init__ = self._post_init

    def take(self) -> tuple[list, dict[str, int]]:
        """Spans and counters recorded since the last call; clears both."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_stats(spans, counts) -> dict[str, float]:
    """calls, busy_s and self_s per traced function, plus the counters.

    busy_s sums the spans that have no ancestor of the same name; self_s
    is a span's duration minus the durations of its direct children.
    """
    out: dict[str, float] = {name: 0 for name in metric_names()}
    out.update({f"{key}.{stat}": 0 for key, (stat, _) in EXTRAS.items()})
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.busy_s"] += end - start
    for name, value in counts.items():
        out[name] = out.get(name, 0) + value
    return out


def combine(setup: dict[str, float], passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer numbers for one set-up plus one pass: counts from the
    first pass (the caller checks every pass repeats them) and times as
    the median over passes."""
    out = {}
    for name, value in setup.items():
        if name.endswith("_s"):
            out[name] = value + statistics.median(p[name] for p in passes)
        else:
            out[name] = value + passes[0][name]
    covers = out.pop("covering.covers_unit.covers", 0)
    calls = out["covering.covers_unit.calls"]
    out["covering.covers_unit.useful_ratio"] = covers / calls if calls else 0.0
    return out


def counts_of(stats: dict[str, float]) -> dict[str, float]:
    """The count metrics of a layer_stats result (everything but times)."""
    return {name: value for name, value in stats.items() if not name.endswith("_s")}
