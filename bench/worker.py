"""One benchmark process: set up a workload, then time passes over it.

Started by run.py, never by hand.  Protocol on stdout: a line ``READY``
once the inputs are built (run.py times set-up from process start to this
line), then, in ``--mode run``, one JSON line with the result.

The run is a closed loop with one caller: items run one after another in
this process, each starting when the previous one returns.  Whole passes
over the items repeat while another one still fits in ``--seconds``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from tracer import Tracer, combine, counts_of, layer_stats, metric_names, unit_of
from workloads import EXPECTED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def load_api() -> types.SimpleNamespace:
    """Import seuclid from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "seuclid" / "__init__.py").is_file():
        raise SystemExit(f"error: no seuclid sources at {src}")
    sys.path.insert(0, str(src))
    import seuclid
    from seuclid import certs, cli, covering, disks, exact, field, witness

    if Path(seuclid.__file__).resolve().parent != (src / "seuclid").resolve():
        raise SystemExit(f"error: imported seuclid from {seuclid.__file__}, not {src}")
    return types.SimpleNamespace(
        exact=exact, field=field, covering=covering, witness=witness,
        disks=disks, certs=certs, cli=cli,
    )


def run_pass(items) -> tuple[float, list[float], list]:
    """Call every item once; returns (wall seconds, per-item seconds, results)."""
    latencies, results = [], []
    gc.collect()
    start = perf_counter()
    for item in items:
        t = perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # a raising item is a failed item, not a crash
            result = exc
        latencies.append(perf_counter() - t)
        results.append(result)
    return perf_counter() - start, latencies, results


def _passes(item, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return item.check(result) is True
    except Exception:
        return False


def _round_trips(api, cert) -> bool:
    """A produced certificate survives canonical JSON and re-verifies."""
    try:
        obj = json.loads(api.certs.canonical_json(api.certs.certificate_to_obj(cert)))
        return api.certs.verify_certificate_obj(obj) is True
    except Exception:
        return False


def failed_labels(api, items, results, round_trip: bool) -> list[str]:
    """Labels of the items whose answer is wrong (outside any timed region)."""
    bad = []
    for item, result in zip(items, results):
        ok = _passes(item, result)
        if ok and round_trip and item.cert is not None:
            cert = item.cert(result)
            ok = cert is None or _round_trips(api, cert)
        if not ok:
            bad.append(item.label)
    return bad


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tally:
    """Attempted and failed items over a run; failures outside the known
    verifier holes make the run incorrect."""

    def __init__(self, known_holes):
        self.known_holes = set(known_holes)
        self.attempted = 0
        self.failed = 0
        self.unexpected: set[str] = set()

    def add(self, n_items: int, bad: list[str]) -> None:
        self.attempted += n_items
        self.failed += len(bad)
        self.unexpected.update(label for label in bad if label not in self.known_holes)

    def result(self, metrics: dict, info: dict) -> dict:
        if self.unexpected:
            print(f"wrong answers: {sorted(self.unexpected)}", file=sys.stderr)
        return {
            "correct": not self.unexpected,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "info": info,
        }


def measure(api, items, seconds: float, tally: Tally) -> tuple[dict, dict]:
    walls, latencies = [], []
    start = perf_counter()
    # whole passes only: stop before a pass that would end past `seconds`
    while not walls or perf_counter() - start + walls[-1] <= seconds:
        wall, lat, results = run_pass(items)
        walls.append(wall)
        latencies += lat
        tally.add(len(items), failed_labels(api, items, results, round_trip=len(walls) == 1))
    latencies.sort()
    n = len(latencies)
    if n - math.ceil(0.95 * n) < 10:
        raise SystemExit(f"error: {n} samples leave fewer than 10 above p95")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "item_p50_ms": {"value": percentile(latencies, 0.50) * 1e3, "unit": "ms"},
        "item_p95_ms": {"value": percentile(latencies, 0.95) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    return metrics, {"walls": walls, "samples": n}


def measure_traced(api, workload, seed, items, seconds, tally, workdir) -> tuple[dict, dict]:
    """Traced set-up, then untraced and traced passes in turn, so the
    overhead ratio compares passes run under the same machine load.
    Per-layer numbers are one set-up plus one pass; the spans go to
    .bench_out/."""
    tracer = Tracer(api)
    tracer.install()
    try:
        traced_items = WORKLOADS[workload](api, random.Random(seed), workdir / "traced")
    finally:
        tracer.uninstall()
    setup_spans, setup_counts = tracer.take()
    phases = [{"phase": "setup", "spans": setup_spans}]
    passes, walls, untraced_walls = [], [], []
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start + walls[-1] + untraced_walls[-1] <= seconds:
        wall, _, results = run_pass(items)
        tally.add(len(items), failed_labels(api, items, results, round_trip=not untraced_walls))
        untraced_walls.append(wall)
        tracer.install()
        try:
            wall, _, results = run_pass(traced_items)
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        tally.add(len(traced_items), failed_labels(api, traced_items, results, round_trip=False))
        walls.append(wall)
        passes.append(layer_stats(spans, counts))
        phases.append({"phase": f"pass{len(passes)}", "spans": spans})
    if any(counts_of(p) != counts_of(passes[0]) for p in passes[1:]):
        print("error: traced passes disagree on counts", file=sys.stderr)
        tally.unexpected.add("trace-count-repeat")

    # counter self-test on the acceptance inputs
    for case in EXPECTED["interval_counts"]:
        tracer.install()
        try:
            api.covering.intervals(api.field.make_field(case["d"]), api.exact.SSet.from_iterable(case["s"]), case["k_max"])
        finally:
            tracer.uninstall()
        _, counts = tracer.take()
        if counts.get("covering.intervals.built") != case["built"]:
            print(f"error: intervals.built self-test failed for {case}", file=sys.stderr)
            tally.unexpected.add("trace-self-test")

    stats = combine(layer_stats(setup_spans, setup_counts), passes)
    stats["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(untraced_walls)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent"], "phases": phases})
    )
    metrics = {name: {"value": stats[name], "unit": unit_of(name)} for name in metric_names()}
    return metrics, {"walls": walls}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    args = parser.parse_args()

    api = load_api()
    workdir = OUT / f"{args.workload}-{args.mode}-{os.getpid()}"
    try:
        items = WORKLOADS[args.workload](api, random.Random(args.seed), workdir / "plain")
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        tally = Tally(EXPECTED["known_holes"])
        if args.trace:
            metrics, info = measure_traced(api, args.workload, args.seed, items, args.seconds, tally, workdir)
        else:
            metrics, info = measure(api, items, args.seconds, tally)
        print(json.dumps(tally.result(metrics, info)), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
