"""seuclid benchmark: produce, classify and verify certificates.

Run from anywhere inside a checkout (it finds ``src/`` next to ``bench/``):

    python3 bench/run.py --workload theorem2_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads: theorem2_sweep, paper_survey and verify_certs (see
bench/workloads.py and bench/NOTES.md).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that wraps seuclid's
public functions and reports the per-layer metrics.  ``all`` runs every
workload in turn and prints one row per workload (one column with
``--trace 1``).

Every process this script starts runs alone, one after another: set-up
is timed in four set-up-only workers plus the measuring worker, each from
process start to inputs ready, and reported as the median.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("theorem2_sweep", "paper_survey", "verify_certs")
SETUP_SAMPLES = 5
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _start(args, workload: str, mode: str) -> tuple[subprocess.Popen, float]:
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    started = time.perf_counter()
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0), started


def _wait_ready(proc: subprocess.Popen, deadline: float) -> bytes:
    """Block until the worker prints READY; returns what followed it."""
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            raise BenchError("worker timed out during set-up")
        chunk = os.read(proc.stdout.fileno(), 65536)
        if not chunk:
            raise BenchError(f"worker exited during set-up (code {proc.wait()})")
        buf += chunk
    line, rest = buf.split(b"\n", 1)
    if line != b"READY":
        raise BenchError(f"unexpected worker output {line[:80]!r}")
    return rest


def _finish(proc: subprocess.Popen, deadline: float) -> bytes:
    try:
        out, _ = proc.communicate(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with code {proc.returncode}")
    return out


def run_workload(args, workload: str, deadline: float) -> tuple[dict, dict]:
    """One workload: returns (result line, extra info for the printout)."""
    setups = []
    for mode in ["setup"] * (0 if args.trace else SETUP_SAMPLES - 1) + ["run"]:
        proc, started = _start(args, workload, mode)
        try:
            rest = _wait_ready(proc, deadline)
            setups.append(time.perf_counter() - started)
            out = rest + _finish(proc, deadline)
        finally:
            _stop(proc)
    result = json.loads(out.decode().strip().splitlines()[-1])
    info = result.pop("info")
    if not args.trace:
        info["setups"] = len(setups)
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **result["metrics"]}
    return result, info


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_workload(workload: str, result: dict, info: dict) -> None:
    print(f"{workload}: correct={result['correct']} fail_ratio={result['failed']}/{result['attempted']}"
          f" pass walls [s]: {' '.join(f'{w:.3f}' for w in info['walls'])}")
    notes = {}
    if "samples" in info:
        notes = {
            "setup_s": f"median of {info['setups']} set-ups",
            "wall_s": f"median of {len(info['walls'])} passes",
            "item_p50_ms": f"{info['samples']} samples",
            "item_p95_ms": f"{info['samples']} samples",
        }
    for name, metric in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {_fmt(metric['value']):>14s} {metric['unit']}{note}")


def print_table(results: dict[str, tuple[dict, dict]], trace: int) -> None:
    names = list(next(iter(results.values()))[0]["metrics"])
    units = {name: r["metrics"][name]["unit"] for r, _ in results.values() for name in names}
    if trace:
        print(f"{'metric':52s}" + "".join(f"{w:>16s}" for w in results))
        for name in names:
            print(f"{name + ' [' + units[name] + ']':52s}"
                  + "".join(f"{_fmt(r['metrics'][name]['value']):>16s}" for r, _ in results.values()))
        return
    columns = [f"{name} [{units[name]}]" for name in names] + ["fail_ratio", "samples"]
    print(f"{'workload':16s}" + "".join(f"{c:>20s}" for c in columns))
    for workload, (r, info) in results.items():
        cells = [_fmt(r["metrics"][name]["value"]) for name in names]
        cells += [f"{r['failed']}/{r['attempted']}", str(info["samples"])]
        print(f"{workload:16s}" + "".join(f"{c:>20s}" for c in cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "seuclid" / "__init__.py").is_file():
        print(f"error: no seuclid sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            results[workload] = run_workload(args, workload, deadline)
            print_workload(workload, *results[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(results, args.trace)
        print(json.dumps({w: r for w, (r, _) in results.items()}))
    else:
        print(json.dumps(results[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
