#!/usr/bin/env python3
"""bindet benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload construct-batch --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): construct-batch,
cli-oneshot, spectrum.  Run from the root of a checkout; bindet is loaded
from ``src/``.

A run is a fixed number of whole rounds, about ``--seconds`` of op time at
the workload's nominal round cost (``rounds_for``), so the same seed and
``--seconds`` always give the same ops and the same expected failures.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
``setup_s`` is the median over SETUP_PROBES fresh interpreters that each
import, generate the inputs and warm the caches.  Every time is scaled
to a reference host speed measured by the probes in hostspeed.py; the raw
figures are printed too.  With ``--trace 1`` the
layer wrappers of spans.py are installed and the run prints the per-layer
metrics instead; the spans are written to
``.perfbench_out/<workload>.spans.jsonl``.

Every op's output is checked against refimpl.py.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 2 means the
benchmark could not run at all (e.g. no ``src/bindet`` in the checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter_ns

import spans
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5

# A run stops early, at a round boundary, once this much wall time has
# passed, so it ends within the time allowed to a run; at the nominal host
# speed and --seconds up to 30 it never does.
DEADLINE_S = 120
# Tail percentiles on offer; the tail is the highest with >= 10 samples beyond it.
TAIL_LADDER = (50, 75, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10
LAYER_PREFIXES = ("exact", "fibk", "construction", "oracle", "kernels", "cli", "bench")
SUFFIXES = {"calls_per_op": "calls", "self_ms_per_op": "self_ns",
            "families_per_op": "count", "cells_per_op": "count"}
ALIASES = {"cli.import_ms_per_op": "cli.import.self_ms_per_op"}


def percentile(sorted_vals, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    pos = p / 100 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the interpolation point of percentile p."""
    return n - 1 - int(p / 100 * (n - 1))


def tail_percentile(n: int) -> float:
    ok = [p for p in TAIL_LADDER if samples_beyond(n, p) >= TAIL_MIN_BEYOND]
    return ok[-1] if ok else TAIL_LADDER[0]


def layer_value(name: str, totals: dict, ops: int, busy_ns: int, nspans: int) -> float:
    """One per-layer metric from aggregated spans; a layer never called gives 0."""
    name = ALIASES.get(name, name)
    if name == "bench.traced_ops_per_s":
        return ops / (busy_ns / 1e9)
    if name == "bench.spans_per_op":
        return nspans / ops
    for suffix, field in SUFFIXES.items():
        if name.endswith("." + suffix):
            prefix = name[:-len(suffix) - 1]
            break
    else:
        raise ValueError(f"no rule computes per-layer metric {name!r}")
    if prefix in LAYER_PREFIXES:
        entries = [v for k, v in totals.items() if k.startswith(prefix + ".")]
    else:
        entries = [totals[prefix]] if prefix in totals else []
    total = sum(e[field] for e in entries)
    return total / 1e6 / ops if field == "self_ns" else total / ops


def machine_stamp() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bindet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its setup is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    start = perf_counter_ns()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-400:]}")
    ready = int(proc.stdout.split()[-1])
    return (ready - start) / 1e9


def rounds_for(wl, seconds: float) -> int:
    """Rounds in a run: about ``seconds`` of op time at the nominal round cost.

    The count is a whole number of the workload's periods, so a run's
    make-up, its op count and its expected failures depend on ``seconds``
    alone and never on how fast the host happens to be.
    """
    periods = round(seconds / (wl.PERIOD * wl.NOMINAL_ROUND_S))
    return wl.PERIOD * max(1, periods)


def run_loop(wl, rounds: int, tracer=None, deadline_s=None, probe=None):
    """Closed loop over ``rounds`` whole rounds.

    If ``deadline_s`` of wall time pass first, the loop stops at the next
    round boundary, so a very slow host still ends the run in time.  A
    ``probe`` (see hostspeed.py) times the host after every ``probe.EVERY``
    ops, outside their timing.
    """
    probes: list[int] = []
    latencies: list[int] = []
    labels: list[str] = []
    outcomes = []
    round_busy: list[int] = []
    digest = hashlib.sha256()
    source = wl.rounds()
    start = perf_counter_ns()
    for _ in range(rounds):
        if deadline_s is not None and perf_counter_ns() - start > deadline_s * 1e9:
            break
        busy = 0
        for op in next(source):
            op.prepare()
            if tracer is not None:
                tracer.op_id = len(latencies)
                root = tracer.open("bench.op")
            t0 = perf_counter_ns()
            try:
                result = op.run()
            except Exception as exc:  # a crashing op is a failed op, not a crashed run
                result = exc
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.close(root)
                tracer.op_id = None
                if hasattr(op, "adopt_spans") and not isinstance(result, Exception):
                    op.adopt_spans(result, tracer, root)
            try:
                if isinstance(result, Exception):
                    raise result
                outcome = op.check(result)
            except Exception as exc:  # a crash or an unreadable result fails the op
                outcome = Outcome(False, False, f"raised {type(exc).__name__}",
                                  f"{type(exc).__name__}: {exc}")
            latencies.append(t1 - t0)
            labels.append(op.label)
            outcomes.append(outcome)
            busy += t1 - t0
            digest.update(outcome.digest.encode())
            # Free the result here: dropping a large one inside the next
            # op's timed call would bill its deallocation to that op.
            del result
            if probe is not None and len(latencies) % probe.EVERY == 0:
                probes.append(probe())
        round_busy.append(busy)
    wall = perf_counter_ns() - start
    return latencies, labels, outcomes, round_busy, probes, wall, digest.hexdigest()


def end_to_end(latencies, round_busy, setup_times, peak_rss_kib: int,
               scale: float) -> tuple[dict, dict]:
    """End-to-end metrics of one run, with every time multiplied by ``scale``.

    ``scale`` is the host probe's reference time over its median in the
    run (hostspeed.py), so a run made while the shared host is slow
    reads like one made while it is fast; the raw figures are printed
    beside the scaled ones.
    ``ops_per_s`` is the closed-loop rate of the median round: every round
    holds the same ops, and a median over rounds is not moved by a few
    rounds that met a busy host.
    """
    ms = sorted(x / 1e6 for x in latencies)
    p_tail = tail_percentile(len(ms))
    ops_per_round = len(ms) / len(round_busy)
    raw = {
        "ops_per_s": ops_per_round / (statistics.median(round_busy) / 1e9),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": percentile(ms, p_tail),
        "setup_s": statistics.median(setup_times),
    }
    values = {name: v / scale if name == "ops_per_s" else v * scale for name, v in raw.items()}
    values["peak_rss_mib"] = peak_rss_kib / 1024
    notes = {name: f"raw {v:.6g}" for name, v in raw.items()}
    notes["latency_tail_ms"] += (f"; p{p_tail:g}, {samples_beyond(len(ms), p_tail)} samples "
                                 f"beyond, {len(ms)} ops")
    notes["setup_s"] += "; median of " + ", ".join(f"{t:.3f}" for t in setup_times)
    notes["ops_per_s"] += f"; median of {len(round_busy)} rounds of {ops_per_round:g} ops"
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bindet" / "__init__.py").is_file():
        print(f"error: no bindet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    work_dir = OUT_DIR / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            wl = cls(args.seed, work_dir)
            wl.generate()
            wl.warm()
            print(f"ready {perf_counter_ns()}")
            return 0
        return measure(args, cls, spec, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, cls, spec, work_dir) -> int:
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    tracer = spans.Tracer() if args.trace else None
    wl = cls(args.seed, work_dir, tracer)
    wl.generate()
    wl.warm()
    uninstall = spans.install(tracer) if tracer is not None else None
    try:
        latencies, labels, outcomes, round_busy, probes, wall, digest = run_loop(
            wl, rounds_for(wl, args.seconds), tracer,
            deadline_s=DEADLINE_S,
            probe=None if tracer is not None else wl.PROBE())
    finally:
        if uninstall is not None:
            uninstall()

    ops = len(latencies)
    busy = sum(round_busy)
    failed = sum(not o.ok for o in outcomes)
    correct = all(o.value_ok for o in outcomes)
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine_stamp().items()))
    print(f"# outputs digest={digest} correct={correct}")
    by_label: dict[str, list] = {}
    for lat, label, outcome in zip(latencies, labels, outcomes):
        by_label.setdefault(label, []).append((lat / 1e6, outcome))
    for label in sorted(by_label):
        rows = by_label[label]
        bad = [o for _, o in rows if not o.ok]
        line = (f"# op {label}: {len(rows)} ops, median "
                f"{statistics.median(t for t, _ in rows):.2f} ms, {len(bad)} failed")
        print(line + (f" ({bad[0].detail})" if bad else ""))
    if tracer is None:
        print(f"# host probe {wl.PROBE.__name__}: median {statistics.median(probes) / 1e6:.4f} "
              f"ms over {len(probes)} probes, reference {wl.PROBE.REF_NS / 1e6:g} ms")
    print(f"fail_ratio {failed / ops:.6f} ratio ({failed} of {ops} ops failed or wrong)")

    metrics, notes = {}, {}
    if args.trace:
        totals = spans.aggregate(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}.spans.jsonl")
        for name in sorted(totals, key=lambda k: -totals[k]["self_ns"]):
            t = totals[name]
            print(f"# span {name}: {t['calls'] / ops:.3f} calls/op, "
                  f"{t['self_ns'] / 1e6 / ops:.4f} self ms/op"
                  + (f", {t['count'] / ops:.1f} counted/op" if t["count"] else ""))
        self_sum = sum(t["self_ns"] for t in totals.values())
        print(f"# accounting per op: span self times sum to {self_sum / 1e6 / ops:.4f} ms, "
              f"traced op time {busy / 1e6 / ops:.4f} ms; loop wall {wall / 1e6 / ops:.4f} ms "
              f"includes {(wall - busy) / 1e6 / ops:.4f} ms of untimed checks and preparation")
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_value(m["name"], totals, ops, busy,
                                                       len(tracer.spans)),
                                  "unit": m["unit"]}
    else:
        # Read the peak before the setup probes run: they are child processes
        # too.  For cli-oneshot the peak is that of the largest bindet process.
        who = resource.RUSAGE_SELF if cls.in_process else resource.RUSAGE_CHILDREN
        peak = resource.getrusage(who).ru_maxrss
        setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        scale = wl.PROBE.REF_NS / statistics.median(probes)
        values, notes = end_to_end(latencies, round_busy, setup_times, peak, scale)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    print(json.dumps({"correct": correct, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
