"""Run one workload: timed set-up, warm-up, whole rounds of operations, checks.

A workload supplies its inputs, a fixed list of operations and the checks on
their outputs; this module times them and turns the outcome into metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import tracing


@dataclass
class Op:
    """One operation of a workload's fixed list.

    `run` is timed and returns the raw result; `collect` turns that result
    into an output record outside the timed region. Every record holds "ok":
    whether the operation returned as documented.
    """

    label: str
    run: Callable[[], Any]
    collect: Callable[[Any], dict]


def fingerprint(record: dict) -> str:
    """Digest of an output record; arrays and bytes count bit for bit.

    The error text is left out: Python prints a given warning only once per
    process, so a failing call's stderr differs between rounds.
    """
    h = hashlib.sha256()
    for key in sorted(record.keys() - {"error"}):
        value = record[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(value.tobytes())
        elif isinstance(value, bytes):
            h.update(value)
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def one_round(ops: list[Op]) -> tuple[list[float], list[dict]]:
    """Run every operation once; return per-operation wall times and records."""
    times, records = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # an operation that raises has failed
            times.append(time.perf_counter() - t0)
            records.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(time.perf_counter() - t0)
        records.append(op.collect(raw))
    return times, records


def geometric_mean(values: list[float]) -> float:
    return float(np.exp(np.mean(np.log(values))))


def run_workload(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result object, detailed report).

    Untraced: set up `workload.setup_repeats` times, warm up with the first
    operation unless `workload.warm_up` is false, then run whole rounds until
    `seconds` have passed. Traced: one untraced round, then set-up and one
    round again with every layer wrapped; the two rounds must give
    bit-identical outputs.
    """
    setup_times, digests = [], set()
    for _ in range(1 if trace else workload.setup_repeats):
        state, spent = workload.setup()
        setup_times.append(spent)
        digests.add(workload.setup_fingerprint(state))

    ops = workload.operations(state)
    if workload.warm_up:
        ops[0].run()

    rounds = []
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        rounds.append(one_round(ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        with tracer.patched():
            traced_state, _ = workload.setup()
            rounds.append(one_round(workload.operations(traced_state)))
        digests.add(workload.setup_fingerprint(traced_state))

    problems = [] if len(digests) == 1 else ["set-up gave different inputs on a repeat"]
    first = rounds[0][1]
    failures = workload.check(state, first)
    unsteady = set()
    for r, (_, records) in enumerate(rounds[1:], start=1):
        for i, (a, b) in enumerate(zip(first, records)):
            if fingerprint(a) != fingerprint(b):
                failures.setdefault(i, []).append(f"output of round {r} differs from round 0")
                unsteady.add(i)
    # A check failure on an operation that returned as documented is a wrong
    # output; an output that changes between rounds is wrong either way.
    problems += [
        f"{ops[i].label}: {msg}"
        for i, msgs in sorted(failures.items())
        if first[i]["ok"] or i in unsteady
        for msg in msgs
    ]
    failed = sum(
        1
        for _, records in rounds
        for i, rec in enumerate(records)
        if not rec["ok"] or i in failures
    )

    pass_times = [sum(times) for times, _ in rounds]
    if trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = pass_times[1] - pass_times[0]
    else:
        errors = [
            rec["rrmse"]
            for i, rec in enumerate(first)
            if rec["ok"] and "rrmse" in rec and i not in failures
        ]
        if not errors:
            problems.append("no reconstruction succeeded")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "peak_rss_mb": peak_rss_mb,
            "rrmse": geometric_mean(errors) if errors else -1.0,  # correct is false then
        }
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload.name,
        "setup_s": setup_times,
        "pass_s": pass_times,
        "operations": [
            {
                "label": op.label,
                "seconds": [times[i] for times, _ in rounds],
                "ok": first[i]["ok"],
                "error": first[i].get("error"),
                "check_failures": failures.get(i, []),
            }
            for i, op in enumerate(ops)
        ],
        "problems": problems,
        "spans": tracer.span_table() if tracer else None,
    }
    return result, report
