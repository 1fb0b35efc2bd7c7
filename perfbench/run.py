#!/usr/bin/env python3
"""Benchmark of deltamat, measured from outside through its public functions.

Run from the root of a checkout that holds ``src/deltamat``:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

A run sets up (imports deltamat, builds the seeded inputs, makes one warm-up
call of each op kind), then repeats whole rounds of the workload's fixed op
list until ``--seconds`` have passed, checking every op's outputs outside the
timed region.  Times are reported at a fixed machine speed, measured by a
reference task run between the calls (see ``REF_S``).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from instances import ReferenceTask
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
# Times are reported at the machine speed at which the reference task takes
# REF_S seconds: each call's time is multiplied by REF_S over the mean of the
# reference times measured just before and just after it.  See ReferenceTask
# and README.md.
REF_S = 0.010
SETUP_REFERENCE_SAMPLES = 3  # before set-up, and again after it

# Spans whose self time per round is a per-layer metric, named <span>_s.
LAYER_SPANS = (
    "deltamatroid.rank_table",
    "deltamatroid.h_table",
    "invariants.upoly_direct",
    "invariants.upoly_recursive",
    "invariants.interlace",
    "invariants.independence_fvector",
    "deltamatroid.validate_exchange",
    "deltamatroid.validate_polytope.accept",
    "deltamatroid.validate_polytope.reject",
    "cli.from-gf2",
    "cli.validate.exchange",
    "cli.rank-table",
    "cli.h-table",
    "cli.axioms-g",
    "cli.axioms-h.larson",
    "cli.axioms-h.bouchet",
    "cli.axioms-h.allys",
    "cli.upoly.compare",
    "cli.interlace",
    "cli.fvector",
    "cli.activity.all",
    "cli.complex",
    "cli.logconc",
    "cli.lorentzian.indep",
    "cli.lorentzian.efls",
)


def source_dir() -> Path:
    src = Path.cwd() / "src"
    if not (src / "deltamat" / "__init__.py").is_file():
        sys.exit(f"error: no deltamat sources under {src}; run from the root of a checkout")
    return src


def setup(src: Path, name: str, seed: int, workdir: Path, tracer: Tracer):
    """Import deltamat, build the inputs and warm up.

    Returns the workload, the seconds taken and the speed factor of the
    reference task measured just before and just after.
    """
    reference = ReferenceTask()
    ref_times = [reference.time() for _ in range(SETUP_REFERENCE_SAMPLES)]
    t0 = time.perf_counter()
    with tracer.span("setup"):
        sys.path.insert(0, str(src))
        import deltamat

        if Path(deltamat.__file__).resolve().parent != (src / "deltamat").resolve():
            sys.exit(f"error: imported deltamat from {deltamat.__file__}, not from {src}")
        workload = WORKLOADS[name](seed, workdir, tracer)
        try:
            workload.warmup(tracer)
        except Exception:  # the same op fails again in the rounds, where it is counted
            pass
    seconds = time.perf_counter() - t0
    ref_times += [reference.time() for _ in range(SETUP_REFERENCE_SAMPLES)]
    return workload, seconds, REF_S / statistics.fmean(ref_times)


def measure(workload, seconds: float, tracer: Tracer, traced: bool) -> dict:
    """Whole rounds of the op list; with ``traced`` every other round records spans.

    An op's time is the sum of the times of its calls into deltamat.  The
    reference task runs, untraced, before each op and after each call, so
    every call sits between two reference times.
    """
    reference = ReferenceTask()
    # errors: ops that raised; problems: outputs that failed a check
    result = {"attempted": 0, "failed": 0, "errors": [], "problems": [], "rounds": []}
    min_rounds = MIN_ROUNDS + 1 if traced else MIN_ROUNDS  # two traced, two plain
    start = time.perf_counter()
    r = 0
    while True:
        traced_round = tracer.enabled = traced and r % 2 == 0
        first_span = len(tracer.spans)
        op_times = []
        scaled_times = []
        ref_times = []
        with tracer.span("round"):
            for k, item in enumerate(workload.items):
                tracer.enabled = False
                refs = [reference.time()]
                tracer.after_call = lambda refs=refs: refs.append(reference.time())
                tracer.calls = []
                tracer.enabled = traced_round
                tracer.op_id = r * len(workload.items) + k
                result["attempted"] += 1
                try:
                    with tracer.span("op"):
                        out = workload.op(item, tracer)
                except Exception as exc:  # a failed op is counted, the run goes on
                    result["failed"] += 1
                    result["errors"].append(f"op raised {type(exc).__name__}: {exc}")
                    continue
                calls = tracer.calls
                op_times.append(sum(calls))
                scaled_times.append(sum(t * 2 * REF_S / (a + b) for t, a, b in zip(calls, refs, refs[1:])))
                ref_times.append(refs)
                tracer.enabled = False
                try:
                    result["problems"] += workload.check(item, out)
                except Exception as exc:
                    result["problems"].append(f"check raised {type(exc).__name__}: {exc}")
                tracer.enabled = traced_round
        tracer.enabled = False
        tracer.after_call = None
        result["rounds"].append(
            {
                "traced": traced_round,
                "ops": op_times,
                "scaled": scaled_times,
                "reference": ref_times,
                "spans": (first_span, len(tracer.spans)),
            }
        )
        if r == 0:
            result["problems"] += workload.after_first_round()
        r += 1
        elapsed = time.perf_counter() - start
        if r >= min_rounds and elapsed + elapsed / r / 2 > seconds:
            return result


def ops_per_s(rounds: list[dict]) -> float:
    return sum(len(rd["scaled"]) for rd in rounds) / sum(sum(rd["scaled"]) for rd in rounds)


def setup_in_fresh_interpreters(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up in a fresh interpreter failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    rounds = result["rounds"]
    return {
        "ops_per_s": {"value": ops_per_s(rounds), "unit": "ops/s"},
        "op_s.p50": {
            "value": statistics.median(t for rd in rounds for t in rd["scaled"]),
            "unit": "s",
        },
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer(workload, result: dict, tracer: Tracer, setup_spans: int, setup_factor: float) -> dict:
    """Self times per round at the reference speed, like the end-to-end metrics."""
    traced = [rd for rd in result["rounds"] if rd["traced"]]
    plain = [rd for rd in result["rounds"] if not rd["traced"]]
    # a round's self times are scaled by the factor of the round's op times
    per_round = [(tracer.self_times(*rd["spans"]), sum(rd["scaled"]) / sum(rd["ops"])) for rd in traced]
    seconds = {
        name: statistics.median(st.get(name, 0.0) * factor for st, factor in per_round) for name in LAYER_SPANS
    }
    cold = tracer.self_times(0, setup_spans).get("ground.enumerate_admissible", 0.0)
    metrics = {"ground.enumerate_admissible_s": {"value": cold * setup_factor, "unit": "s"}}
    metrics.update({name + "_s": {"value": seconds[name], "unit": "s"} for name in LAYER_SPANS})
    counts = workload.round_counts()
    g_terms = counts.get("deltamatroid.g_terms", 0)
    pairs = counts.get("lp.candidate_pairs", 0)
    rank_s = seconds["deltamatroid.rank_table"]
    accept_s = seconds["deltamatroid.validate_polytope.accept"]
    metrics["deltamatroid.g_terms"] = {"value": g_terms, "unit": "count"}
    metrics["deltamatroid.g_terms_per_s"] = {"value": g_terms / rank_s if rank_s else 0.0, "unit": "1/s"}
    metrics["lp.candidate_pairs"] = {"value": pairs, "unit": "count"}
    metrics["lp.s_per_candidate_pair"] = {"value": accept_s / pairs if pairs else 0.0, "unit": "s"}
    metrics["trace.overhead_ops_per_s"] = {"value": ops_per_s(traced) - ops_per_s(plain), "unit": "ops/s"}
    reference = [t for rd in result["rounds"] for refs in rd["reference"] for t in refs]
    metrics["machine.reference_s"] = {"value": statistics.fmean(reference), "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    src = source_dir()
    out_dir = Path.cwd() / "perfbench" / "out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    try:
        workload, setup_s, setup_factor = setup(src, args.workload, args.seed, workdir, tracer)
        setup_s *= setup_factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_spans = len(tracer.spans)
        result = measure(workload, args.seconds, tracer, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(workload, result, tracer, setup_spans, setup_factor)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(result, [setup_s] + setup_in_fresh_interpreters(args.workload, args.seed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": [item[0].record() for item in workload.items],
        "rounds": len(result["rounds"]),
        "op_s": [rd["ops"] for rd in result["rounds"]],
        "op_scaled_s": [rd["scaled"] for rd in result["rounds"]],
        "reference_s": [rd["reference"] for rd in result["rounds"]],
        "errors": result["errors"],
        "problems": result["problems"],
        "metrics": metrics,
    }
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for line in (result["errors"] + result["problems"])[:20]:
        print(line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
