"""Run one benchmark workload, or compare two sets of results.

Measure (the last stdout line is the result object)::

    python3 perfbench/run.py --workload sim-lucid --seed 7 --seconds 20 \\
        --trace 0 [--out results.jsonl]

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with
tracing off.  ``--trace 1`` runs one untraced pass and two traced passes,
reports the per-layer metrics of the second and fails the run unless
every count repeats exactly between the two.

Compare two result files written with ``--out``::

    python3 perfbench/run.py --compare base.jsonl head.jsonl

Record oracle fingerprints for seeds (after a deliberate change of
behaviour only)::

    python3 perfbench/run.py --workload pass-2048 --record-oracle 0-40

Run from the root of a checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ORACLE_PATH = os.path.join(HERE, "oracle.json")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchError(f"no program source at {src}/repro")
    sys.path.insert(0, src)
    # The closed-loop phase logs one warning per refused submission.
    logging.getLogger("repro").setLevel(logging.ERROR)


def load_oracle() -> Dict[str, Dict[str, str]]:
    with open(ORACLE_PATH) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Checking outputs
# ----------------------------------------------------------------------
def check(workload, seed: int, samples: Sequence[Any]) -> Optional[str]:
    """Why the outputs of ``samples`` are wrong, or ``None``."""
    for sample in samples:
        if sample.mismatch is not None:
            return sample.mismatch
    prints = {sample.fingerprint for sample in samples}
    if len(prints) != 1:
        return "equal inputs gave different outputs"
    if workload.golden:
        expected = load_oracle().get(workload.name, {}).get(str(seed))
        if expected is None:
            print(f"note: no committed oracle for {workload.name} seed "
                  f"{seed}; checked invariants and repeatability only",
                  file=sys.stderr)
        elif expected not in prints:
            return (f"outputs differ from the committed oracle for seed "
                    f"{seed}")
    return None


def operations(samples: Sequence[Any], wrong: Optional[str]) -> tuple:
    attempted = sum(s.attempted for s in samples)
    if wrong is not None:
        return attempted, attempted
    return attempted, sum(s.failed for s in samples)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_untraced(workload, seed: int, seconds: float,
                 scratch: str) -> tuple:
    samples = []
    for _ in range(workload.samples(seconds)):
        samples.append(workload.sample(seed=seed, seconds=seconds,
                                       scratch=scratch))
        if samples[-1].mismatch is not None:
            break
    wrong = check(workload, seed, samples)
    if wrong is not None:
        return {}, samples, wrong
    metrics = workload.metrics(samples)
    metrics["setup_s"] = statistics.median(
        v for s in samples for v in s.setup_s)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, samples, wrong


def run_traced(workload, seed: int, seconds: float, scratch: str) -> tuple:
    from tracing import LayerTrace, exact_counts

    base = workload.sample(seed=seed, seconds=seconds, scratch=scratch)
    if base.mismatch is not None:
        return {}, [base], base.mismatch
    traced = []
    for _ in range(2):
        with LayerTrace() as trace:
            sample = workload.sample(seed=seed, seconds=seconds,
                                     scratch=scratch, plan=base.plan)
        sample.layers = {**trace.metrics(), **sample.bench_layers}
        traced.append(sample)
        if sample.mismatch is not None:
            break
    samples = [base] + traced
    wrong = check(workload, seed, samples)
    if wrong is not None:
        return {}, samples, wrong
    first, second = (exact_counts(s.layers) for s in traced)
    if first != second:
        moved = sorted(k for k in first if first[k] != second[k])
        wrong = f"counts differ between two traced passes: {moved}"
    # What the benchmark measures itself comes from the untraced pass:
    # a traced pass only replays the untraced pass's call sequence.
    metrics = {**traced[-1].layers, **base.bench_layers}
    traced_busy = statistics.mean(s.busy_s for s in traced)
    metrics["bench.trace_overhead"] = traced_busy / base.busy_s - 1.0
    return metrics, samples, wrong


def result_object(spec_metrics: List[Dict[str, Any]],
                  metrics: Dict[str, float], attempted: int, failed: int,
                  correct: bool, complete: bool) -> Dict[str, Any]:
    units = {m["name"]: m["unit"] for m in spec_metrics}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    if complete and set(metrics) != set(units):
        raise BenchError("metrics missing from the run: "
                         f"{sorted(set(units) - set(metrics))}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def measure(args: argparse.Namespace) -> int:
    spec = load_spec()
    import_program()
    from scenarios import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"known: {sorted(WORKLOADS)}")
    scratch = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        if args.trace:
            metrics, samples, wrong = run_traced(workload, args.seed,
                                                 args.seconds, scratch)
        else:
            metrics, samples, wrong = run_untraced(workload, args.seed,
                                                   args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if wrong is not None:
        print(f"error: {args.workload} seed {args.seed}: {wrong}",
              file=sys.stderr)
    attempted, failed = operations(samples, wrong)
    result = result_object(spec["per_layer" if args.trace else "end_to_end"],
                           metrics, attempted, failed, wrong is None,
                           complete=wrong is None)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": int(args.trace),
                "samples": [{"setup_s": s.setup_s, "busy_s": s.busy_s,
                             **s.values} for s in samples],
                "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def record_oracle(args: argparse.Namespace) -> int:
    import_program()
    from scenarios import WORKLOADS

    workload = WORKLOADS[args.workload]
    if not workload.golden:
        raise BenchError(f"{workload.name} checks itself; it has no "
                         "committed fingerprints")
    low, _, high = args.record_oracle.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    table = load_oracle() if os.path.exists(ORACLE_PATH) else {}
    entries = table.setdefault(workload.name, {})
    scratch = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        for seed in seeds:
            sample = workload.sample(seed=seed, seconds=args.seconds,
                                     scratch=scratch)
            if sample.mismatch is not None:
                raise BenchError(f"seed {seed}: {sample.mismatch}")
            entries[str(seed)] = sample.fingerprint
            print(f"{workload.name} seed {seed}: {sample.fingerprint}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    table[workload.name] = dict(sorted(entries.items(),
                                       key=lambda kv: int(kv[0])))
    with open(ORACLE_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------
def _load_results(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _values(records: Sequence[Dict[str, Any]], workload: str, trace: int,
            metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def compare(base_path: str, head_path: str) -> int:
    from tracing import quartiles

    spec = load_spec()
    base, head = _load_results(base_path), _load_results(head_path)
    workloads = [w["name"] for w in spec["workloads"]]
    lines = [f"{'workload':<13} {'metric':<18} {'base median [q1, q3]':>32} "
             f"{'head median [q1, q3]':>32} {'change':>7} {'bound':>5}  "
             "verdict"]
    for name in workloads:
        for metric in spec["end_to_end"]:
            b = _values(base, name, 0, metric["name"])
            h = _values(head, name, 0, metric["name"])
            if not b or not h:
                continue
            bq, hq = quartiles(b), quartiles(h)
            change = hq[1] / bq[1] - 1.0
            worse = change if metric["better"] == "lower" else -change
            spread = (bq[2] - bq[0]) / bq[1]
            if worse > metric["bound"]:
                verdict = "WORSE"
            elif spread > metric["bound"]:
                verdict = f"unresolved: base spread {spread:.0%}"
            else:
                verdict = "ok"
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (bq, hq)]
            lines.append(f"{name:<13} {metric['name']:<18} {cells[0]:>32} "
                         f"{cells[1]:>32} {change:>+7.1%} "
                         f"{metric['bound']:>5.0%}  {verdict} "
                         f"(n={len(b)}/{len(h)})")
    lines.append("")
    lines.append("per-layer (traced runs), medians; layers at 0 on both "
                 "sides omitted")
    for name in workloads:
        for metric in spec["per_layer"]:
            b = _values(base, name, 1, metric["name"])
            h = _values(head, name, 1, metric["name"])
            if not b or not h:
                continue
            bm, hm = statistics.median(b), statistics.median(h)
            if bm == 0 and hm == 0:
                continue
            change = f"{hm / bm - 1.0:+.1%}" if bm else "new"
            lines.append(f"{name:<13} {metric['name']:<30} "
                         f"{bm:>14.6g} {hm:>14.6g} {change:>9} "
                         f"{metric['unit']}")
    print("\n".join(lines))
    return 0


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--record-oracle", metavar="SEEDS",
                        help="seed or inclusive range, e.g. 1-40")
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.record_oracle:
            return record_oracle(args)
        return measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
