"""Benchmark: serve, build and evaluate workloads of slsrec.

    python3 bench/run.py --workload query-20k --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from --seed, runs the program on them in
one child process (bench/measure.py) for about --seconds of measured
work in whole rounds, checks every output against the generator's truth
and the oracles in bench/oracle.py, and prints each metric by name and
unit. The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}, with the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). The exit
code is 0 only when every check passed.

--small shrinks every input so that a run takes seconds; --inject
corrupts one output before the checks, or makes some ops raise, to show
that the checks catch it.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 175

WORKLOADS = {
    "query-20k": {
        "kind": "query",
        "full": {"functions": 20000, "setup_repeats": 3},
        "small": {"functions": 800, "setup_repeats": 3},
    },
    "extract-remote": {
        "kind": "extract",
        "full": {"n_full": 120, "n_new": 12, "n_trivial": 10, "n_benchmark": 6, "delay_s": 0.05},
        "small": {"n_full": 20, "n_new": 2, "n_trivial": 3, "n_benchmark": 2, "delay_s": 0.01},
    },
    "evaluate-110q": {
        "kind": "evaluate",
        "full": {"functions": 1000, "queries": 110, "exact_share": 0.4, "repetitions": 5},
        "small": {"functions": 150, "queries": 110, "exact_share": 0.4, "repetitions": 1},
    },
}
INJECTIONS = {"swap": "query-20k", "raise": "query-20k", "drop": "extract-remote",
              "miscount": "evaluate-110q"}
EVAL_KS = (1, 5, 10, 15, 20)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_plan(name: str, size: dict, seed: int, seconds: int, work: Path):
    kind = WORKLOADS[name]["kind"]
    if kind == "query":
        # enough distinct queries for 2 ms ops, so none repeats
        rounds = math.ceil(seconds * 500 / len(gen.QUERY_STRATA)) + 1
        plan, truth = gen.gen_query(work, seed, size["functions"], rounds)
        plan["setup_repeats"] = size["setup_repeats"]
    elif kind == "extract":
        plan, truth = gen.gen_extract(work, seed, size["n_full"], size["n_new"],
                                      size["n_trivial"], size["n_benchmark"])
        plan["units"] = {
            fid: {"intent": u["intent"], "sets": {k: sorted(v) for k, v in u["sets"].items()}}
            for fid, u in truth["units"].items()
        }
        plan["delay_s"] = size["delay_s"]
        plan["concurrency"] = len(os.sched_getaffinity(0))  # nproc
    else:
        plan, truth = gen.gen_evaluate(work, seed, size["functions"], size["queries"],
                                       size["exact_share"])
        plan["repetitions"] = size["repetitions"]
        plan["ops_per_round"] = 4 * size["queries"] * size["repetitions"]
    plan.update(kind=kind, seed=seed, seconds=seconds, workdir=str(work))
    return plan, truth


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the outputs are right
# ---------------------------------------------------------------------------

def check_query(plan, truth, outputs) -> list[str]:
    problems = []
    store, embedder = truth["store"], truth["embedder"]
    seen = set()
    for doc in outputs["traces"]:
        qid = doc["query_id"]
        if qid in seen:
            problems.append(f"{qid}: answered twice")
        seen.add(qid)
        if "error" in doc:
            problems.append(f"{qid}: {doc['error']}")
            continue
        query = truth["queries"][qid]
        alive, audit = store.prune(query["sets"])
        got_levels = [(lv["attribute"], lv["applied"], lv["full"], lv["pareto"], lv["retained"])
                      for lv in doc["levels"]]
        if got_levels != audit:
            problems.append(f"{qid}: levels {got_levels} != oracle {audit}")
        survivors = int(alive.sum())
        if doc["survivors"] != survivors or doc["similarity_evals"] != survivors:
            problems.append(f"{qid}: survivors {doc['survivors']} / evals "
                            f"{doc['similarity_evals']} != oracle {survivors}")
        want = store.rank(alive, embedder.unit(query["intent"]), 10)
        got = [(e["id"], e["score"]) for e in doc["ranking"]]
        if not oracle.same_ranking(got, want):
            problems.append(f"{qid}: ranking {got[:3]}... != oracle {want[:3]}...")
    return problems


def _read_store(path: str) -> dict:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                rows[row["id"]] = row
    return rows


def check_extract(plan, truth, outputs) -> list[str]:
    problems = []
    units = truth["units"]
    by_phase = {
        phase: {fid for fid, u in units.items() if u["phase"] <= phase} for phase in (1, 2)
    }
    new_units = by_phase[2] - by_phase[1]
    chats: dict[str, set] = {}
    for log_phase, kind, unit, _t in outputs["stub_log"]:
        if kind == "chat":
            chats.setdefault(log_phase, set()).add(unit)
    for record in outputs["phases"]:
        tag = f"round {record['round']} phase {record['phase']}"
        rejects = truth["rejects_full"] if record["phase"] == 1 else truth["rejects_all"]
        got = {r["id"]: r["rule"] for r in record["ingest"]["rejections"]}
        if got != rejects:
            problems.append(f"{tag}: rejected {sorted(got)} != planted {sorted(rejects)}")
        if record["exit"] or record["extract"]["failed"]:
            problems.append(f"{tag}: extract exited {record['exit']}: {record['extract']}")
        sent = chats.get(f"{record['round']}:{record['phase']}", set())
        wanted = by_phase[1] if record["phase"] == 1 else new_units
        if sent != wanted:
            problems.append(f"{tag}: chat requests for {len(sent)} units, "
                            f"{len(sent - wanted)} of them not new; expected {len(wanted)}")
        if record["phase"] == 2:
            problems += _check_store(record["store"], units, tag)
    return problems


def _check_store(path: str, units: dict, tag: str) -> list[str]:
    from stub import stub_vector  # stub.py loads the test suite's stub server

    problems = []
    rows = _read_store(path)
    if set(rows) != set(units):
        missing, extra = set(units) - set(rows), set(rows) - set(units)
        problems.append(f"{tag}: store misses {sorted(missing)[:5]} and has extra {sorted(extra)[:5]}")
    for fid in sorted(set(rows) & set(units)):
        row, unit = rows[fid], units[fid]
        if row["intent_text"] != unit["intent"]:
            problems.append(f"{tag}: {fid} intent {row['intent_text']!r}")
        for level in gen.LEVELS:
            if set(row[level]) != set(unit["sets"][level]):
                problems.append(f"{tag}: {fid} {level} {row[level]} != {sorted(unit['sets'][level])}")
        want = stub_vector(unit["intent"])
        want = want / float(np.linalg.norm(want))
        if not np.allclose(row["intent_vector"], want, rtol=0, atol=1e-12):
            problems.append(f"{tag}: {fid} vector is not the stub's, scaled to unit length")
    return problems


def check_extract_counts(truth: dict, result: dict) -> list[str]:
    """Traced extract-remote runs also check the counters against what
    the generator planted."""
    from stub import malformed_first

    layers = result["layers"]
    problems = []
    if layers["normalization.unmapped_terms"] != truth["unknown_terms"]:
        problems.append(f"unmapped terms per round {layers['normalization.unmapped_terms']} "
                        f"!= planted {truth['unknown_terms']}")
    if layers["corpus.rejected"] != len(truth["rejects_all"]):
        problems.append(f"rejected {layers['corpus.rejected']} != planted {len(truth['rejects_all'])}")
    planted = sum(malformed_first(truth["seed"], fid) for fid in truth["units"])
    extracts = len(truth["units"])
    want = (extracts + planted) / extracts
    if abs(layers["extraction.attempts_per_extract"] - want) > 1e-9:
        problems.append(f"attempts per extract {layers['extraction.attempts_per_extract']} "
                        f"!= planted {want}")
    return problems


def check_evaluate(plan, truth, outputs) -> list[str]:
    problems = []
    store, embedder, queries = truth["store"], truth["embedder"], truth["queries"]
    n = len(queries)
    ground = {qid: q["target"] for qid, q in queries.items()}
    oracle_rankings = {}
    with open(outputs["answers_path"], encoding="utf-8") as fh:
        answers = [json.loads(line) for line in fh]
    pos = 0
    for r, report in enumerate(outputs["reports"]):
        if report is None:
            problems.append(f"round {r}: evaluate failed")
            continue
        for method_doc in report["methods"]:
            method = method_doc["method"]
            for rep, rep_doc in enumerate(method_doc["per_repetition"]):
                block = answers[pos:pos + n]
                pos += n
                ranked = {qid: [e[0] for e in entries] for _m, qid, entries in block}
                if {m for m, _q, _e in block} != {method} or set(ranked) != set(queries):
                    problems.append(f"round {r} {method} rep {rep}: answers out of order")
                    continue
                recall, mrr = oracle.recall_mrr(ranked, ground, EVAL_KS)
                for k in EVAL_KS:
                    if rep_doc["recall"][str(k)] != float(recall[k]) or \
                            rep_doc["mrr"][str(k)] != float(mrr[k]):
                        problems.append(f"round {r} {method} rep {rep} k={k}: reported recall "
                                        f"{rep_doc['recall'][str(k)]} mrr {rep_doc['mrr'][str(k)]}, "
                                        f"recount {float(recall[k])} {float(mrr[k])}")
                for _m, qid, entries in block:
                    query = queries[qid]
                    if method in ("slsreuse", "llm-variant") and query["exact"] and \
                            (not entries or entries[0][0] != query["target"]):
                        problems.append(f"round {r} {method} {qid}: exact restatement "
                                        f"does not rank {query['target']} first")
                    if method == "slsreuse":
                        if qid not in oracle_rankings:
                            alive, _audit = store.prune(query["sets"])
                            oracle_rankings[qid] = store.rank(
                                alive, embedder.unit(query["intent"]), max(EVAL_KS))
                        if not oracle.same_ranking([tuple(e) for e in entries], oracle_rankings[qid]):
                            problems.append(f"round {r} slsreuse {qid}: ranking differs from oracle")
    if pos != len(answers):
        problems.append(f"{len(answers) - pos} answers not covered by any report")
    return problems


CHECKS = {"query": check_query, "extract": check_extract, "evaluate": check_evaluate}


def inject(kind: str, outputs: dict) -> None:
    """Corrupt one output the way a faulty program would."""
    if kind == "swap":
        doc = next(d for d in outputs["traces"] if len(d.get("ranking", ())) >= 2)
        doc["ranking"][0], doc["ranking"][1] = doc["ranking"][1], doc["ranking"][0]
    elif kind == "drop":
        path = Path(outputs["phases"][-1]["store"])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[1:]), encoding="utf-8")
    elif kind == "miscount":  # the program reports one hit too many
        rep_doc = outputs["reports"][0]["methods"][0]["per_repetition"][0]
        rep_doc["recall"]["10"] += 100 / 110


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _sets_key(sets: dict) -> tuple:
    return tuple(sets[level] for level in gen.LEVELS)


def repeated_sets(plan, truth, outputs) -> int:
    """Answered queries whose attribute sets, the input of pruning, an
    earlier query of the run (warm-up included) already asked for."""
    queries = truth["queries"]
    seen = {_sets_key(queries[qid]["sets"]) for qid, _text in plan["warmup"]}
    repeats = 0
    for doc in outputs["traces"]:
        key = _sets_key(queries[doc["query_id"]]["sets"])
        repeats += key in seen
        seen.add(key)
    return repeats


def stratum_lines(plan, outputs) -> list[str]:
    """Traced query-20k: mean recommend, prune and score-and-rank time and
    survivors per query stratum, from the span dump."""
    recommend, prune = {}, {}
    with open(plan["spans"], encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    for span in spans:
        op = span["op"]
        if not op or not op.startswith("q-"):
            continue
        ms = (span["end"] - span["start"]) * 1e3
        if span["name"] == "matching.recommend":
            recommend[op] = recommend.get(op, 0.0) + ms
        elif span["name"] == "matching.prune" and spans[span["parent"]]["name"] == "matching.recommend":
            prune[op] = prune.get(op, 0.0) + ms
    survivors = {doc["query_id"]: doc["survivors"] for doc in outputs["traces"] if "error" not in doc}
    lines = []
    for s, stratum in enumerate(gen.QUERY_STRATA):
        ops = [op for op in recommend if op.endswith(f"-{s}") and op in survivors]
        if not ops:
            continue
        rec = statistics.fmean(recommend[op] for op in ops)
        pru = statistics.fmean(prune.get(op, 0.0) for op in ops)
        surv = statistics.fmean(survivors[op] for op in ops)
        lines.append(f"  stratum {stratum!s:<12} recommend {rec:8.2f} ms = prune {pru:8.2f} "
                     f"+ score/rank {rec - pru:8.2f}; survivors {surv:9.1f}")
    return lines


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest ladder percentile with at least ten
    samples beyond it (nearest rank), and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def end_to_end(name: str, plan: dict, result: dict, rss_kb: int) -> dict:
    """Metric -> (value, unit, note). Times of CPU-bound workloads are
    scaled to the reference host speed (see measure.HostSpeed); the note
    gives the unscaled wall-clock figure."""
    lat = result["latencies_ms"]
    raw_lat = result.get("raw_latencies_ms", lat)
    tail_ms, pct = tail(lat)
    ops = result["attempted"] - result["failed"]
    if WORKLOADS[name]["kind"] == "extract":
        store = result["outputs"]["phases"][-1]["store"]
    else:
        store = plan["store"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s",
                    f"wall {statistics.median(result.get('raw_setup_s', result['setup_s'])):.4f}"),
        "ops_per_s": (ops / result["busy_s"], "1/s",
                      f"wall {ops / result.get('raw_busy_s', result['busy_s']):.4f}"),
        "latency_p50_ms": (statistics.median(lat), "ms", f"wall {statistics.median(raw_lat):.4f}"),
        "latency_tail_ms": (tail_ms, "ms", f"wall {tail(raw_lat)[0]:.4f}; p{pct:g} of {len(lat)} ops"),
        "peak_rss_mb": (rss_kb / 1024, "MB", ""),
        "store_mb": (os.path.getsize(store) / 2**20, "MB", ""),
    }


def spec_units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for a quick check")
    parser.add_argument("--inject", choices=sorted(INJECTIONS),
                        help="corrupt one output, or make ops raise, to test the checks")
    args = parser.parse_args()
    begin = time.monotonic()

    src = ROOT / "src"
    if not (src / "slsrec" / "__init__.py").is_file():
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    if args.inject and INJECTIONS[args.inject] != args.workload:
        print(f"error: --inject {args.inject} applies to {INJECTIONS[args.inject]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    name = args.workload
    size = WORKLOADS[name]["small" if args.small else "full"]
    work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, truth = make_plan(name, size, args.seed, args.seconds, work)
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        plan.update(trace=args.trace, inject=args.inject, src=str(src), out=str(work / "result.json"),
                    spans=str(spans_dir / f"spans-{name}-seed{args.seed}.jsonl"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        budget = max(10.0, TIME_LIMIT_S - (time.monotonic() - begin))
        try:
            child = subprocess.run([sys.executable, str(BENCH / "measure.py"), str(plan_path)],
                                   env=env, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: {name} did not finish within {budget:.0f} s", file=sys.stderr)
            return 1
        if child.returncode:
            print(f"error: measuring {name} exited {child.returncode}", file=sys.stderr)
            return 1
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if args.inject and args.inject != "raise":  # "raise" is planted in the child
            inject(args.inject, result["outputs"])
        problems = CHECKS[plan["kind"]](plan, truth, result["outputs"])
        if result["failed"]:
            problems.append(f"{result['failed']} of {result['attempted']} ops failed")
        if args.trace and plan["kind"] == "extract":
            problems += check_extract_counts(truth, result)
        e2e = end_to_end(name, plan, result, rss_kb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{name} seed={args.seed}: attempted {result['attempted']} ops, failed "
          f"{result['failed']}, {result['rounds']} rounds, {result['busy_s']:.2f} s measured")
    for metric, (value, unit, note) in e2e.items():
        print(f"  {metric:<16} {value:12.4f} {unit:<4} {note}")
    if plan["kind"] == "evaluate" and result["outputs"]["reports"][-1]:
        for doc in result["outputs"]["reports"][-1]["methods"]:
            print(f"  {doc['method']:<16} Recall@10 {doc['recall']['10']:.2f}%  "
                  f"MRR@10 {doc['mrr']['10']:.4f}")
    if plan["kind"] == "query":
        print(f"  {repeated_sets(plan, truth, result['outputs'])} of {len(result['outputs']['traces'])} "
              "answered queries repeat the attribute sets of an earlier query")
    if args.trace:
        for metric, value in result["layers"].items():
            print(f"  {metric:<36} {value:12.4f}")
        if plan["kind"] == "query":
            print("\n".join(stratum_lines(plan, result["outputs"])))
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... and {len(problems) - 20} more")
    if not problems:
        print("checks: all outputs correct")

    if args.trace:
        layers = dict(result["layers"])
        layers["trace.ops_per_s"], layers["trace.latency_p50_ms"] = (
            e2e["ops_per_s"][0], e2e["latency_p50_ms"][0])
        metrics = {m: {"value": layers[m], "unit": u}
                   for m, u in spec_units(spec, "per_layer").items()}
    else:
        metrics = {m: {"value": e2e[m][0], "unit": u}
                   for m, u in spec_units(spec, "end_to_end").items()}
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
