"""Runs one workload against the program and records what it did.

Started by run.py as a child process, so that input generation and the
checks stay out of its peak resident memory:
python3 bench/measure.py <plan.json>

The plan names the generated input files and the run length. The result,
written to the plan's "out" path, holds the set-up times, every op's
latency, the op counts and the program's outputs; run.py checks those
against the generator's truth after this process has ended.
"""

import bisect
import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

perf = time.perf_counter

# A fixed burst of work like the program's hot paths, but none of its code:
# a pure-Python integer loop and a scan of dot products over a thousand
# separate 384-float vectors. The host's speed drifts by a fifth within a
# minute and by more between runs, and CPU time drifts with it; the burst
# drifts with the program. Its time is sampled every half second through
# a run, and CPU-bound times are reported scaled by REFERENCE_BURST_S /
# (median burst around them): the time they would have taken had the burst
# taken its reference time.
REFERENCE_BURST_S = 0.003
SAMPLE_EVERY_S = 0.5
WINDOW_S = 1.0
_SCAN = [np.cos(np.arange(384.0) * (i + 1)) for i in range(1000)]
_PROBE = np.linspace(-1.0, 1.0, 384)


def _burst() -> float:
    start = perf()
    total = 0
    for i in range(30000):
        total += i * i
    for vector in _SCAN:
        total += float(np.dot(_PROBE, vector))
    return perf() - start


class HostSpeed:
    """Samples of the burst's time (median of three), with when taken."""

    def __init__(self):
        self.times: list[float] = []
        self.bursts: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = perf()
        self.bursts.append(statistics.median(_burst() for _ in range(3)))
        self.times.append(perf())
        self.spent += self.times[-1] - start

    def tick(self) -> None:
        """Sample if the last sample is older than SAMPLE_EVERY_S."""
        if not self.times or perf() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for an interval: the reference over the median of the
        samples taken within WINDOW_S of it (at least the nearest one)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo = min(max(0, lo - 1), len(self.times) - 1)
            hi = lo + 1
        return REFERENCE_BURST_S / statistics.median(self.bursts[lo:hi])


def call_cli(cli, args: list[str]) -> tuple[int, str]:
    """Run one slsrec subcommand in this process; returns (exit code,
    stdout)."""
    buffer = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="slsrec", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# query-20k: what `slsrec query` does per invocation, against a warm store
# ---------------------------------------------------------------------------

def run_query(plan: dict, tracer) -> dict:
    from slsrec import embedding, extraction, matching
    from slsrec.normalization import NormalizationTable

    speed = HostSpeed()
    setups, raw_setups = [], []
    reps = None
    for _ in range(plan["setup_repeats"]):
        reps = None
        gc.collect()
        speed.sample()
        start = perf()
        reps = extraction.load_representations(plan["store"])
        end = perf()
        speed.sample()
        raw_setups.append(end - start)
        setups.append((end - start) * speed.scale(start, end))

    provider = extraction.FixtureExtractionProvider(plan["fixtures"])
    table = NormalizationTable()
    embedder = embedding.DeterministicEmbedder()

    def answer(qid: str, text: str):
        if tracer is not None:
            tracer.op = qid
        if plan.get("inject") == "raise" and qid.startswith("q-") and qid.endswith("-0"):
            raise RuntimeError("planted fault: every measured query of the first stratum raises")
        rep = extraction.extract(qid, text, provider, table)
        rep = rep.with_vector(embedding.embed_intent(rep.intent_text, embedder))
        return matching.recommend(rep, reps, 10, qid)

    for qid, text in plan["warmup"]:
        answer(qid, text)

    queries = plan["queries"]
    size = plan["round_size"]
    spans, traces = [], []
    failed = 0
    begin = perf()
    rounds = 0
    while (rounds + 1) * size <= len(queries):
        for qid, text in queries[rounds * size:(rounds + 1) * size]:
            speed.tick()
            start = perf()
            try:
                result = answer(qid, text)
            except Exception as exc:  # counted; the run goes on
                failed += 1
                traces.append({"query_id": qid, "error": repr(exc)})
                continue
            spans.append((start, perf()))
            doc = result.trace()
            doc["similarity_evals"] = result.similarity_evals
            traces.append(doc)
        rounds += 1
        if perf() - begin >= plan["seconds"]:
            break
    speed.sample()
    raw = [(end - start) * 1e3 for start, end in spans]
    scaled = [(end - start) * 1e3 * speed.scale(start, end) for start, end in spans]
    return {"setup_s": setups, "raw_setup_s": raw_setups,
            "latencies_ms": scaled, "raw_latencies_ms": raw,
            "busy_s": sum(scaled) / 1e3, "raw_busy_s": sum(raw) / 1e3,
            "attempted": rounds * size, "failed": failed, "rounds": rounds,
            "outputs": {"traces": traces}}


# ---------------------------------------------------------------------------
# extract-remote: `slsrec ingest` + `slsrec extract` against the stub
# ---------------------------------------------------------------------------

def run_extract(plan: dict, tracer) -> dict:
    import slsrec.cli as cli
    from stub import Stub

    units = {
        fid: {"intent": u["intent"], "sets": {k: frozenset(v) for k, v in u["sets"].items()}}
        for fid, u in plan["units"].items()
    }
    os.environ["SLSREC_API_KEY"] = "bench-key"
    work = Path(plan["workdir"])
    speed = HostSpeed()
    setups, raw_setups, latencies, phases = [], [], [], []
    attempted = failed = 0
    busy = 0.0
    rounds = 0
    with Stub(units, plan["seed"], plan["delay_s"]) as stub:
        flags = ["--extractor", "remote", "--embedder", "remote", "--endpoint", stub.base_url,
                 "--concurrency", str(plan["concurrency"]), "--output", "json"]
        while True:
            round_dir = work / f"round-{rounds}"
            round_dir.mkdir()
            store = round_dir / "store.jsonl"
            setup = raw_setup = 0.0
            for phase, manifest in ((1, plan["manifest_full"]), (2, plan["manifest_all"])):
                repo = round_dir / f"repo-{phase}.json"
                speed.sample()
                start = perf()
                code, ingest_out = call_cli(cli, ["ingest", "--manifest", manifest, "--out", str(repo),
                                                  "--output", "json"])
                end = perf()
                speed.sample()
                raw_setup += end - start
                # ingest and save are CPU-bound; the extract calls below mostly
                # wait on the provider's fixed delay and are not scaled
                setup += (end - start) * speed.scale(start, end)
                stub.phase = f"{rounds}:{phase}"
                start = perf()
                code, extract_out = call_cli(cli, ["extract", "--repo", str(repo), "--reprs", str(store),
                                                   *flags])
                end = perf()
                busy += end - start
                summary = json.loads(extract_out)
                attempted += summary["extracted"] + summary["failed"]
                failed += summary["failed"]
                first_chat = {}
                for log_phase, kind, unit, arrival in stub.log:
                    if log_phase == stub.phase and kind == "chat":
                        first_chat.setdefault(unit, arrival)
                latencies.extend((end - t) * 1e3 for t in first_chat.values())
                phases.append({"round": rounds, "phase": phase, "exit": code,
                               "ingest": json.loads(ingest_out), "extract": summary,
                               "store": str(store)})
            setups.append(setup)
            raw_setups.append(raw_setup)
            rounds += 1
            if busy >= plan["seconds"]:
                break
        log = [(p, kind, unit, 0.0) for p, kind, unit, _t in stub.log]
        peak_inflight = stub.peak_active
    return {"setup_s": setups, "raw_setup_s": raw_setups, "latencies_ms": latencies,
            "busy_s": busy, "attempted": attempted, "failed": failed, "rounds": rounds,
            "outputs": {"phases": phases, "stub_log": log, "peak_inflight": peak_inflight}}


# ---------------------------------------------------------------------------
# evaluate-110q: `slsrec evaluate --method all`
# ---------------------------------------------------------------------------

def run_evaluate(plan: dict, tracer) -> dict:
    import slsrec.cli as cli

    work = Path(plan["workdir"])
    repo = work / "repo.json"
    code, out = call_cli(cli, ["ingest", "--manifest", plan["manifest"], "--out", str(repo),
                               "--output", "json"])
    if code:
        raise SystemExit(f"ingest failed: {out}")

    speed = HostSpeed()
    answers, spans = [], []
    answers_path = work / "answers.jsonl"
    eval_time = [0.0]
    run_evaluation = cli.run_evaluation

    def capturing_run_evaluation(method, runner, cases, *args, **kwargs):
        def timed_runner(case):
            speed.tick()
            start = perf()
            answer = runner(case)
            spans.append((start, perf()))
            answers.append((method, case.id, [list(e) for e in answer.ranking.entries]))
            return answer

        start = perf()
        try:
            return run_evaluation(method, timed_runner, cases, *args, **kwargs)
        finally:
            eval_time[0] += perf() - start

    cli.run_evaluation = capturing_run_evaluation
    args = ["evaluate", "--dataset", plan["dataset"], "--repo", str(repo), "--reprs", plan["store"],
            "--method", "all", "--repetitions", str(plan["repetitions"]),
            "--extractor", "fixture", "--fixture-file", plan["fixtures"],
            "--embedder", "deterministic", "--output", "json"]
    setups, raw_setups, reports = [], [], []
    busy = raw_busy = 0.0
    rounds = attempted = failed = 0
    per_round = plan["ops_per_round"]
    while True:
        eval_time[0] = 0.0
        answers.clear()
        speed.sample()
        spent_before = speed.spent
        start = perf()
        code, out = call_cli(cli, args)
        end = perf()
        # the samples taken between ops count as neither set-up nor work
        work_s = eval_time[0] - (speed.spent - spent_before)
        speed.sample()
        scale = speed.scale(start, end)
        raw_setups.append(end - start - eval_time[0])
        setups.append(raw_setups[-1] * scale)
        raw_busy += work_s
        busy += work_s * scale
        attempted += per_round
        if code:
            failed += per_round - len(answers)
            reports.append(None)
        else:
            reports.append(json.loads(out))
        # kept on disk, so that the measuring process's memory does not
        # grow with the number of rounds
        with answers_path.open("a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(a) + "\n" for a in answers)
        rounds += 1
        if raw_busy >= plan["seconds"]:
            break
    raw = [(end - start) * 1e3 for start, end in spans]
    scaled = [(end - start) * 1e3 * speed.scale(start, end) for start, end in spans]
    return {"setup_s": setups, "raw_setup_s": raw_setups,
            "latencies_ms": scaled, "raw_latencies_ms": raw,
            "busy_s": busy, "raw_busy_s": raw_busy,
            "attempted": attempted, "failed": failed, "rounds": rounds,
            "outputs": {"answers_path": str(answers_path), "reports": reports}}


def stub_counts(result: dict) -> dict:
    """Gateway figures counted at the stub, per round."""
    log = result["outputs"]["stub_log"]
    rounds = result["rounds"]
    chats = sum(1 for _p, kind, _u, _t in log if kind == "chat")
    embeds = [n_texts for _p, kind, n_texts, _t in log if kind == "embed"]
    return {
        "gateway.chat_requests": chats / rounds,
        "gateway.embed_requests": len(embeds) / rounds,
        "gateway.texts_per_embed_request": sum(embeds) / len(embeds) if embeds else 0.0,
        "gateway.peak_inflight": result["outputs"]["peak_inflight"],
    }


WORKLOADS = {"query": run_query, "extract": run_extract, "evaluate": run_evaluate}


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import slsrec
    import slsrec.cli  # noqa: F401  imports every module, so all can be traced

    if not Path(slsrec.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        raise SystemExit(f"slsrec imported from {slsrec.__file__}, not from {plan['src']}")
    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    result = WORKLOADS[plan["kind"]](plan, tracer)
    if tracer is not None:
        ops = result["attempted"] - result["failed"]
        result["layers"] = spans.layer_metrics(tracer, ops, result["rounds"])
        if plan["kind"] == "extract":
            result["layers"].update(stub_counts(result))
        tracer.write(plan["spans"])
    Path(plan["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
