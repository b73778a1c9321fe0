"""Spans around calls into the program's public functions, recorded from
the benchmark's own code.

`instrument` replaces each traced function in every loaded `slsrec`
module that binds it (so `from x import f` call sites are covered too)
with a wrapper that opens a span, calls the original and closes the span.
Spans are kept in memory as [name, start, end, parent, op] and written
out when the run ends; `layer_metrics` turns them into per-layer figures.
"""

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("corpus", "extraction", "normalization", "embedding", "gateway",
          "matching", "baselines", "evaluation")
METHODS = ("slsreuse", "keyword", "embedding", "llm-variant")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.method = None
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.clients: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str, op=None) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        if op is None:
            op = self.spans[parent][4] if parent >= 0 else self.op
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _replace(func, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "slsrec" or name.startswith("slsrec."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)


def _wrap(tracer: Tracer, func, name, on_result=None, op_arg=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = name(args, kwargs) if callable(name) else name
        idx = tracer.open(span, args[op_arg] if op_arg is not None else None)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(result, args)
        return result

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Trace the layers' public entry points. Call after importing
    slsrec.cli, which imports every module."""
    from slsrec import baselines, corpus, embedding, evaluation, extraction, gateway, matching

    counts, samples = tracer.counts, tracer.samples

    def ingested(result, _args):
        counts["corpus.rejected"] = len(result.rejections)

    def normalized(result, _args):
        counts["normalization.unmapped_terms"] += sum(len(v) for v in result.unmapped.values())

    def recommended(result, _args):
        samples["matching.survivors"].append(len(result.candidates.ids))
        samples["matching.similarity_evals"].append(result.similarity_evals)
        for audit in result.candidates.audit:
            if audit.applied:
                samples[f"matching.retained.{audit.level}"].append(audit.retained)

    def answered(result, _args):
        samples[f"evaluation.prepare_ms.{tracer.method}"].append(result.prepare_ms)
        samples[f"evaluation.rank_ms.{tracer.method}"].append(result.rank_ms)

    functions = [
        (corpus.ingest_corpus, "corpus.ingest", ingested),
        (corpus.save, "corpus.save", None),
        (corpus.load, "corpus.load", None),
        (extraction.parse_extraction, "extraction.parse", None),
        (extraction.load_representations, "extraction.store_load", None),
        (extraction.save_representations, "extraction.store_save", None),
        (extraction.summarize_intent, "extraction.summarize", None),
        (extraction.normalize, "normalization.normalize", normalized),
        (embedding.embed_intent, "embedding.embed", None),
        (matching.recommend, "matching.recommend", recommended),
        (matching.multi_level_prune, "matching.prune", None),
        (baselines.build_keyword_index, "baselines.keyword_index", None),
        (baselines.build_document_index, "baselines.document_index", None),
        (baselines.rank_token_bag, "baselines.keyword_rank", None),
        (baselines.rank_document_embeddings, "baselines.document_rank", None),
        (baselines.rank_all_intents, "baselines.rank_all", None),
        (evaluation.recall_at_k, "evaluation.metrics", None),
        (evaluation.mrr_at_k, "evaluation.metrics", None),
        (evaluation.timed_answer, "evaluation.answer", answered),
    ]
    for func, name, hook in functions:
        _replace(func, _wrap(tracer, func, name, hook))
    _replace(extraction.extract, _wrap(tracer, extraction.extract, "extraction.extract", op_arg=0))
    level_name = lambda args, kwargs: f"matching.prune_level.{kwargs.get('level') or args[3]}"  # noqa: E731
    _replace(matching.prune_level, _wrap(tracer, matching.prune_level, level_name))

    run_evaluation = evaluation.run_evaluation

    @functools.wraps(run_evaluation)
    def traced_run_evaluation(method, *args, **kwargs):
        tracer.method = method
        idx = tracer.open("evaluation.run")
        try:
            return run_evaluation(method, *args, **kwargs)
        finally:
            tracer.close(idx)

    _replace(run_evaluation, traced_run_evaluation)

    for cls in (extraction.FixtureExtractionProvider, extraction.RemoteExtractionProvider):
        cls.extract_quadruple = _wrap(tracer, cls.extract_quadruple, "extraction.provider")
    client_cls = gateway.GatewayClient
    client_cls.chat_complete = _wrap(tracer, client_cls.chat_complete, "gateway.chat")
    client_cls.embed_texts = _wrap(tracer, client_cls.embed_texts, "gateway.embed")
    init = client_cls.__init__

    @functools.wraps(init)
    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.clients.append(self)

    client_cls.__init__ = registering_init


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, rounds: int) -> dict[str, float]:
    """Per-layer figures. Times are mean ms per call of the named span,
    counts are per round unless named per op or per call; self time is
    the span time not covered by child spans, per op, setup included."""
    durations: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _op in tracer.spans:
        durations[name].append((end - start) * 1e3)
        if parent >= 0:
            child_time[parent] += end - start
    self_ms = defaultdict(float)
    for (name, start, end, _parent, _op), covered in zip(tracer.spans, child_time):
        self_ms[name.split(".")[0]] += (end - start - covered) * 1e3

    # recommend time minus the time of the prune it called
    score_rank = sum(durations["matching.recommend"])
    for name, start, end, parent, _op in tracer.spans:
        if name == "matching.prune" and parent >= 0 and tracer.spans[parent][0] == "matching.recommend":
            score_rank -= (end - start) * 1e3
    recommends = len(durations["matching.recommend"])

    def mean_ms(name):
        return _mean(durations[name])

    extracts = len(durations["extraction.extract"])
    provider_calls = len(durations["extraction.provider"])
    telemetry = [c.telemetry for c in tracer.clients]
    per_round = max(1, rounds)
    out = {
        "corpus.ingest_ms": mean_ms("corpus.ingest"),
        "corpus.save_ms": mean_ms("corpus.save"),
        "corpus.load_ms": mean_ms("corpus.load"),
        "corpus.rejected": tracer.counts["corpus.rejected"],
        "extraction.extract_ms": mean_ms("extraction.extract"),
        "extraction.provider_ms": mean_ms("extraction.provider"),
        "extraction.parse_ms": mean_ms("extraction.parse"),
        "extraction.attempts_per_extract": provider_calls / extracts if extracts else 0.0,
        "extraction.store_load_ms": mean_ms("extraction.store_load"),
        "extraction.store_save_ms": mean_ms("extraction.store_save"),
        "normalization.normalize_ms": mean_ms("normalization.normalize"),
        "normalization.unmapped_terms": tracer.counts["normalization.unmapped_terms"] / per_round,
        "embedding.embed_ms": mean_ms("embedding.embed"),
        "embedding.calls": len(durations["embedding.embed"]) / ops if ops else 0.0,
        # counted at the stub provider, which only extract-remote runs
        "gateway.chat_requests": 0.0,
        "gateway.embed_requests": 0.0,
        "gateway.texts_per_embed_request": 0.0,
        "gateway.peak_inflight": 0.0,
        "gateway.requests_sent": sum(t.requests_sent for t in telemetry) / per_round,
        "gateway.retries": sum(t.retries_total for t in telemetry) / per_round,
        "gateway.chat_ms": mean_ms("gateway.chat"),
        "gateway.embed_ms": mean_ms("gateway.embed"),
        "matching.recommend_ms": mean_ms("matching.recommend"),
        "matching.prune_ms": mean_ms("matching.prune"),
        "matching.score_rank_ms": score_rank / recommends if recommends else 0.0,
        "matching.survivors": _mean(tracer.samples["matching.survivors"]),
        "matching.similarity_evals": _mean(tracer.samples["matching.similarity_evals"]),
        "baselines.keyword_index_ms": mean_ms("baselines.keyword_index"),
        "baselines.document_index_ms": mean_ms("baselines.document_index"),
        "baselines.keyword_rank_ms": mean_ms("baselines.keyword_rank"),
        "baselines.document_rank_ms": mean_ms("baselines.document_rank"),
        "baselines.rank_all_ms": mean_ms("baselines.rank_all"),
        "evaluation.metrics_ms": mean_ms("evaluation.metrics"),
    }
    for level in ("platforms", "services", "languages"):
        out[f"matching.prune_level_ms.{level}"] = mean_ms(f"matching.prune_level.{level}")
        out[f"matching.retained.{level}"] = _mean(tracer.samples[f"matching.retained.{level}"])
    for method in METHODS:
        out[f"evaluation.prepare_ms.{method}"] = _mean(tracer.samples[f"evaluation.prepare_ms.{method}"])
        out[f"evaluation.rank_ms.{method}"] = _mean(tracer.samples[f"evaluation.rank_ms.{method}"])
    for layer in LAYERS:
        out[f"self_ms_per_op.{layer}"] = self_ms[layer] / ops if ops else 0.0
    out["trace.spans_per_op"] = len(tracer.spans) / ops if ops else 0.0
    return out
