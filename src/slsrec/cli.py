"""Operator surface: ingest a corpus, extract representations, answer
queries, run evaluations.

Exit codes: 0 success, 1 runtime failure, 2 usage or input validation.
With --output json every subcommand writes a single JSON document to
stdout and diagnostics to stderr only.
"""

import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import click

from .baselines import METHODS, method_runner
from .corpus import ingest_corpus, load, load_filter_config, save
from .embedding import DeterministicEmbedder, RemoteEmbedder, embed_intent
from .errors import (
    ConfigurationError,
    CorpusIOError,
    DuplicateIdError,
    EngineError,
    ManifestError,
    RepositoryFormatError,
    ValidationError,
)
from .evaluation import DEFAULT_KS, EvalReport, load_query_dataset, run_evaluation
from .extraction import (
    FixtureExtractionProvider,
    Provenance,
    RemoteExtractionProvider,
    extract,
    extract_all,
    load_representations,
    save_representations,
)
from .gateway import GatewayClient, ProviderConfig
from .matching import recommend
from .normalization import NormalizationTable, load_table

_INPUT_ERRORS = (
    ConfigurationError,
    ValidationError,
    ManifestError,
    DuplicateIdError,
    CorpusIOError,
    RepositoryFormatError,
)


def handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except EngineError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def provider_options(func):
    options = [
        click.option(
            "--extractor",
            "extractor_kind",
            type=click.Choice(["remote", "fixture"]),
            default="remote",
            show_default=True,
            help="Knowledge-extraction provider.",
        ),
        click.option(
            "--embedder",
            "embedder_kind",
            type=click.Choice(["remote", "deterministic"]),
            default="remote",
            show_default=True,
            help="Intent-embedding provider.",
        ),
        click.option("--fixture-file", type=click.Path(exists=True, dir_okay=False),
                     help="Subject-id keyed extraction fixtures (JSONL)."),
        click.option("--endpoint", default="https://api.openai.com/v1",
                     show_default=True, help="Remote provider base URL."),
        click.option("--model", default="gpt-4o", show_default=True),
        click.option("--temperature", type=float, default=0.0, show_default=True),
        click.option("--max-retries", type=click.IntRange(min=0), default=3,
                     show_default=True, help="Remote-provider retry budget."),
        click.option("--api-key-env", default="SLSREC_API_KEY", show_default=True,
                     help="Environment variable holding the provider key."),
        click.option("--norm-table", type=click.Path(exists=True, dir_okay=False),
                     help="Terminology normalization table (JSON)."),
    ]
    for option in reversed(options):
        func = option(func)
    return func


def _provider_config(flags: dict) -> ProviderConfig:
    return ProviderConfig(
        base_url=flags["endpoint"],
        api_key_env=flags["api_key_env"],
        model_name=flags["model"],
        temperature=flags["temperature"],
        max_retries=flags["max_retries"],
    )


def _build_extractor(flags: dict):
    if flags["extractor_kind"] == "fixture":
        if not flags["fixture_file"]:
            raise ConfigurationError("--fixture-file is required with --extractor fixture")
        return FixtureExtractionProvider(flags["fixture_file"])
    return RemoteExtractionProvider(GatewayClient(_provider_config(flags)))


def _build_embedder(flags: dict):
    if flags["embedder_kind"] == "deterministic":
        return DeterministicEmbedder()
    return RemoteEmbedder(GatewayClient(_provider_config(flags)))


def _load_table(norm_table) -> NormalizationTable:
    return load_table(norm_table) if norm_table else NormalizationTable()


@click.group()
@click.version_option(package_name="slsrec")
def main():
    """Recommend reusable serverless functions for natural-language tasks."""


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

@main.command("ingest")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--filter-config", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Choice(["table", "json"]), default="table")
@handle_errors
def cmd_ingest(manifest, out, filter_config, output):
    """Build and persist a function repository from a JSONL manifest."""
    cfg = load_filter_config(filter_config) if filter_config else None
    result = ingest_corpus(manifest, cfg)
    save(result.repository, out)
    kept, rejected = len(result.repository), len(result.rejections)
    if output == "json":
        click.echo(json.dumps({
            "kept": kept,
            "rejected": rejected,
            "version": result.repository.version,
            "rejections": [{"id": r.unit_id, "rule": r.rule} for r in result.rejections],
        }))
    else:
        for rejection in result.rejections:
            click.echo(f"rejected {rejection.unit_id}: {rejection.rule}", err=True)
        click.echo(f"kept={kept} rejected={rejected}")


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

@main.command("extract")
@click.option("--repo", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--reprs", required=True, type=click.Path(dir_okay=False),
              help="Representation store (JSONL); created or extended.")
@click.option("--concurrency", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--output", type=click.Choice(["table", "json"]), default="table")
@provider_options
@handle_errors
def cmd_extract(repo, reprs, concurrency, output, norm_table, **flags):
    """Extract and embed a representation for every unit lacking one."""
    repository = load(repo)
    table = _load_table(norm_table)
    provider = _build_extractor(flags)
    embedder = _build_embedder(flags)

    existing = load_representations(reprs) if Path(reprs).is_file() else {}
    planned = Provenance(provider.name, provider.model, provider.temperature)
    todo = [
        (fid, unit.code_text())
        for fid, unit in sorted(repository.units.items())
        if fid not in existing
        or existing[fid].provenance != planned
        or existing[fid].intent_vector is None
    ]

    extracted, failures = extract_all(todo, provider, table, concurrency=concurrency)
    embedded = {}
    for fid, rep in extracted.items():
        try:
            embedded[fid] = rep.with_vector(embed_intent(rep.intent_text, embedder))
        except EngineError as exc:
            failures[fid] = exc

    merged = {**existing, **embedded}
    save_representations(reprs, merged.values())

    for fid in sorted(failures):
        click.echo(f"failed {fid}: {failures[fid]}", err=True)
    summary = {
        "extracted": len(embedded),
        "skipped": len(repository) - len(todo),
        "failed": len(failures),
        "store_size": len(merged),
    }
    if output == "json":
        click.echo(json.dumps(summary))
    else:
        click.echo(
            "extracted={extracted} skipped={skipped} failed={failed}".format(**summary)
        )
    if failures:
        sys.exit(1)


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

@main.command("query")
@click.argument("text")
@click.option("--reprs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--query-id", default="query", show_default=True,
              help="Subject id for the query (keys the fixture file).")
@click.option("--output", type=click.Choice(["table", "json"]), default="table")
@click.option("--trace", is_flag=True, help="Emit the JSON pruning trace.")
@click.option("--timing", is_flag=True,
              help="Include measured latency in the trace (non-deterministic).")
@provider_options
@handle_errors
def cmd_query(text, reprs, k, query_id, output, trace, timing, norm_table, **flags):
    """Recommend the top-k functions for a natural-language task TEXT."""
    reps = load_representations(reprs)
    table = _load_table(norm_table)
    provider = _build_extractor(flags)
    embedder = _build_embedder(flags)

    query_rep = extract(query_id, text, provider, table)
    query_rep = query_rep.with_vector(embed_intent(query_rep.intent_text, embedder))
    result = recommend(query_rep, reps, k, query_id)

    if trace or output == "json":
        click.echo(json.dumps(result.trace(include_latency=timing)))
        return
    for audit in result.candidates.audit:
        state = (
            f"full={audit.full} pareto={audit.pareto} retained={audit.retained}"
            if audit.applied
            else "skipped"
        )
        click.echo(f"level {audit.level}: {state}", err=True)
    click.echo(f"survivors={len(result.candidates)}", err=True)
    if not result.ranking.entries:
        click.echo("no matching functions")
    for position, (fid, score) in enumerate(result.ranking.entries, start=1):
        click.echo(f"{position:3d}. {score:+.4f}  {fid}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _render_grid(reports: list[EvalReport], ks) -> str:
    width = max(len(r.method) for r in reports) + 2
    header = "method".ljust(width) + "".join(f"k={k}".rjust(10) for k in ks)
    lines = ["Recall@k (%)", header]
    for report in reports:
        lines.append(
            report.method.ljust(width)
            + "".join(f"{report.recall[k]:10.2f}" for k in ks)
        )
    lines += ["", "MRR@k", header]
    for report in reports:
        lines.append(
            report.method.ljust(width)
            + "".join(f"{report.mrr[k]:10.4f}" for k in ks)
        )
    lines += ["", "Mean latency (ms)"]
    for report in reports:
        lines.append(
            f"{report.method.ljust(width)}cached={report.mean_latency_ms:.3f}  "
            f"inclusive={report.mean_latency_inclusive_ms:.3f}"
        )
    return "\n".join(lines)


@main.command("evaluate")
@click.option("--dataset", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Query dataset (JSONL with id/text/ground_truth_id).")
@click.option("--repo", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--reprs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice([*METHODS, "all"]), default="slsreuse",
              show_default=True)
@click.option("--k", "ks", type=click.IntRange(min=1), multiple=True,
              help="Cutoffs; repeatable. Default: 1 5 10 15 20.")
@click.option("--repetitions", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              help="Also write the JSON report here.")
@click.option("--output", type=click.Choice(["table", "json"]), default="table")
@provider_options
@handle_errors
def cmd_evaluate(dataset, repo, reprs, method, ks, repetitions, report_path, output,
                 norm_table, **flags):
    """Compute Recall@k, MRR@k and latency for one method (or all)."""
    repository = load(repo)
    reps = load_representations(reprs)
    cases = load_query_dataset(dataset)
    ks = tuple(sorted(set(ks))) if ks else DEFAULT_KS
    kmax = max(ks)
    known_ids = set(repository.units)

    methods = METHODS if method == "all" else (method,)
    table = _load_table(norm_table)

    reports = []
    for name in methods:
        runner = method_runner(
            name, kmax, repository, reps,
            lambda: _build_extractor(flags), lambda: _build_embedder(flags), table,
        )
        reports.append(
            run_evaluation(name, runner, cases, ks, repetitions, known_ids)
        )

    doc = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "extractor": flags["extractor_kind"],
        "embedder": flags["embedder_kind"],
        "model": flags["model"],
        "temperature": flags["temperature"],
        "queries": len(cases),
        "methods": [report.to_dict() for report in reports],
    }
    if report_path:
        Path(report_path).write_text(json.dumps(doc, indent=2), encoding="utf-8")
    if output == "json":
        click.echo(json.dumps(doc))
    else:
        click.echo(_render_grid(reports, ks))


if __name__ == "__main__":
    main()
