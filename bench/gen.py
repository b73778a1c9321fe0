"""Seeded input generators for the three workloads.

Everything the program receives is written here as plain files: corpus
manifests with source trees, representation stores, extraction fixtures
and query datasets. The generator also returns the ground truth the
checks compare against (canonical attribute sets, planted rejects and
unknown terms), which never passes through the program.
"""

import json
import random
from itertools import combinations, product
from pathlib import Path

import numpy as np

import oracle

LEVELS = ("platforms", "services", "languages")

# canonical name -> alias spellings the program's default table maps onto it
PLATFORM_ALIASES = {
    "AWS Lambda": ["lambda", "Amazon Lambda", "AWS"],
    "Google Cloud Functions": ["gcf", "Cloud Functions"],
    "Azure Functions": ["azure function", "Microsoft Azure Functions"],
    "Apache OpenWhisk": ["openwhisk", "IBM Cloud Functions"],
}
SERVICE_ALIASES = {
    "AWS S3": ["s3", "Amazon S3"],
    "AWS Rekognition": ["rekognition", "Amazon Rekognition"],
    "AWS DynamoDB": ["dynamodb", "Amazon DynamoDB"],
    "AWS SQS": ["sqs", "Amazon SQS"],
    "AWS SNS": ["sns", "Amazon SNS"],
    "Google Firestore": ["firestore", "Google Cloud Firestore"],
    "Google Cloud Storage": ["gcs", "Cloud Storage", "Google Storage"],
    "Google Pub/Sub": ["pubsub", "Cloud Pub/Sub"],
    "Azure Blob Storage": ["blob storage", "azure blob"],
    "Azure Cosmos DB": ["cosmosdb", "azure cosmos"],
}
LANGUAGE_ALIASES = {
    "Python": ["py", "python3"],
    "JavaScript": ["js", "node.js", "nodejs"],
    "TypeScript": ["ts"],
    "Go": ["golang"],
    "C#": ["csharp", "c sharp"],
    "C++": ["cpp"],
}
ALIASES = {
    "platforms": PLATFORM_ALIASES,
    "services": SERVICE_ALIASES,
    "languages": LANGUAGE_ALIASES,
}
# fictional terms no alias table knows: they pass through normalization
# verbatim and are reported as unmapped
UNKNOWN = {
    "platforms": ["Nimbus Edge Functions"],
    "services": ["Quasar Queue", "Helix Ledger", "Zephyr Mailer"],
    "languages": ["Vexlang"],
}
CLOUD_OF_PLATFORM = {
    "AWS Lambda": "AWS",
    "Google Cloud Functions": "Google",
    "Azure Functions": "Azure",
    "Apache OpenWhisk": None,
    "Nimbus Edge Functions": None,
}
PLATFORM_WEIGHTS = {
    "AWS Lambda": 45,
    "Google Cloud Functions": 25,
    "Azure Functions": 20,
    "Apache OpenWhisk": 8,
    "Nimbus Edge Functions": 2,
}
LANGUAGE_WEIGHTS = {
    "Python": 35, "JavaScript": 25, "TypeScript": 12, "Go": 10,
    "C#": 10, "C++": 5, "Vexlang": 3,
}

VERBS = ["resizes", "tags", "indexes", "archives", "validates", "transcodes",
         "aggregates", "publishes", "deduplicates", "encrypts", "compresses",
         "schedules", "routes", "summarizes", "translates", "scans", "exports",
         "imports", "notifies", "audits"]
OBJECTS = ["images", "invoices", "orders", "logs", "videos", "documents",
           "events", "metrics", "emails", "receipts", "records", "reports",
           "thumbnails", "payments", "messages", "sensors", "tickets",
           "profiles", "backups", "alerts"]
SOURCES = ["uploads", "queues", "buckets", "webhooks", "streams", "tables",
           "forms", "feeds", "devices", "topics"]
TARGETS = ["storage", "dashboards", "archives", "inboxes", "warehouses",
           "caches", "ledgers", "channels", "indexes", "mirrors"]
EXTRAS = ["nightly", "securely", "incrementally", "in batches", "on demand",
          "with retries", "per tenant", "in real time"]

# how a user might say a function's verb without the function's own word
SYNONYMS = {
    "resizes": "rescales", "tags": "labels", "indexes": "catalogs", "archives": "stores",
    "validates": "checks", "transcodes": "converts", "aggregates": "combines",
    "publishes": "broadcasts", "deduplicates": "merges", "encrypts": "secures",
    "compresses": "shrinks", "schedules": "plans", "routes": "forwards",
    "summarizes": "condenses", "translates": "localizes", "scans": "inspects",
    "exports": "outputs", "imports": "loads", "notifies": "pings", "audits": "reviews",
}

ALL_SERVICES = list(SERVICE_ALIASES) + UNKNOWN["services"]
SERVICES_OF_CLOUD = {
    cloud: [s for s in SERVICE_ALIASES if s.startswith(cloud)]
    for cloud in ("AWS", "Google", "Azure")
}


def _weighted(rng: random.Random, weights: dict[str, int]) -> str:
    names = list(weights)
    return rng.choices(names, weights=[weights[n] for n in names])[0]


def _intent(rng: random.Random) -> str:
    return (
        f"{rng.choice(VERBS).capitalize()} {rng.choice(OBJECTS)} from "
        f"{rng.choice(SOURCES)} and {rng.choice(VERBS)} {rng.choice(OBJECTS)} "
        f"into {rng.choice(TARGETS)} {rng.choice(EXTRAS)}"
    )


def _function_sets(rng: random.Random) -> dict[str, frozenset[str]]:
    """One function's canonical attribute sets (the generator's truth)."""
    roll = rng.random()
    count = 0 if roll < 0.05 else (2 if roll > 0.90 else 1)
    platforms = set()
    while len(platforms) < count:
        platforms.add(_weighted(rng, PLATFORM_WEIGHTS))
    clouds = [CLOUD_OF_PLATFORM[p] for p in sorted(platforms) if CLOUD_OF_PLATFORM[p]]
    services = set()
    for _ in range(rng.choice((0, 1, 1, 2, 2, 2, 3))):
        if clouds and rng.random() < 0.85:
            services.add(rng.choice(SERVICES_OF_CLOUD[rng.choice(clouds)]))
        else:
            services.add(rng.choice(ALL_SERVICES))
    roll = rng.random()
    count = 0 if roll < 0.02 else (2 if roll > 0.92 else 1)
    languages = set()
    while len(languages) < count:
        languages.add(_weighted(rng, LANGUAGE_WEIGHTS))
    return {
        "platforms": frozenset(platforms),
        "services": frozenset(services),
        "languages": frozenset(languages),
    }


def _unknown_count(sets: dict[str, frozenset[str]]) -> int:
    return sum(len(sets[level] & set(UNKNOWN[level])) for level in LEVELS)


def _spell(rng: random.Random, level: str, term: str) -> str:
    """An alias spelling of a canonical term, in a random letter case.
    Unknown terms pass through normalization verbatim, so they keep their
    spelling."""
    aliases = ALIASES[level].get(term)
    if aliases is None:
        return term
    spelled = rng.choice(aliases + [term])
    return rng.choice((spelled, spelled.lower(), spelled.upper(), spelled.title()))


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def _store_row(fid: str, intent: str, vector: np.ndarray, sets) -> dict:
    """A row in the program's JSONL store format, as `slsrec extract`
    writes it."""
    return {
        "id": fid,
        "intent_text": intent,
        "intent_vector": vector.tolist(),
        "platforms": sorted(sets["platforms"]),
        "services": sorted(sets["services"]),
        "languages": sorted(sets["languages"]),
        "provenance": {"extractor": "fixture", "model": "fixture", "temperature": 0.0},
    }


def _fixture_row(rng: random.Random, qid: str, intent: str, sets) -> dict:
    row = {"id": qid, "intent_text": intent}
    for level in LEVELS:
        row[level] = sorted(_spell(rng, level, t) for t in sets[level])
    return row


def build_functions(rng: random.Random, n: int, embedder: "oracle.Embedder"):
    """n functions with unique intent texts, their canonical sets and the
    unit intent vectors the program's deterministic embedder gives them."""
    seen: set[str] = set()
    intents: list[str] = []
    while len(intents) < n:
        text = _intent(rng)
        if text not in seen:
            seen.add(text)
            intents.append(text)
    sets = [_function_sets(rng) for _ in range(n)]
    matrix = np.stack([embedder.unit(text) for text in intents])
    ids = [f"fn-{i:05d}" for i in range(n)]
    return ids, intents, sets, matrix


# ---------------------------------------------------------------------------
# query-20k
# ---------------------------------------------------------------------------

# one query of each stratum per round, so every run sees the same mix of
# selectivities: (platforms, services, languages) set sizes; 0 skips the
# level, "u" draws one unknown service. The mix is an assumption, not taken
# from a measured workload (see README.md).
QUERY_STRATA = (
    (1, 2, 1),
    (2, 1, 0),
    (0, 2, 2),
    (0, 0, 1),
    (0, 0, 0),
    (1, 0, 0),
    (1, 3, 2),
    (0, "u", 0),
)


def _stratum_options(stratum) -> list[dict[str, frozenset[str]]]:
    """Every distinct choice of attribute sets a stratum allows, in an
    order that is the same for every seed."""
    n_plat, n_serv, n_lang = stratum
    services = ([(u,) for u in UNKNOWN["services"]] if n_serv == "u"
                else combinations(SERVICE_ALIASES, n_serv))
    options = [
        {"platforms": frozenset(p), "services": frozenset(s), "languages": frozenset(lang)}
        for p, s, lang in product(combinations(list(PLATFORM_WEIGHTS)[:4], n_plat), services,
                                  combinations(LANGUAGE_ALIASES, n_lang))
    ]
    random.Random(f"stratum-{stratum}").shuffle(options)
    return options


def gen_query(workdir: Path, seed: int, n_functions: int, n_rounds: int,
              warmup_rounds: int = 1):
    """A store of n_functions plus n_rounds rounds of distinct queries
    (one per stratum) and warm-up rounds that are never measured."""
    rng = random.Random(f"query-{seed}")
    embedder = oracle.Embedder()
    ids, intents, sets, matrix = build_functions(rng, n_functions, embedder)
    store_path = workdir / "store.jsonl"
    _write_jsonl(store_path, (
        _store_row(ids[i], intents[i], matrix[i], sets[i]) for i in range(n_functions)
    ))
    seen: set[str] = set(intents)
    # query r of stratum s asks for the r-th choice of the stratum: no
    # choice repeats within a run until its stratum runs out of them
    options = [_stratum_options(stratum) for stratum in QUERY_STRATA]
    queries = []
    for r in range(warmup_rounds + n_rounds):
        for s in range(len(QUERY_STRATA)):
            text = _intent(rng)
            while text in seen:
                text = _intent(rng)
            seen.add(text)
            qid = f"{'w' if r < warmup_rounds else 'q'}-{r:05d}-{s}"
            queries.append({"id": qid, "intent": text,
                            "sets": options[s][r % len(options[s])]})
    _write_jsonl(workdir / "fixtures.jsonl", (
        _fixture_row(rng, q["id"], q["intent"], q["sets"]) for q in queries
    ))
    plan = {
        "store": str(store_path),
        "fixtures": str(workdir / "fixtures.jsonl"),
        "round_size": len(QUERY_STRATA),
        "warmup": [[q["id"], q["intent"]] for q in queries[: warmup_rounds * len(QUERY_STRATA)]],
        "queries": [[q["id"], q["intent"]] for q in queries[warmup_rounds * len(QUERY_STRATA):]],
    }
    truth = {
        "store": oracle.Store(ids, sets, matrix),
        "queries": {q["id"]: q for q in queries},
        "embedder": embedder,
    }
    return plan, truth


# ---------------------------------------------------------------------------
# corpora (extract-remote, evaluate-110q)
# ---------------------------------------------------------------------------

def _source(fid: str, intent: str, sets, rng: random.Random) -> tuple[str, str]:
    """A handler source file the quality filter keeps."""
    services = ", ".join(sorted(sets["services"])) or "none"
    lang = next(iter(sorted(sets["languages"])), "Python")
    if lang in ("JavaScript", "TypeScript"):
        return "handler.js", (
            f"// unit-id: {fid}\n// {intent}\n"
            "exports.handler = async (event) => {\n"
            "    const records = event.Records || [];\n"
            f"    const client = connect('{services}');\n"
            "    for (const record of records) {\n"
            "        await client.process(record);\n"
            "    }\n"
            f"    return {{statusCode: 200, body: '{rng.randrange(10**6)}'}};\n"
            "};\n"
        )
    if lang == "Go":
        return "main.go", (
            f"// unit-id: {fid}\n// {intent}\n"
            "func HandleRequest(ctx context.Context, event Event) (string, error) {\n"
            f"    client := connect(\"{services}\")\n"
            "    for _, record := range event.Records {\n"
            "        client.Process(record)\n"
            "    }\n"
            f"    return \"{rng.randrange(10**6)}\", nil\n"
            "}\n"
        )
    return "handler.py", (
        f"# unit-id: {fid}\n# {intent}\n"
        "def lambda_handler(event, context):\n"
        "    records = event.get('Records', [])\n"
        f"    client = connect('{services}')\n"
        "    for record in records:\n"
        "        client.process(record)\n"
        f"    return {{'status': 'ok', 'batch': {rng.randrange(10**6)}}}\n"
    )


def _trivial_unit(fid: str, i: int) -> tuple[str, str, str]:
    if i % 2:
        return f"hello-world-{i}", "handler.py", (
            f"# unit-id: {fid}\ndef handler(event, context):\n    return 'Hello World'\n"
        )
    return f"ping-{i}", "handler.py", (
        f"# unit-id: {fid}\ndef handler(event, context):\n    return {{'pong': {i}}}\n"
    )


def _benchmark_unit(fid: str, i: int) -> tuple[str, str, str]:
    return f"latency-benchmark-{i}", "benchmark_driver.py", (
        f"# unit-id: {fid}\nimport time\nstart = time.time()\n"
        f"for _ in range({100 + i}):\n    call_endpoint()\n"
        "elapsed = time.time() - start\nreport(elapsed)\n"
    )


def write_corpus(root: Path, units: list[dict]) -> Path:
    """Write sources and a manifest; each unit is {"id", "name", "file",
    "code", "readme"?}. Returns the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for unit in units:
        unit_dir = root / "src" / unit["id"]
        unit_dir.mkdir(parents=True, exist_ok=True)
        (unit_dir / unit["file"]).write_text(unit["code"], encoding="utf-8")
        row = {
            "id": unit["id"],
            "name": unit["name"],
            "origin": "generated",
            "paths": [f"src/{unit['id']}/{unit['file']}"],
        }
        if unit.get("readme"):
            (unit_dir / "README.md").write_text(unit["readme"], encoding="utf-8")
            row["readme_path"] = f"src/{unit['id']}/README.md"
        rows.append(row)
    manifest = root / "manifest.jsonl"
    _write_jsonl(manifest, rows)
    return manifest


def _kept_units(rng: random.Random, ids, intents, sets) -> list[dict]:
    units = []
    for fid, intent, unit_sets in zip(ids, intents, sets):
        file, code = _source(fid, intent, unit_sets, rng)
        readme = f"{intent}. Uses {', '.join(sorted(unit_sets['services'])) or 'no services'}."
        units.append({"id": fid, "name": f"fn-{intent.split()[0].lower()}-{fid[3:]}",
                      "file": file, "code": code, "readme": readme})
    return units


def gen_extract(workdir: Path, seed: int, n_full: int, n_new: int,
                n_trivial: int, n_benchmark: int):
    """Two manifests: the full corpus, then the same corpus plus about a
    tenth as many new units. Both plant trivial and benchmark units that
    ingest must reject."""
    rng = random.Random(f"extract-{seed}")
    n_kept = n_full + n_new
    seen: set[str] = set()
    intents = []
    while len(intents) < n_kept:
        text = _intent(rng)
        if text not in seen:
            seen.add(text)
            intents.append(text)
    ids = [f"fn-{i:05d}" for i in range(n_kept)]
    sets = [_function_sets(rng) for _ in range(n_kept)]
    kept = _kept_units(rng, ids, intents, sets)
    rejects = {}
    planted = []
    for i in range(n_trivial):
        fid = f"tv-{i:04d}"
        name, file, code = _trivial_unit(fid, i)
        planted.append({"id": fid, "name": name, "file": file, "code": code})
        rejects[fid] = "trivial"
    for i in range(n_benchmark):
        fid = f"bm-{i:04d}"
        name, file, code = _benchmark_unit(fid, i)
        planted.append({"id": fid, "name": name, "file": file, "code": code})
        rejects[fid] = "benchmark"
    # the incremental corpus adds n_new kept units and a tenth of the rejects
    split_planted = len(planted) - max(1, len(planted) // 10)
    full_units = kept[:n_full] + planted[:split_planted]
    all_units = kept + planted
    rng.shuffle(full_units)
    manifest_full = write_corpus(workdir / "corpus-full", full_units)
    manifest_all = write_corpus(workdir / "corpus-all", all_units)
    truth_units = {
        fid: {"intent": intent, "sets": unit_sets, "phase": 1 if i < n_full else 2}
        for i, (fid, intent, unit_sets) in enumerate(zip(ids, intents, sets))
    }
    plan = {
        "manifest_full": str(manifest_full),
        "manifest_all": str(manifest_all),
    }
    truth = {
        "units": truth_units,
        "rejects_full": {u["id"]: rejects[u["id"]] for u in planted[:split_planted]},
        "rejects_all": rejects,
        "unknown_terms": sum(_unknown_count(s) for s in sets),
        "seed": seed,
    }
    return plan, truth


# ---------------------------------------------------------------------------
# evaluate-110q
# ---------------------------------------------------------------------------

def gen_evaluate(workdir: Path, seed: int, n_functions: int, n_queries: int,
                 exact_share: float):
    """A corpus and its representation store of n_functions, plus a query
    dataset with ground truth. exact_share of the queries restate their
    target's quadruple exactly; the rest paraphrase it."""
    rng = random.Random(f"evaluate-{seed}")
    embedder = oracle.Embedder()
    ids, intents, sets, matrix = build_functions(rng, n_functions, embedder)
    manifest = write_corpus(workdir / "corpus", _kept_units(rng, ids, intents, sets))
    _write_jsonl(workdir / "store.jsonl", (
        _store_row(ids[i], intents[i], matrix[i], sets[i]) for i in range(n_functions)
    ))
    targets = rng.sample(range(n_functions), n_queries)
    n_exact = round(exact_share * n_queries)
    queries = []
    for j, t in enumerate(targets):
        qid = f"q-{j:03d}"
        words = intents[t].split()
        said = [SYNONYMS.get(w.lower(), w) for w in words]
        if j < n_exact:
            intent, qsets = intents[t], sets[t]
        else:
            # paraphrase: the user's verbs, two words dropped, one attribute
            # of each level kept
            drop = set(rng.sample(range(1, len(words)), 2))
            intent = " ".join(w for i, w in enumerate(said) if i not in drop)
            qsets = {
                level: frozenset(rng.sample(sorted(sets[t][level]), 1)) if sets[t][level]
                else frozenset()
                for level in LEVELS
            }
        services = ", ".join(_spell(rng, "services", x) for x in sorted(sets[t]["services"]))
        text = f"I need a function that {' '.join(said)} using {services or 'plain code'}"
        queries.append({"id": qid, "text": text, "intent": intent, "sets": qsets,
                        "target": ids[t], "exact": j < n_exact})
    _write_jsonl(workdir / "dataset.jsonl", (
        {"id": q["id"], "text": q["text"], "ground_truth_id": q["target"]} for q in queries
    ))
    _write_jsonl(workdir / "fixtures.jsonl", (
        _fixture_row(rng, q["id"], q["intent"], q["sets"]) for q in queries
    ))
    plan = {
        "manifest": str(manifest),
        "store": str(workdir / "store.jsonl"),
        "dataset": str(workdir / "dataset.jsonl"),
        "fixtures": str(workdir / "fixtures.jsonl"),
    }
    truth = {
        "store": oracle.Store(ids, sets, matrix),
        "queries": {q["id"]: q for q in queries},
        "embedder": embedder,
    }
    return plan, truth
