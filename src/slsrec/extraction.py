"""Structured knowledge extraction: code or query text -> quadruple.

A four-part prompt (role + instruction, guideline notes, response-format
spec, subject) is sent to a pluggable provider; the labeled four-section
response is parsed into a raw quadruple, normalized through the alias
table, and packed into a SemanticRepresentation. A deterministic fixture
provider keyed by subject id makes the whole pipeline runnable offline.
"""

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    ExtractionFailedError,
    IntegrityError,
    MalformedResponseError,
    ValidationError,
)
from .normalization import NormalizationTable

INTENT_LABEL = "Intent Summary"
PLATFORMS_LABEL = "Serverless Platforms"
SERVICES_LABEL = "Cloud Services"
LANGUAGES_LABEL = "Programming Languages"
_LABELS = (INTENT_LABEL, PLATFORMS_LABEL, SERVICES_LABEL, LANGUAGES_LABEL)

UNIT_NORM_TOLERANCE = 1e-6

LEVELS = ("platforms", "services", "languages")


@dataclass(frozen=True)
class Provenance:
    extractor: str
    model: str
    temperature: float


@dataclass(frozen=True, eq=False)
class SemanticRepresentation:
    """The quadruple for a function or query: intent + three attribute sets.

    Equality is identity-based (the intent vector is an array); compare
    serialized dicts where field equality matters.
    """

    subject_id: str
    intent_text: str
    intent_vector: np.ndarray | None
    platforms: frozenset[str]
    services: frozenset[str]
    languages: frozenset[str]
    provenance: Provenance

    def __post_init__(self):
        if self.intent_vector is not None:
            norm = float(np.linalg.norm(self.intent_vector))
            # written so that a NaN norm fails too
            if not abs(norm - 1.0) <= UNIT_NORM_TOLERANCE:
                raise ValidationError(
                    f"intent vector of '{self.subject_id}' is not unit-norm "
                    f"(norm={norm!r})"
                )
        for attr in LEVELS:
            if any(term.casefold() == "none" for term in getattr(self, attr)):
                raise ValidationError(
                    f"'{self.subject_id}'.{attr} contains a literal 'None' element"
                )

    def attribute_set(self, level: str) -> frozenset[str]:
        if level not in LEVELS:
            raise ValidationError(f"unknown attribute level '{level}'")
        return getattr(self, level)

    def with_vector(self, vector: np.ndarray) -> "SemanticRepresentation":
        return replace(self, intent_vector=vector)


@dataclass(frozen=True)
class RawExtraction:
    """Verbatim section contents as emitted by the extractor."""

    intent_summary: str
    platforms_raw: frozenset[str]
    services_raw: frozenset[str]
    languages_raw: frozenset[str]


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PromptConfig:
    """The four mandatory prompt parts, rendered in order before the subject."""

    role_preamble: str
    task_instruction: str
    guideline_notes: str
    response_format_spec: str


DEFAULT_PROMPT = PromptConfig(
    role_preamble="You are an expert writing serverless functions.",
    task_instruction=(
        "Analyze the subject below and extract four kinds of information:\n"
        "1. an intent summary: one short paragraph describing what it accomplishes;\n"
        "2. the serverless platforms it targets (examples: AWS Lambda, "
        "Google Cloud Functions, Azure Functions);\n"
        "3. the cloud services it uses (examples: AWS S3, Google Firestore, "
        "AWS DynamoDB);\n"
        "4. the programming languages it is written in (examples: Python, "
        "JavaScript, C#)."
    ),
    guideline_notes=(
        "Notes:\n"
        "- The Serverless Framework is a development framework rather than a "
        "serverless platform; never report it as a platform.\n"
        "- Use of platform-specific cloud services or handler interfaces "
        "implies the corresponding serverless platform even when it is not "
        "declared explicitly."
    ),
    response_format_spec=(
        "Respond in exactly four labeled sections:\n"
        f"{INTENT_LABEL}: <one short paragraph>\n"
        f"{PLATFORMS_LABEL}: <comma-separated list>\n"
        f"{SERVICES_LABEL}: <comma-separated list>\n"
        f"{LANGUAGES_LABEL}: <comma-separated list>\n"
        'Return "None" for any section where no relevant item can be '
        "identified."
    ),
)

INTENT_ONLY_INSTRUCTION = (
    "Summarize the intent of the subject below in one short paragraph. "
    "Respond with the summary text only."
)


def build_prompt(subject: str, cfg: PromptConfig = DEFAULT_PROMPT) -> str:
    """Render the four prompt parts, in order, followed by the subject."""
    if not subject or not subject.strip():
        raise ValidationError("prompt subject must be non-empty")
    parts = (
        cfg.role_preamble,
        cfg.task_instruction,
        cfg.guideline_notes,
        cfg.response_format_spec,
    )
    for name, part in zip(PromptConfig.__dataclass_fields__, parts):
        if not part or not part.strip():
            raise ValidationError(f"prompt config part '{name}' must be non-empty")
    return "\n\n".join((*parts, subject))


def build_intent_prompt(subject: str, role_preamble: str = DEFAULT_PROMPT.role_preamble) -> str:
    """Intent-summary-only prompt, used by the no-pruning variant method."""
    if not subject or not subject.strip():
        raise ValidationError("prompt subject must be non-empty")
    return "\n\n".join((role_preamble, INTENT_ONLY_INSTRUCTION, subject))


# ---------------------------------------------------------------------------
# Response parsing and rendering
# ---------------------------------------------------------------------------

def _label_pattern(label: str, strict: bool) -> re.Pattern:
    if strict:
        return re.compile(rf"^{re.escape(label)}\s*:", re.MULTILINE)
    # tolerate markdown/numbering decoration: "**Label:**", "- Label:", "2. Label:"
    return re.compile(
        rf"^[ \t>#*\-+0-9.)]*[*_`]*{re.escape(label)}[*_`]*\s*:[*_`]*",
        re.MULTILINE | re.IGNORECASE,
    )


_ITEM_JUNK = re.compile(r"^[ \t*\-+•`\"']+|[ \t*`\"'.]+$")


def _split_items(section: str) -> frozenset[str]:
    cleaned = _ITEM_JUNK.sub("", section.strip())
    if cleaned.casefold() == "none":
        return frozenset()
    items = []
    for piece in re.split(r"[,\n;]+", section):
        piece = _ITEM_JUNK.sub("", piece.strip())
        if piece:
            items.append(piece)
    return frozenset(items)


def parse_extraction(raw_response: str, strict: bool = False) -> RawExtraction:
    """Split a four-section response into the raw quadruple.

    Section labels are located case-insensitively (with optional markdown
    decoration unless strict); list sections split on commas, newlines and
    semicolons; a section equal to "None" yields the empty set. A missing
    label raises MalformedResponseError naming it, so callers may retry.
    """
    spans: list[tuple[int, int, str]] = []
    for label in _LABELS:
        match = _label_pattern(label, strict).search(raw_response)
        if match is None:
            raise MalformedResponseError(label, raw_response)
        spans.append((match.start(), match.end(), label))
    spans.sort()

    sections: dict[str, str] = {}
    for (start, end, label), nxt in zip(spans, spans[1:] + [None]):
        stop = nxt[0] if nxt else len(raw_response)
        body = raw_response[end:stop]
        if label != INTENT_LABEL:
            # a blank line ends a list section; trailing chatter is not data
            body = re.split(r"\n[ \t]*\n", body, maxsplit=1)[0]
        sections[label] = body.strip()

    return RawExtraction(
        intent_summary=sections[INTENT_LABEL],
        platforms_raw=_split_items(sections[PLATFORMS_LABEL]),
        services_raw=_split_items(sections[SERVICES_LABEL]),
        languages_raw=_split_items(sections[LANGUAGES_LABEL]),
    )


def render_response(
    intent_summary: str,
    platforms: Iterable[str],
    services: Iterable[str],
    languages: Iterable[str],
) -> str:
    """Render the canonical four-section document (inverse of parsing)."""

    def section(items: Iterable[str]) -> str:
        ordered = sorted(items)
        return ", ".join(ordered) if ordered else "None"

    return (
        f"{INTENT_LABEL}: {intent_summary}\n"
        f"{PLATFORMS_LABEL}: {section(platforms)}\n"
        f"{SERVICES_LABEL}: {section(services)}\n"
        f"{LANGUAGES_LABEL}: {section(languages)}"
    )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedExtraction:
    intent_text: str
    platforms: frozenset[str]
    services: frozenset[str]
    languages: frozenset[str]
    unmapped: dict[str, frozenset[str]]


def normalize(raw: RawExtraction, table: NormalizationTable) -> NormalizedExtraction:
    """Map raw terms through the alias table; unknown terms pass through
    unchanged but are reported back as unmapped."""
    platforms, unmapped_p = table.normalize_terms("platform", set(raw.platforms_raw))
    services, unmapped_s = table.normalize_terms("service", set(raw.services_raw))
    languages, unmapped_l = table.normalize_terms("language", set(raw.languages_raw))
    return NormalizedExtraction(
        intent_text=raw.intent_summary.strip(),
        platforms=frozenset(platforms),
        services=frozenset(services),
        languages=frozenset(languages),
        unmapped={
            "platform": frozenset(unmapped_p),
            "service": frozenset(unmapped_s),
            "language": frozenset(unmapped_l),
        },
    )


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------

class ExtractionProvider(Protocol):
    """Answers extraction prompts; implementations are remote or fixture."""

    name: str
    model: str
    temperature: float

    def extract_quadruple(self, subject_id: str, prompt: str) -> str: ...

    def summarize_intent(self, subject_id: str, prompt: str) -> str: ...


class FixtureExtractionProvider:
    """Deterministic provider reading subject-id -> quadruple from a JSONL
    fixture file, enabling fully offline runs.

    Fixture rows: {"id", "intent_text", "platforms": [..], "services": [..],
    "languages": [..]}. Responses are rendered in the canonical four-section
    format so the parsing path is exercised end to end.
    """

    name = "fixture"
    model = "fixture"
    temperature = 0.0

    def __init__(self, path: str | Path):
        self._rows: dict[str, dict] = {}
        path = Path(path)
        if not path.is_file():
            raise ConfigurationError(f"fixture file not found: {path}")
        for line_no, line in jsonl_lines(path):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"fixture line {line_no}: invalid JSON: {exc.msg}"
                ) from exc
            self._rows[row["id"]] = row

    def _row(self, subject_id: str) -> dict:
        row = self._rows.get(subject_id)
        if row is None:
            raise ConfigurationError(f"fixture has no entry for '{subject_id}'")
        return row

    def extract_quadruple(self, subject_id: str, prompt: str) -> str:
        row = self._row(subject_id)
        return render_response(
            row["intent_text"],
            row.get("platforms", []),
            row.get("services", []),
            row.get("languages", []),
        )

    def summarize_intent(self, subject_id: str, prompt: str) -> str:
        return self._row(subject_id)["intent_text"]


class RemoteExtractionProvider:
    """Provider backed by a chat-completion gateway client."""

    name = "remote"

    def __init__(self, client):
        self.client = client
        self.model = client.config.model_name
        self.temperature = client.config.temperature

    def extract_quadruple(self, subject_id: str, prompt: str) -> str:
        return self.client.chat_complete(prompt)

    def summarize_intent(self, subject_id: str, prompt: str) -> str:
        return self.client.chat_complete(prompt)


# ---------------------------------------------------------------------------
# Extraction pipeline
# ---------------------------------------------------------------------------

DEFAULT_MAX_ATTEMPTS = 3


def extract(
    subject_id: str,
    subject_text: str,
    provider: ExtractionProvider,
    table: NormalizationTable,
    prompt_cfg: PromptConfig = DEFAULT_PROMPT,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    strict: bool = False,
) -> SemanticRepresentation:
    """build_prompt -> provider -> parse -> normalize, with retries.

    Returns a representation without an intent vector; embedding is a
    separate step. Malformed responses are retried up to max_attempts,
    then ExtractionFailedError carries the last raw response. Transport
    errors propagate as raised by the provider.
    """
    prompt = build_prompt(subject_text, prompt_cfg)
    last_response = ""
    for _attempt in range(max_attempts):
        last_response = provider.extract_quadruple(subject_id, prompt)
        try:
            raw = parse_extraction(last_response, strict=strict)
        except MalformedResponseError:
            continue
        norm = normalize(raw, table)
        return SemanticRepresentation(
            subject_id=subject_id,
            intent_text=norm.intent_text,
            intent_vector=None,
            platforms=norm.platforms,
            services=norm.services,
            languages=norm.languages,
            provenance=Provenance(provider.name, provider.model, provider.temperature),
        )
    raise ExtractionFailedError(subject_id, max_attempts, last_response)


def summarize_intent(
    subject_id: str, subject_text: str, provider: ExtractionProvider
) -> str:
    """Intent-summary-only extraction (used by the llm-variant baseline)."""
    prompt = build_intent_prompt(subject_text)
    summary = provider.summarize_intent(subject_id, prompt).strip()
    if not summary:
        raise ExtractionFailedError(subject_id, 1, summary)
    return summary


def extract_all(
    subjects: list[tuple[str, str]],
    provider: ExtractionProvider,
    table: NormalizationTable,
    prompt_cfg: PromptConfig = DEFAULT_PROMPT,
    concurrency: int = 4,
) -> tuple[dict[str, SemanticRepresentation], dict[str, Exception]]:
    """Extract many subjects with bounded concurrency.

    Returns (representations, failures); a failure on one subject never
    aborts the batch.
    """
    results: dict[str, SemanticRepresentation] = {}
    failures: dict[str, Exception] = {}

    def run(pair: tuple[str, str]):
        subject_id, text = pair
        return subject_id, extract(subject_id, text, provider, table, prompt_cfg)

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        futures = {pool.submit(run, pair): pair[0] for pair in subjects}
        for future, subject_id in futures.items():
            try:
                _sid, rep = future.result()
                results[subject_id] = rep
            except Exception as exc:  # collected, reported by the caller
                failures[subject_id] = exc
    return results, failures


# ---------------------------------------------------------------------------
# Representation store (JSONL)
# ---------------------------------------------------------------------------

def jsonl_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a JSONL file, read
    as a stream. Lines end at "\\n" only: str.splitlines would also split
    inside strings holding U+2028, U+2029 or U+0085, which JSON may carry
    unescaped."""
    with path.open(encoding="utf-8", newline="\n") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                yield line_no, line


def representation_to_dict(rep: SemanticRepresentation) -> dict:
    return {
        "id": rep.subject_id,
        "intent_text": rep.intent_text,
        "intent_vector": (
            None if rep.intent_vector is None else [float(x) for x in rep.intent_vector]
        ),
        "platforms": sorted(rep.platforms),
        "services": sorted(rep.services),
        "languages": sorted(rep.languages),
        "provenance": {
            "extractor": rep.provenance.extractor,
            "model": rep.provenance.model,
            "temperature": rep.provenance.temperature,
        },
    }


def _term_set(row: dict, key: str) -> frozenset[str]:
    terms = row.get(key, [])
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ConfigurationError(f"'{key}' must be a list of strings")
    return frozenset(terms)


def _vector(value) -> np.ndarray:
    try:
        vector = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"'intent_vector' is not a list of numbers: {exc}") from exc
    if vector.ndim != 1:
        raise ConfigurationError(f"'intent_vector' must be 1-D, not {vector.ndim}-D")
    return vector


def representation_from_dict(row: dict) -> SemanticRepresentation:
    """Inverse of representation_to_dict. Raises ConfigurationError for a
    row of the wrong shape and ValidationError for invalid values."""
    if not isinstance(row, dict):
        raise ConfigurationError("a row must be a JSON object")
    prov = row.get("provenance") or {}
    vector = row.get("intent_vector")
    return SemanticRepresentation(
        subject_id=row["id"],
        intent_text=row["intent_text"],
        intent_vector=None if vector is None else _vector(vector),
        platforms=_term_set(row, "platforms"),
        services=_term_set(row, "services"),
        languages=_term_set(row, "languages"),
        provenance=Provenance(
            prov.get("extractor", "unknown"),
            prov.get("model", "unknown"),
            float(prov.get("temperature", 0.0)),
        ),
    )


def save_representations(
    path: str | Path, reps: Iterable[SemanticRepresentation]
) -> None:
    rows = sorted(reps, key=lambda r: r.subject_id)
    lines = [json.dumps(representation_to_dict(r), ensure_ascii=False) for r in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_representations(path: str | Path) -> "RepresentationStore":
    """Read a JSONL store into a RepresentationStore. Raises
    ConfigurationError naming the first invalid line."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"representation store not found: {path}")
    reps: dict[str, SemanticRepresentation] = {}
    dims: set[int] = set()
    for line_no, line in jsonl_lines(path):
        try:
            rep = representation_from_dict(json.loads(line))
            if rep.intent_vector is not None:
                dims.add(len(rep.intent_vector))
                if len(dims) > 1:
                    raise ConfigurationError(f"intent vectors differ in length: {sorted(dims)}")
        except (json.JSONDecodeError, KeyError, ConfigurationError, ValidationError) as exc:
            raise ConfigurationError(
                f"representation store line {line_no} is invalid: {exc}"
            ) from exc
        reps[rep.subject_id] = rep
    return RepresentationStore(reps)


class RepresentationStore(Mapping[str, SemanticRepresentation]):
    """A read-only map from function id to representation, laid out in
    columns for matching. Iteration yields ids in ascending order.

    Rows are sorted by attribute set, level by level starting with the
    level that has the fewest distinct sets, then by id, so functions that
    share all three sets occupy consecutive rows. Per level, `codes[level]`
    gives each row's index into `sets[level]`, the level's distinct
    case-folded sets. `matrix` holds one read-only float64 row per
    function, and each stored representation's intent_vector is a view of
    its row, so every vector exists once. A function without a vector has
    a zero row and `has_vector` False; `dim` is None when no function has
    a vector.
    """

    def __init__(self, reps: Mapping[str, SemanticRepresentation]):
        ids = sorted(reps)
        folded = {
            level: [frozenset(t.casefold() for t in getattr(reps[fid], level)) for fid in ids]
            for level in LEVELS
        }
        self.sets: dict[str, list[frozenset[str]]] = {}
        codes: dict[str, np.ndarray] = {}
        for level in LEVELS:
            self.sets[level] = sorted(set(folded[level]), key=sorted)
            code_of = {s: code for code, s in enumerate(self.sets[level])}
            codes[level] = np.array([code_of[s] for s in folded[level]], dtype=np.intp)
        # lexsort's last key is the most significant; it is stable, and ids
        # are already ascending
        by_size = sorted(LEVELS, key=lambda level: len(self.sets[level]))
        order = np.lexsort([codes[level] for level in reversed(by_size)])
        self.codes = {level: codes[level][order] for level in LEVELS}
        self.row_ids = np.array(ids, dtype=object)[order]

        vectors = [reps[fid].intent_vector for fid in self.row_ids]
        shapes = {np.shape(v) for v in vectors if v is not None}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DimensionMismatchError(f"intent vectors differ in shape: {sorted(shapes)}")
        self.dim: int | None = shapes.pop()[0] if shapes else None
        self.has_vector = np.array([v is not None for v in vectors], dtype=bool)
        self.matrix = np.zeros((len(ids), self.dim or 0))
        for row in np.flatnonzero(self.has_vector):
            self.matrix[row] = vectors[row]
        self.matrix.flags.writeable = False

        self._row = {fid: row for row, fid in enumerate(self.row_ids)}
        self._reps = {}
        for fid in ids:
            rep, row = reps[fid], self._row[fid]
            if rep.intent_vector is not None:
                rep = replace(rep, intent_vector=self.matrix[row])
            self._reps[fid] = rep

    @classmethod
    def of(cls, reps: Mapping[str, SemanticRepresentation]) -> "RepresentationStore":
        """reps itself when it is a store, else a store built from it."""
        return reps if isinstance(reps, cls) else cls(reps)

    def __getitem__(self, fid: str) -> SemanticRepresentation:
        return self._reps[fid]

    def __iter__(self) -> Iterator[str]:
        return iter(self._reps)

    def __len__(self) -> int:
        return len(self._reps)

    def rows_of(self, ids: Iterable[str]) -> np.ndarray:
        """Ascending row numbers of the given ids; IntegrityError names an
        id the store does not hold."""
        try:
            rows = [self._row[fid] for fid in ids]
        except KeyError as exc:
            raise IntegrityError(
                f"function '{exc.args[0]}' is not in the representation store"
            ) from None
        return np.sort(np.array(rows, dtype=np.intp))
