"""Structured knowledge extraction: code or query text -> quadruple.

A four-part prompt (role + instruction, guideline notes, response-format
spec, subject) is sent to a pluggable provider; the labeled four-section
response is parsed into a raw quadruple, normalized through the alias
table, and packed into a SemanticRepresentation. A deterministic fixture
provider keyed by subject id makes the whole pipeline runnable offline.
"""

import hashlib
import json
import logging
import os
import re
import secrets
import stat
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Protocol

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

log = logging.getLogger(__name__)


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


def extract_completed(
    subjects: list[tuple[str, str]],
    provider: ExtractionProvider,
    table: NormalizationTable,
    prompt_cfg: PromptConfig = DEFAULT_PROMPT,
    concurrency: int = 4,
) -> Iterator[tuple[str, SemanticRepresentation | Exception]]:
    """Extract many subjects with bounded concurrency, yielding
    (subject id, representation or the exception it raised) as each
    finishes; a failure on one subject never aborts the rest.
    """

    def run(pair: tuple[str, str]) -> SemanticRepresentation:
        subject_id, text = pair
        return extract(subject_id, text, provider, table, prompt_cfg)

    pool = ThreadPoolExecutor(max_workers=max(1, concurrency))
    try:
        futures = {pool.submit(run, pair): pair[0] for pair in subjects}
        for future in as_completed(futures):
            try:
                outcome = future.result()
            except Exception as exc:  # collected, reported by the caller
                outcome = exc
            yield futures[future], outcome
    finally:
        # a consumer that stops early does not wait for the queued subjects
        pool.shutdown(cancel_futures=True)


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
    for subject_id, outcome in extract_completed(
        subjects, provider, table, prompt_cfg, concurrency
    ):
        if isinstance(outcome, Exception):
            failures[subject_id] = outcome
        else:
            results[subject_id] = outcome
    return results, failures


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def jsonl_lines(path: Path, digest=None) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a JSONL file, read
    as a stream. Lines end at "\\n" only: str.splitlines would also split
    inside strings holding U+2028, U+2029 or U+0085, which JSON may carry
    unescaped. A given hashlib digest is fed every byte read, blank lines
    included. ConfigurationError names a line that is not UTF-8."""
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            if digest is not None:
                digest.update(raw)
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"{path} line {line_no} is not UTF-8: {exc}") from exc
            if line.strip():
                yield line_no, line


def _file_sha256(fh: BinaryIO) -> str:
    """The sha256 of what is left to read of fh, read in 64 KiB chunks
    (hashlib.file_digest needs Python 3.11). A chunk stays below glibc's
    128 KiB mmap threshold: freeing a larger one raises that threshold,
    and with it the free heap memory the process keeps resident."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        digest.update(chunk)
    return digest.hexdigest()


def atomic_write(
    path: str | Path, write: Callable[[BinaryIO], object]
) -> tuple[int, str] | None:
    """Replace path by what write(fh) puts into a binary file, all or
    nothing, and return the size and sha256 of the bytes written.

    The bytes go to a new file in path's directory, which is flushed to
    disk and then renamed over path; the directory is flushed last, so
    that the rename survives a crash too (Pillai et al., "All File Systems
    Are Not Created Equal", OSDI 2014). If anything fails, path keeps its
    old bytes and the new file is removed. A replaced file keeps its
    permission bits, and a symlink's target is the file replaced.

    What cannot be replaced is written in place and None returned: a path
    that exists but is not a regular file (a device such as /dev/stdout,
    or a FIFO), and a file in a directory where no new file can be made.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        # opened by its own name: /dev/stdout's link resolves to no path
        # when stdout is a pipe
        return _write_in_place(Path(path), write)
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "xb")
    except PermissionError:
        if mode is None:
            raise
        return _write_in_place(path, write)
    try:
        with fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        # read back from this process's own file, so the digest is of
        # exactly these bytes even if another writer replaces path
        with open(tmp, "rb") as fh:
            digest = _file_sha256(fh)
            size = fh.tell()
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return size, digest


def _write_in_place(path: Path, write: Callable[[BinaryIO], object]) -> None:
    log.debug("writing %s in place: it cannot be replaced", path)
    with open(path, "wb") as fh:
        write(fh)


# ---------------------------------------------------------------------------
# Representation store: JSONL, plus a binary sidecar that caches it
# ---------------------------------------------------------------------------

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
    """Write the JSONL store, one row per function in id order, then its
    sidecar. Raises ValidationError, before writing, for a repeated id."""
    rows = {}
    for rep in sorted(reps, key=lambda r: r.subject_id):
        if rep.subject_id in rows:
            raise ValidationError(f"two representations of '{rep.subject_id}'")
        rows[rep.subject_id] = rep

    def write(fh: BinaryIO) -> None:
        for rep in rows.values():
            fh.write(json.dumps(representation_to_dict(rep), ensure_ascii=False).encode("utf-8"))
            fh.write(b"\n")

    written = atomic_write(path, write)
    if written is not None:  # a store written in place has no provable sidecar
        _write_sidecar(Path(path), RepresentationStore(rows), *written)


def load_representations(path: str | Path) -> "RepresentationStore":
    """Read a JSONL store into a RepresentationStore. Raises
    ConfigurationError naming the first invalid line, or both lines of a
    repeated id.

    The store comes from the sidecar when it provably matches the JSONL;
    otherwise the JSONL is parsed and the sidecar rewritten, as a best
    effort. Either way the result is the same.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"representation store not found: {path}")
    try:
        return _read_sidecar(path)
    except (OSError, EOFError, ValueError, LookupError, TypeError) as exc:
        log.debug("parsing %s: its sidecar is not usable: %s", path, exc)

    digest = hashlib.sha256()
    reps: dict[str, SemanticRepresentation] = {}
    line_of: dict[str, int] = {}
    dims: set[int] = set()
    for line_no, line in jsonl_lines(path, digest):
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
        first = line_of.setdefault(rep.subject_id, line_no)
        if first != line_no:
            raise ConfigurationError(
                f"representation store lines {first} and {line_no} both hold '{rep.subject_id}'"
            )
        reps[rep.subject_id] = rep
    store = RepresentationStore(reps)
    del reps  # the store holds copies; free the rows before the sidecar is written
    # the size is only a quick first check when the sidecar is read; the
    # digest is of the bytes parsed
    _write_sidecar(path, store, path.stat().st_size, digest.hexdigest())
    return store


SIDECAR_FORMAT = 1
_SUMS = re.compile(rb"([0-9a-f]{64})  meta\.json\n([0-9a-f]{64})  vectors\.npy\n")


def sidecar_dir(path: Path) -> Path:
    """The sidecar of the JSONL store at path: vectors.npy holds the
    matrix in row order, meta.json the JSONL's size and sha256 plus every
    other column, and SHA256SUMS (`sha256sum -c` format, written last)
    the digest of both. It is derived data: deleting it is safe."""
    return path.with_name(path.name + ".cache")


def _write_sidecar(path: Path, store: "RepresentationStore", size: int, sha256: str) -> None:
    """Write the sidecar of the store read from, or written to, path. An
    OSError is logged as a warning: the JSONL stays the store."""
    meta = json.dumps({
        "format": SIDECAR_FORMAT,
        "jsonl": {"size": size, "sha256": sha256},
        "ids": store.row_ids.tolist(),
        "intent_texts": store.intent_texts,
        "terms": {
            level: {"table": [sorted(s) for s in store.terms[level]],
                    "codes": store.term_codes[level].tolist()}
            for level in LEVELS
        },
        "provenance": {
            "table": [[p.extractor, p.model, p.temperature] for p in store.provenances],
            "codes": store.provenance_codes.tolist(),
        },
        "has_vector": store.has_vector.tolist(),
    }).encode("ascii")
    cache = sidecar_dir(path)
    try:
        cache.mkdir(exist_ok=True)
        vectors = atomic_write(
            cache / "vectors.npy", lambda fh: np.save(fh, store.matrix, allow_pickle=False)
        )
        meta_written = atomic_write(cache / "meta.json", lambda fh: fh.write(meta))
        if vectors is None or meta_written is None:
            raise OSError(f"{cache} holds a file that is not a regular file")
        sums = f"{meta_written[1]}  meta.json\n{vectors[1]}  vectors.npy\n".encode("ascii")
        atomic_write(cache / "SHA256SUMS", lambda fh: fh.write(sums))
    except OSError as exc:
        log.warning("could not write the sidecar of %s, the next load parses it again: %s",
                    path, exc)


def _read_sidecar(path: Path) -> "RepresentationStore":
    """The store held by path's sidecar. Raises ValueError when the sidecar
    does not provably match path: its format, the JSONL's size and sha256,
    the digest of each sidecar file and every vector's norm are checked."""
    cache = sidecar_dir(path)
    sums = _SUMS.fullmatch((cache / "SHA256SUMS").read_bytes())
    if sums is None:
        raise ValueError("SHA256SUMS is malformed")
    meta_bytes = (cache / "meta.json").read_bytes()
    if hashlib.sha256(meta_bytes).hexdigest().encode() != sums[1]:
        raise ValueError("meta.json does not match its digest")
    meta = json.loads(meta_bytes)
    if meta["format"] != SIDECAR_FORMAT:
        raise ValueError(f"sidecar format {meta['format']!r}, not {SIDECAR_FORMAT}")
    with path.open("rb") as fh:
        if (os.fstat(fh.fileno()).st_size != meta["jsonl"]["size"]
                or _file_sha256(fh) != meta["jsonl"]["sha256"]):
            raise ValueError("the JSONL changed after the sidecar was written")

    with (cache / "vectors.npy").open("rb") as fh:
        matrix = np.load(fh, allow_pickle=False)
        if matrix.dtype != np.float64 or matrix.ndim != 2 or not matrix.flags.c_contiguous:
            raise ValueError("vectors.npy does not hold a float64 matrix")
        if fh.read(1):
            raise ValueError("vectors.npy has bytes after its matrix")
        # the file is its header plus the matrix's bytes: hash those rather
        # than read the file twice
        header_len = fh.tell() - matrix.nbytes
        fh.seek(0)
        digest = hashlib.sha256(fh.read(header_len))
    digest.update(matrix)
    if digest.hexdigest().encode() != sums[2]:
        raise ValueError("vectors.npy does not match its digest")

    ids = meta["ids"]
    has_vector = np.array(meta["has_vector"], dtype=bool)
    if not len(ids) == len(has_vector) == len(matrix):
        raise ValueError("the sidecar's columns differ in length")
    norms = np.sqrt(np.vecdot(matrix, matrix))
    if not np.all(np.where(has_vector, np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE, norms == 0.0)):
        raise ValueError("a vector of the sidecar is not unit-norm")

    def decoded(doc: dict, make) -> tuple[list, np.ndarray]:
        return [make(entry) for entry in doc["table"]], np.array(doc["codes"], dtype=np.intp)

    store = RepresentationStore.__new__(RepresentationStore)
    store._lay_out(
        ids,
        meta["intent_texts"],
        {level: decoded(meta["terms"][level], frozenset) for level in LEVELS},
        decoded(meta["provenance"], lambda entry: Provenance(*entry)),
        has_vector,
        matrix,
        matrix.shape[1] if has_vector.any() else None,
    )
    return store


def _table(values: list) -> tuple[list, np.ndarray]:
    """The distinct values, in first-seen order, and each value's index
    into them."""
    index: dict = {}
    codes = [index.setdefault(value, len(index)) for value in values]
    return list(index), np.array(codes, dtype=np.intp)


class RepresentationStore(Mapping[str, SemanticRepresentation]):
    """A read-only map from function id to representation, laid out in
    columns for matching. Iteration yields ids in ascending order.

    Rows are sorted by attribute set, level by level starting with the
    level that has the fewest distinct sets, then by id, so functions that
    share all three sets occupy consecutive rows. Per level, `codes[level]`
    gives each row's index into `sets[level]`, the level's distinct
    case-folded sets, and `term_codes[level]` its index into
    `terms[level]`, the distinct sets as written. `matrix` holds one
    read-only float64 row per function; a function without a vector has a
    zero row and `has_vector` False, and `dim` is None when no function
    has a vector. A representation is built on first access, its
    intent_vector a view of its matrix row, and kept.
    """

    def __init__(self, reps: Mapping[str, SemanticRepresentation]):
        ids = list(reps)
        rows = [reps[fid] for fid in ids]
        vectors = [rep.intent_vector for rep in rows]
        shapes = {np.shape(v) for v in vectors if v is not None}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DimensionMismatchError(f"intent vectors differ in shape: {sorted(shapes)}")
        self._lay_out(
            ids,
            [rep.intent_text for rep in rows],
            {level: _table([getattr(rep, level) for rep in rows]) for level in LEVELS},
            _table([rep.provenance for rep in rows]),
            np.array([v is not None for v in vectors], dtype=bool),
            vectors,
            shapes.pop()[0] if shapes else None,
        )

    def _lay_out(self, ids, intent_texts, terms, provenance, has_vector, vectors, dim) -> None:
        """Order the columns into the store's rows. The columns come in any
        row order. Each level of terms, and provenance, is a pair: a table
        of distinct values and one code per row. vectors[i] is row i's
        vector, unused where has_vector[i] is False."""
        n = len(ids)
        self.sets: dict[str, list[frozenset[str]]] = {}
        codes: dict[str, np.ndarray] = {}
        for level in LEVELS:
            table, table_codes = terms[level]
            folded = [frozenset(t.casefold() for t in terms_) for terms_ in table]
            self.sets[level] = sorted(set(folded), key=sorted)
            code_of = {s: code for code, s in enumerate(self.sets[level])}
            codes[level] = np.array([code_of[s] for s in folded], dtype=np.intp)[table_codes]
        # lexsort's last key is the most significant, and it is stable
        by_id = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.intp)
        by_size = sorted(LEVELS, key=lambda level: len(self.sets[level]))
        order = by_id[np.lexsort([codes[level][by_id] for level in reversed(by_size)])]

        self.codes = {level: codes[level][order] for level in LEVELS}
        self.terms = {level: terms[level][0] for level in LEVELS}
        self.term_codes = {level: terms[level][1][order] for level in LEVELS}
        self.provenances = provenance[0]
        self.provenance_codes = provenance[1][order]
        self.row_ids = np.array(ids, dtype=object)[order]
        self.intent_texts = [intent_texts[i] for i in order.tolist()]
        self.has_vector = has_vector[order]
        self.dim: int | None = dim
        if isinstance(vectors, np.ndarray) and np.array_equal(order, np.arange(n)):
            self.matrix = vectors
        else:
            self.matrix = np.zeros((n, dim or 0))
            for row in np.flatnonzero(self.has_vector).tolist():
                self.matrix[row] = vectors[order[row]]
        self.matrix.flags.writeable = False

        self._row = {fid: row for row, fid in enumerate(self.row_ids.tolist())}
        if len(self._row) != n:
            raise ValidationError("a representation store holds each id once")
        self._ids = [ids[i] for i in by_id.tolist()]
        self._reps: dict[str, SemanticRepresentation] = {}

    @classmethod
    def of(cls, reps: Mapping[str, SemanticRepresentation]) -> "RepresentationStore":
        """reps itself when it is a store, else a store built from it."""
        return reps if isinstance(reps, cls) else cls(reps)

    def __getitem__(self, fid: str) -> SemanticRepresentation:
        rep = self._reps.get(fid)
        if rep is None:
            row = self._row[fid]
            rep = self._reps[fid] = SemanticRepresentation(
                subject_id=fid,
                intent_text=self.intent_texts[row],
                intent_vector=self.matrix[row] if self.has_vector[row] else None,
                platforms=self.terms["platforms"][self.term_codes["platforms"][row]],
                services=self.terms["services"][self.term_codes["services"][row]],
                languages=self.terms["languages"][self.term_codes["languages"][row]],
                provenance=self.provenances[self.provenance_codes[row]],
            )
        return rep

    def __contains__(self, fid) -> bool:
        return fid in self._row

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

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
