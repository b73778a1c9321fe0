"""Reusable serverless-function repository: ingestion, filtering, persistence.

The on-disk corpus is a JSONL manifest (one record per function) beside a
directory tree of source files. Manifest record shape:

    {"id": "...", "name": "...", "origin": "...", "paths": ["rel/path", ...],
     "readme_path": "rel/path"?, "language_hint": "python"?}

A persisted repository is a single JSON document {"version": int,
"units": [...]} with file contents inlined as UTF-8 strings.
"""

import json
import posixpath
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import (
    ConfigurationError,
    CorpusIOError,
    DuplicateIdError,
    ManifestError,
    RepositoryFormatError,
    ValidationError,
)
from .extraction import atomic_write, jsonl_lines


@dataclass(frozen=True)
class FunctionUnit:
    """One reusable serverless function: source files plus provenance."""

    id: str
    name: str
    origin: str
    files: tuple[tuple[str, str], ...]
    readme_text: str | None = None
    language_hint: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValidationError("function unit id must be non-empty")
        if not self.files:
            raise ValidationError(f"unit '{self.id}' has no files")
        for path, _content in self.files:
            if not _is_safe_relative(path):
                raise ValidationError(
                    f"unit '{self.id}': path '{path}' must be relative and "
                    "must not escape the corpus root"
                )

    def code_text(self) -> str:
        """All source file contents joined; the extraction subject."""
        return "\n".join(content for _path, content in self.files)

    def keyword_text(self) -> str:
        """Code plus readme, for bag-of-words matching."""
        parts = [content for _path, content in self.files]
        if self.readme_text:
            parts.append(self.readme_text)
        return "\n".join(parts)

    def document_text(self) -> str:
        """Name, readme and source as one document, for whole-text embedding."""
        parts = [self.name]
        if self.readme_text:
            parts.append(self.readme_text)
        parts.extend(content for _path, content in self.files)
        return "\n".join(parts)


def _is_safe_relative(path: str) -> bool:
    if not path or posixpath.isabs(path) or Path(path).is_absolute():
        return False
    return ".." not in Path(path).parts


@dataclass(frozen=True)
class Repository:
    """Immutable id-keyed collection of function units.

    Mutations return a new instance with the version bumped; sharing a
    repository across threads read-only is safe.
    """

    units: dict[str, FunctionUnit] = field(default_factory=dict)
    version: int = 0

    def __len__(self) -> int:
        return len(self.units)

    def ids(self) -> list[str]:
        return sorted(self.units)


# ---------------------------------------------------------------------------
# Quality filtering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterConfig:
    """Thresholds and patterns for trivial/benchmark rejection.

    The defaults are deliberately conservative; load_filter_config can
    override any field from a JSON file.
    """

    max_trivial_lines: int = 3
    hello_patterns: tuple[str, ...] = ("hello world", "helloworld")
    benchmark_patterns: tuple[str, ...] = (
        "benchmark", "load_test", "measure", "orchestrat",
    )
    handler_patterns: tuple[str, ...] = (
        r"def\s+(lambda_)?handler",
        r"exports\.handler",
        r"module\.exports",
        r"functionhandler",
        r"func\s+handle\w*\s*\(",
        r"\bhandler\s*[:=]",
        r"def\s+main\s*\(",
    )
    comment_prefixes: tuple[str, ...] = ("#", "//", "--", ";", "*", "/*", "*/")
    return_print_patterns: tuple[str, ...] = (
        r"return\b",
        r"print\s*\(",
        r"console\.(log|info|warn|error)\b",
        r"system\.out\.print",
        r"fmt\.print",
        r"echo\b",
        r"puts\b",
        r"std::cout",
    )
    # lines that shape code but carry no task logic of their own
    structural_prefixes: tuple[str, ...] = (
        "def ", "class ", "function ", "func ", "fn ", "public ", "private ",
        "protected ", "static ", "export ", "import ", "from ", "package ",
        "using ", "namespace ", "@", "module ", "require(", "const ", "let ",
        "var ", "async ",
    )


def load_filter_config(path: str | Path) -> FilterConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read filter config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid filter config {path}: {exc}") from exc
    known = {f for f in FilterConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(
            f"unknown filter config keys: {', '.join(sorted(unknown))}"
        )
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in raw.items()
    }
    return replace(FilterConfig(), **kwargs)


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    rule: str | None = None  # "trivial" or "benchmark" when rejected


def _effective_lines(unit: FunctionUnit, cfg: FilterConfig) -> list[str]:
    lines = []
    for _path, content in unit.files:
        for line in content.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if any(stripped.startswith(p) for p in cfg.comment_prefixes):
                continue
            lines.append(stripped)
    return lines


def _statement_lines(lines: list[str], cfg: FilterConfig) -> list[str]:
    statements = []
    for line in lines:
        if re.fullmatch(r"[{}()\[\];,]*", line):
            continue
        lowered = line.lower()
        if any(lowered.startswith(p) for p in cfg.structural_prefixes):
            continue
        statements.append(line)
    return statements


def _matches_hello(unit: FunctionUnit, cfg: FilterConfig) -> bool:
    blobs = [unit.name] + [content for _path, content in unit.files]
    for blob in blobs:
        folded = blob.casefold()
        collapsed = re.sub(r"[\s_\-]+", "", folded)
        for pattern in cfg.hello_patterns:
            if pattern in folded or pattern.replace(" ", "") in collapsed:
                return True
    return False


def _has_handler(unit: FunctionUnit, cfg: FilterConfig) -> bool:
    for _path, content in unit.files:
        folded = content.casefold()
        for pattern in cfg.handler_patterns:
            if re.search(pattern, folded):
                return True
    return False


def filter_unit(unit: FunctionUnit, cfg: FilterConfig | None = None) -> FilterDecision:
    """Decide keep/reject for one unit. Total and deterministic.

    Rejects as "trivial" hello-world samples, units with at most
    max_trivial_lines effective source lines, and bodies made solely of
    return/print statements. Rejects as "benchmark" measurement or
    orchestration scripts that expose no handler entry point.
    """
    cfg = cfg or FilterConfig()

    if _matches_hello(unit, cfg):
        return FilterDecision(False, "trivial")
    effective = _effective_lines(unit, cfg)
    if len(effective) <= cfg.max_trivial_lines:
        return FilterDecision(False, "trivial")
    statements = _statement_lines(effective, cfg)
    if statements and all(
        any(re.match(p, s.lower()) for p in cfg.return_print_patterns)
        for s in statements
    ):
        return FilterDecision(False, "trivial")

    haystacks = [unit.name.casefold()] + [p.casefold() for p, _ in unit.files]
    looks_benchmark = any(
        pattern in hay for pattern in cfg.benchmark_patterns for hay in haystacks
    )
    if looks_benchmark and not _has_handler(unit, cfg):
        return FilterDecision(False, "benchmark")

    return FilterDecision(True, None)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rejection:
    unit_id: str
    rule: str


@dataclass(frozen=True)
class IngestResult:
    repository: "Repository"
    rejections: list[Rejection]


_REQUIRED_MANIFEST_KEYS = ("id", "name", "origin", "paths")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusIOError(str(path), str(exc)) from exc


def _unit_from_entry(entry: dict, base_dir: Path, line: int) -> FunctionUnit:
    for key in _REQUIRED_MANIFEST_KEYS:
        if key not in entry:
            raise ManifestError(f"missing required key '{key}'", line)
    paths = entry["paths"]
    if not isinstance(paths, list) or not paths:
        raise ManifestError("'paths' must be a non-empty list", line)
    files = tuple((p, _read_text(base_dir / p)) for p in paths)
    readme_text = None
    if entry.get("readme_path"):
        readme_text = _read_text(base_dir / entry["readme_path"])
    try:
        return FunctionUnit(
            id=entry["id"],
            name=entry["name"],
            origin=entry["origin"],
            files=files,
            readme_text=readme_text,
            language_hint=entry.get("language_hint"),
        )
    except ValidationError as exc:
        raise ManifestError(str(exc), line) from exc


def ingest_corpus(
    manifest_path: str | Path,
    filter_config: FilterConfig | None = None,
) -> IngestResult:
    """Build a repository from a JSONL manifest, applying quality filters.

    Source paths are resolved relative to the manifest's directory. Entries
    rejected by filter_unit are reported with the rejecting rule's name,
    never silently dropped.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ConfigurationError(f"manifest not found: {manifest_path}")
    base_dir = manifest_path.parent

    units: list[FunctionUnit] = []
    seen: set[str] = set()
    for line_no, raw_line in jsonl_lines(manifest_path):
        try:
            entry = json.loads(raw_line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"invalid JSON: {exc.msg}", line_no) from exc
        if not isinstance(entry, dict):
            raise ManifestError("entry must be a JSON object", line_no)
        unit = _unit_from_entry(entry, base_dir, line_no)
        if unit.id in seen:
            raise DuplicateIdError([unit.id])
        seen.add(unit.id)
        units.append(unit)

    result = batch_add(Repository(), units, filter_config)
    return IngestResult(result.repository, result.rejections)


@dataclass(frozen=True)
class BatchAddResult:
    repository: "Repository"
    added: list[str]
    rejections: list[Rejection]


def batch_add(
    repo: Repository,
    new_units: list[FunctionUnit],
    filter_config: FilterConfig | None = None,
) -> BatchAddResult:
    """Filter and append new units, bumping the version exactly once.

    Atomic: any id collision (against the repository or within the batch)
    raises before anything is applied.
    """
    colliding = [u.id for u in new_units if u.id in repo.units]
    batch_ids = [u.id for u in new_units]
    colliding += [i for i in set(batch_ids) if batch_ids.count(i) > 1]
    if colliding:
        raise DuplicateIdError(colliding)

    kept = dict(repo.units)
    added: list[str] = []
    rejections: list[Rejection] = []
    for unit in new_units:
        decision = filter_unit(unit, filter_config)
        if decision.keep:
            kept[unit.id] = unit
            added.append(unit.id)
        else:
            rejections.append(Rejection(unit.id, decision.rule))
    return BatchAddResult(Repository(kept, repo.version + 1), added, rejections)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def persist(repo: Repository) -> bytes:
    """Serialize a repository to a single JSON document (UTF-8 bytes)."""
    doc = {
        "version": repo.version,
        "units": [
            {
                "id": unit.id,
                "name": unit.name,
                "origin": unit.origin,
                "files": [[path, content] for path, content in unit.files],
                "readme_text": unit.readme_text,
                "language_hint": unit.language_hint,
            }
            for unit in (repo.units[i] for i in repo.ids())
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=1).encode("utf-8")


def save(repo: Repository, path: str | Path) -> None:
    data = persist(repo)
    atomic_write(path, lambda fh: fh.write(data))


def load(path: str | Path) -> Repository:
    """Load a repository produced by persist; inverse up to field equality."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read repository {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise RepositoryFormatError("repository is not UTF-8", exc.start) from exc
    except json.JSONDecodeError as exc:
        raise RepositoryFormatError(f"invalid JSON: {exc.msg}", exc.pos) from exc

    if not isinstance(doc, dict) or "version" not in doc or "units" not in doc:
        raise RepositoryFormatError("missing 'version' or 'units'")
    units: dict[str, FunctionUnit] = {}
    for raw in doc["units"]:
        try:
            unit = FunctionUnit(
                id=raw["id"],
                name=raw["name"],
                origin=raw["origin"],
                files=tuple((p, c) for p, c in raw["files"]),
                readme_text=raw.get("readme_text"),
                language_hint=raw.get("language_hint"),
            )
        except (KeyError, TypeError, ValidationError) as exc:
            raise RepositoryFormatError(f"invalid unit record: {exc}") from exc
        if unit.id in units:
            raise DuplicateIdError([unit.id])
        units[unit.id] = unit
    return Repository(units, doc["version"])
