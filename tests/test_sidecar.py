"""The store's binary sidecar and the atomic writes under it.

The JSONL store is canonical; `<store>.cache/` holds the same columns in
binary and is read only when it provably matches the JSONL. These tests
check that a store read from the sidecar equals the parsed one, that any
sidecar the loader cannot trust only costs a parse, and that a write
interrupted part-way leaves the old file intact.
"""

import builtins
import hashlib
import io
import json
import logging
import os
import shutil
import stat
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import DEMO_FIXTURES, DEMO_QUERIES, write_demo_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from slsrec import corpus, extraction
from slsrec.cli import main
from slsrec.extraction import (
    LEVELS,
    Provenance,
    SemanticRepresentation,
    load_representations,
    representation_to_dict,
    save_representations,
    sidecar_dir,
)

TERMS = {
    "platforms": ["AWS Lambda", "aws lambda", "Azure Functions"],
    "services": ["AWS S3", "aws s3", "AWS DynamoDB", "Google Firestore", "AWS SNS"],
    "languages": ["Python", "python", "C#", "JavaScript"],
}
PROVENANCES = [Provenance("fixture", "fixture", 0.0), Provenance("remote", "gpt-4o", 0.7)]
VECTORS = [np.eye(4)[i] for i in range(4)] + [np.full(4, 0.5)]


@st.composite
def stores(draw):
    ids = draw(st.lists(st.text(alphabet="abcXYZ-_0", min_size=1, max_size=6),
                        max_size=25, unique=True))
    reps = []
    for fid in ids:
        vector = draw(st.sampled_from([None, *VECTORS]))
        reps.append(SemanticRepresentation(
            subject_id=fid,
            intent_text=draw(st.text(alphabet="resize\u2028\u2029\x85 é", max_size=12)),
            intent_vector=vector,
            **{level: frozenset(draw(st.lists(st.sampled_from(TERMS[level]), max_size=3)))
               for level in LEVELS},
            provenance=draw(st.sampled_from(PROVENANCES)),
        ))
    return reps


def parsed(path: Path):
    """The store as a parse of the JSONL alone, from a copy with no sidecar."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / path.name
        shutil.copyfile(path, copy)
        return load_representations(copy)


def cached(path: Path):
    """The store read from the sidecar; fails if the JSONL would be parsed."""
    with mock.patch.object(extraction, "jsonl_lines", side_effect=AssertionError("parsed")):
        return load_representations(path)


def assert_same_store(got, want):
    assert list(got) == list(want)
    assert got.row_ids.tolist() == want.row_ids.tolist()
    for level in LEVELS:
        assert got.sets[level] == want.sets[level]
        assert got.codes[level].tolist() == want.codes[level].tolist()
    assert got.has_vector.tolist() == want.has_vector.tolist()
    assert got.dim == want.dim
    assert got.matrix.dtype == want.matrix.dtype == np.float64
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert not got.matrix.flags.writeable
    for fid in want:
        assert representation_to_dict(got[fid]) == representation_to_dict(want[fid])


@settings(max_examples=60, deadline=None)
@given(stores())
def test_cached_store_equals_parsed_store(reps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        save_representations(path, reps)
        from_sidecar = cached(path)
        from_jsonl = parsed(path)
        assert_same_store(from_sidecar, from_jsonl)
        assert {fid: representation_to_dict(from_sidecar[fid]) for fid in from_sidecar} == \
            {rep.subject_id: representation_to_dict(rep) for rep in reps}


@pytest.fixture
def store_path(tmp_path, golden_reps):
    path = tmp_path / "store.jsonl"
    save_representations(path, golden_reps.values())
    return path


def _flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _edit_one_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    row = json.loads(lines[1])
    row["intent_text"] = "X" + row["intent_text"][1:]
    lines[1] = json.dumps(row, ensure_ascii=False)
    path.write_text("\n".join(lines), encoding="utf-8")


def _stale_format(path: Path) -> None:
    # a well-formed sidecar with correct digests, of another format
    cache = sidecar_dir(path)
    meta = json.loads((cache / "meta.json").read_bytes())
    meta["format"] = extraction.SIDECAR_FORMAT + 1
    (cache / "meta.json").write_bytes(json.dumps(meta).encode())
    sums = "".join(f"{hashlib.sha256((cache / name).read_bytes()).hexdigest()}  {name}\n"
                   for name in ("meta.json", "vectors.npy"))
    (cache / "SHA256SUMS").write_text(sums)


SPOILERS = {
    "flipped-SHA256SUMS": lambda p: _flip(sidecar_dir(p) / "SHA256SUMS", 5),
    "flipped-meta": lambda p: _flip(sidecar_dir(p) / "meta.json", 40),
    "flipped-meta-last-byte": lambda p: _flip(sidecar_dir(p) / "meta.json", -1),
    "flipped-vectors-header": lambda p: _flip(sidecar_dir(p) / "vectors.npy", 20),
    "flipped-vectors-data": lambda p: _flip(sidecar_dir(p) / "vectors.npy", -9),
    "truncated-vectors": lambda p: (sidecar_dir(p) / "vectors.npy").write_bytes(
        (sidecar_dir(p) / "vectors.npy").read_bytes()[:-8]),
    "same-size-jsonl-edit": _edit_one_row,
    "stale-format": _stale_format,
    "deleted-sidecar": lambda p: shutil.rmtree(sidecar_dir(p)),
}


@pytest.mark.parametrize("spoil", list(SPOILERS.values()), ids=list(SPOILERS))
def test_untrusted_sidecar_falls_back_to_the_parse(store_path, spoil):
    size = store_path.stat().st_size
    spoil(store_path)
    if spoil is _edit_one_row:
        assert store_path.stat().st_size == size
    with mock.patch.object(extraction, "representation_from_dict",
                           wraps=extraction.representation_from_dict) as parse_row:
        store = load_representations(store_path)
    assert parse_row.called
    assert_same_store(store, parsed(store_path))
    # the parse rewrote the sidecar, and it is trusted again
    assert_same_store(cached(store_path), store)


def test_unwritable_sidecar_warns_and_loads(store_path, monkeypatch, caplog):
    shutil.rmtree(sidecar_dir(store_path))
    mkdir = Path.mkdir

    def read_only(self, *args, **kwargs):
        if self == sidecar_dir(store_path):
            raise PermissionError(13, "Read-only file system", str(self))
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", read_only)
    with caplog.at_level(logging.WARNING, logger="slsrec.extraction"):
        store = load_representations(store_path)
    assert "could not write the sidecar" in caplog.text
    assert not sidecar_dir(store_path).exists()
    monkeypatch.undo()
    assert_same_store(store, parsed(store_path))


def test_store_reads_each_representation_once(store_path):
    store = cached(store_path)
    fid = next(iter(store))
    assert store[fid] is store[fid]
    assert store[fid].intent_vector.base is not None  # a view of the matrix row
    assert "absent" not in store
    with pytest.raises(KeyError):
        store["absent"]


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------

class CrashingFile:
    """A file whose writes fail once a byte budget shared by all the
    files opened for writing is spent, after writing what fits."""

    def __init__(self, fh, budget: list[int]):
        self._fh, self._budget = fh, budget

    def write(self, data):
        if len(data) > self._budget[0]:
            self._fh.write(data[:self._budget[0]])
            self._fh.flush()
            self._budget[0] = 0
            raise OSError("simulated crash in the middle of a write")
        self._budget[0] -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def crash_after(monkeypatch):
    """crash_after(n): from now on, writing a file fails after n bytes."""
    real_open = io.open

    def arm(n_bytes: int):
        budget = [n_bytes]

        def crashing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return fh if set(mode) <= {"r", "b", "t"} else CrashingFile(fh, budget)

        monkeypatch.setattr(io, "open", crashing_open)
        monkeypatch.setattr(builtins, "open", crashing_open)

    return arm


def _save_store(path, golden_reps):
    reps = list(golden_reps.values())
    save_representations(path, reps[:-1])
    return lambda: save_representations(path, reps)


def _save_repository(path, golden_reps):
    units = [corpus.FunctionUnit(f"u{i}", f"unit {i}", "test", (("f.py", "x = 1\n" * i),))
             for i in range(1, 4)]
    corpus.save(corpus.Repository({u.id: u for u in units[:-1]}), path)
    return lambda: corpus.save(corpus.Repository({u.id: u for u in units}), path)


def _write_report(path, golden_reps):
    work = path.parent
    repo, store = work / "repo.json", work / "reprs.jsonl"
    fixtures, dataset = work / "fixtures.jsonl", work / "queries.jsonl"
    fixtures.write_text("".join(json.dumps(r) + "\n" for r in DEMO_FIXTURES), encoding="utf-8")
    dataset.write_text("".join(json.dumps(q) + "\n" for q in DEMO_QUERIES), encoding="utf-8")
    flags = ["--extractor", "fixture", "--fixture-file", str(fixtures),
             "--embedder", "deterministic"]
    runner = CliRunner()
    for args in (["ingest", "--manifest", write_demo_corpus(work), "--out", str(repo)],
                 ["extract", "--repo", str(repo), "--reprs", str(store), *flags]):
        assert runner.invoke(main, args).exit_code == 0
    evaluate = ["evaluate", "--dataset", str(dataset), "--repo", str(repo), "--reprs", str(store),
                "--repetitions", "1", "--report", str(path), *flags]
    assert runner.invoke(main, evaluate).exit_code == 0
    return lambda: runner.invoke(main, [*evaluate, "--method", "all"], catch_exceptions=False)


@pytest.mark.parametrize("writer", [_save_store, _save_repository, _write_report],
                         ids=["store", "repository", "report"])
def test_crash_mid_write_keeps_the_old_file(tmp_path, golden_reps, crash_after, writer):
    path = tmp_path / "target"
    rewrite = writer(path, golden_reps)
    old = path.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())
    crash_after(len(old) // 2)
    with pytest.raises(OSError, match="simulated crash"):
        rewrite()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


@pytest.mark.parametrize("writer", [_save_store, _save_repository, _write_report],
                         ids=["store", "repository", "report"])
def test_write_through_a_symlink_replaces_its_target(tmp_path, golden_reps, writer):
    (tmp_path / "real").mkdir()
    path = tmp_path / "target"
    path.symlink_to(tmp_path / "real" / "target")
    rewrite = writer(path, golden_reps)
    old = path.read_bytes()
    rewrite()
    assert path.is_symlink()
    assert path.read_bytes() != old
    assert path.read_bytes() == (tmp_path / "real" / "target").read_bytes()
    assert [p.name for p in (tmp_path / "real").iterdir()] == ["target"]


def test_write_to_a_fifo_writes_in_place(tmp_path):
    fifo, link = tmp_path / "fifo", tmp_path / "out"
    os.mkfifo(fifo)
    link.symlink_to(fifo)  # as /dev/stdout links to the process's descriptor
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert extraction.atomic_write(link, lambda fh: fh.write(b"report\n")) is None
        assert os.read(reader, 100) == b"report\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "out"]


def test_write_to_a_pipe_through_proc_writes_in_place():
    # what --report /dev/stdout opens when stdout is a pipe
    read_end, write_end = os.pipe()
    try:
        path = f"/proc/self/fd/{write_end}"
        assert extraction.atomic_write(path, lambda fh: fh.write(b"report\n")) is None
        assert os.read(read_end, 100) == b"report\n"
    finally:
        os.close(read_end)
        os.close(write_end)


def test_write_in_a_directory_without_write_permission(tmp_path, monkeypatch):
    # root writes through permission bits, so the directory's refusal is
    # simulated where the temporary file is made
    def no_new_files(file, mode="r", *args, **kwargs):
        if "x" in mode:
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, mode, *args, **kwargs)

    path = tmp_path / "report.json"
    path.write_bytes(b"old")
    monkeypatch.setattr(extraction, "open", no_new_files, raising=False)
    assert extraction.atomic_write(path, lambda fh: fh.write(b"new")) is None
    assert path.read_bytes() == b"new"
    with pytest.raises(PermissionError):
        extraction.atomic_write(tmp_path / "absent.json", lambda fh: fh.write(b"new"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_store_round_trip_without_hashlib_file_digest(tmp_path, golden_reps, monkeypatch):
    # hashlib.file_digest is new in Python 3.11; the package supports 3.10
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    path = tmp_path / "store.jsonl"
    save_representations(path, golden_reps.values())
    from_sidecar = cached(path)
    shutil.rmtree(sidecar_dir(path))
    from_jsonl = load_representations(path)
    assert sidecar_dir(path).is_dir()
    assert_same_store(from_sidecar, from_jsonl)
    assert_same_store(cached(path), from_jsonl)
    corpus.save(corpus.Repository({}), tmp_path / "repo.json")
