import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slsrec.errors import (
    ConfigurationError,
    ExtractionFailedError,
    MalformedResponseError,
    ValidationError,
)
from slsrec.extraction import (
    DEFAULT_PROMPT,
    FixtureExtractionProvider,
    PromptConfig,
    Provenance,
    RawExtraction,
    RepresentationStore,
    SemanticRepresentation,
    build_intent_prompt,
    build_prompt,
    extract,
    extract_all,
    load_representations,
    normalize,
    parse_extraction,
    render_response,
    representation_to_dict,
    save_representations,
    summarize_intent,
)
from slsrec.corpus import ingest_corpus
from slsrec.evaluation import load_query_dataset
from slsrec.normalization import NormalizationTable

from conftest import QUERY_ID, QUERY_TEXT, S3_TAGGER_CS

CASES_DIR = Path(__file__).parent / "data" / "extraction_cases"


# ---------------------------------------------------------------------------
# build_prompt
# ---------------------------------------------------------------------------

def test_prompt_contains_four_parts_in_order_then_subject():
    prompt = build_prompt(S3_TAGGER_CS)
    positions = [
        prompt.index(DEFAULT_PROMPT.role_preamble),
        prompt.index(DEFAULT_PROMPT.task_instruction),
        prompt.index(DEFAULT_PROMPT.guideline_notes),
        prompt.index(DEFAULT_PROMPT.response_format_spec),
        prompt.index(S3_TAGGER_CS),
    ]
    assert positions == sorted(positions)
    assert prompt.endswith(S3_TAGGER_CS)


def test_prompt_default_wording_covers_the_essentials():
    prompt = build_prompt("subject")
    assert "You are an expert writing serverless functions." in prompt
    assert "AWS Lambda" in prompt and "Google Cloud Functions" in prompt
    assert "AWS S3" in prompt and "Google Firestore" in prompt
    assert "Python" in prompt and "JavaScript" in prompt
    assert "development framework rather than a" in prompt
    assert "implies the corresponding serverless platform" in prompt
    assert 'Return "None"' in prompt


def test_prompt_is_identical_template_for_query_text():
    code_prompt = build_prompt(S3_TAGGER_CS)
    query_prompt = build_prompt(QUERY_TEXT)
    assert code_prompt.removesuffix(S3_TAGGER_CS) == query_prompt.removesuffix(QUERY_TEXT)


def test_prompt_rejects_empty_subject_and_empty_parts():
    with pytest.raises(ValidationError):
        build_prompt("   ")
    crippled = PromptConfig(
        role_preamble=DEFAULT_PROMPT.role_preamble,
        task_instruction=DEFAULT_PROMPT.task_instruction,
        guideline_notes="",
        response_format_spec=DEFAULT_PROMPT.response_format_spec,
    )
    with pytest.raises(ValidationError, match="guideline_notes"):
        build_prompt("subject", crippled)


def test_intent_prompt_is_minimal():
    prompt = build_intent_prompt("some code")
    assert prompt.endswith("some code")
    assert "four labeled sections" not in prompt


# ---------------------------------------------------------------------------
# parse_extraction, golden files
# ---------------------------------------------------------------------------

def test_parse_worked_example():
    raw = parse_extraction((CASES_DIR / "wellformed_basic.txt").read_text())
    assert raw.platforms_raw == frozenset({"AWS Lambda"})
    assert raw.services_raw == frozenset({"AWS S3", "AWS Rekognition"})
    assert raw.languages_raw == frozenset({"C#"})
    assert raw.intent_summary.startswith("The code defines a serverless function")


def load_golden_cases():
    expected = json.loads((CASES_DIR / "expected.json").read_text())
    return sorted(expected.items())


@pytest.mark.parametrize("name,expect", load_golden_cases())
def test_golden_response_cases(name, expect):
    response = (CASES_DIR / f"{name}.txt").read_text()
    if "error" in expect:
        with pytest.raises(MalformedResponseError) as err:
            parse_extraction(response)
        assert err.value.missing_label == expect["error"]
    else:
        raw = parse_extraction(response)
        assert raw.intent_summary == expect["intent_summary"]
        assert raw.platforms_raw == frozenset(expect["platforms"])
        assert raw.services_raw == frozenset(expect["services"])
        assert raw.languages_raw == frozenset(expect["languages"])


def test_golden_case_count_meets_contract():
    assert len(load_golden_cases()) >= 12


def test_strict_mode_rejects_decorated_labels():
    decorated = (CASES_DIR / "markdown_bold.txt").read_text()
    parse_extraction(decorated)  # tolerant mode accepts
    with pytest.raises(MalformedResponseError):
        parse_extraction(decorated, strict=True)


_ITEM = st.sampled_from(
    ["AWS Lambda", "Google Cloud Functions", "Azure Functions", "AWS S3",
     "AWS Rekognition", "Google Firestore", "Python", "C#", "Go 1.21"]
)


@given(
    intent=st.text(
        alphabet="abcdefghij KLMNOP.,", min_size=1, max_size=60
    ).filter(lambda s: s.strip()),
    platforms=st.frozensets(_ITEM, max_size=3),
    services=st.frozensets(_ITEM, max_size=3),
    languages=st.frozensets(_ITEM, max_size=3),
)
def test_parse_render_round_trip(intent, platforms, services, languages):
    rendered = render_response(intent.strip(), platforms, services, languages)
    raw = parse_extraction(rendered)
    assert raw == RawExtraction(intent.strip(), platforms, services, languages)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_worked_example():
    raw = RawExtraction(
        intent_summary="  tags S3 images  ",
        platforms_raw=frozenset({"AWS Lambda"}),
        services_raw=frozenset({"s3", "Rekognition"}),
        languages_raw=frozenset({"JS"}),
    )
    norm = normalize(raw, NormalizationTable())
    assert norm.intent_text == "tags S3 images"
    assert norm.platforms == {"AWS Lambda"}
    assert norm.services == {"AWS S3", "AWS Rekognition"}
    assert norm.languages == {"JavaScript"}
    assert all(not terms for terms in norm.unmapped.values())


def test_normalize_reports_unmapped():
    raw = RawExtraction("x", frozenset(), frozenset({"AWS Comprehend"}), frozenset())
    norm = normalize(raw, NormalizationTable())
    assert norm.services == {"AWS Comprehend"}
    assert norm.unmapped["service"] == {"AWS Comprehend"}


# ---------------------------------------------------------------------------
# extract pipeline
# ---------------------------------------------------------------------------

class FlakyProvider:
    """Garbage for `bad_responses` attempts, then a fixed good answer."""

    name = "flaky"
    model = "flaky"
    temperature = 0.0

    def __init__(self, bad_responses: int):
        self.bad_responses = bad_responses
        self.calls = 0

    def extract_quadruple(self, subject_id, prompt):
        self.calls += 1
        if self.calls <= self.bad_responses:
            return "no sections here at all"
        return render_response("works now", {"AWS Lambda"}, set(), {"Python"})

    def summarize_intent(self, subject_id, prompt):
        return "works now"


@pytest.fixture
def table():
    return NormalizationTable()


def test_extract_via_fixture_provider(golden_query_fixture_file, table):
    provider = FixtureExtractionProvider(golden_query_fixture_file)
    rep = extract(QUERY_ID, QUERY_TEXT, provider, table)
    assert rep.platforms == {"AWS Lambda"}
    assert rep.services == {"AWS S3", "AWS Rekognition"}
    assert rep.languages == frozenset()
    assert rep.intent_text == QUERY_TEXT
    assert rep.intent_vector is None
    assert rep.provenance == Provenance("fixture", "fixture", 0.0)


def test_fixture_extract_is_pure_in_subject_id(golden_query_fixture_file, table):
    provider = FixtureExtractionProvider(golden_query_fixture_file)
    one = extract(QUERY_ID, "completely different text", provider, table)
    two = extract(QUERY_ID, QUERY_TEXT, provider, table)
    assert representation_to_dict(one) == representation_to_dict(two)


def test_fixture_provider_unknown_id(golden_query_fixture_file, table):
    provider = FixtureExtractionProvider(golden_query_fixture_file)
    with pytest.raises(ConfigurationError, match="no entry"):
        extract("missing-id", "text", provider, table)


def test_extract_retries_then_succeeds(table):
    provider = FlakyProvider(bad_responses=2)
    rep = extract("s", "text", provider, table)
    assert rep.intent_text == "works now"
    assert provider.calls == 3


def test_extract_fails_after_three_garbage_responses(table):
    provider = FlakyProvider(bad_responses=99)
    with pytest.raises(ExtractionFailedError) as err:
        extract("s", "text", provider, table)
    assert provider.calls == 3
    assert err.value.last_response == "no sections here at all"


def test_summarize_intent_uses_fixture_text(golden_query_fixture_file):
    provider = FixtureExtractionProvider(golden_query_fixture_file)
    assert summarize_intent(QUERY_ID, "whatever", provider) == QUERY_TEXT


def test_extract_all_collects_failures(golden_query_fixture_file, table):
    provider = FixtureExtractionProvider(golden_query_fixture_file)
    subjects = [(QUERY_ID, QUERY_TEXT), ("missing-id", "text")]
    results, failures = extract_all(subjects, provider, table, concurrency=2)
    assert set(results) == {QUERY_ID}
    assert set(failures) == {"missing-id"}
    assert isinstance(failures["missing-id"], ConfigurationError)


def test_extract_all_bounds_in_flight_requests(table):
    import threading
    import time

    class CountingProvider:
        name = "counting"
        model = "counting"
        temperature = 0.0

        def __init__(self):
            self.lock = threading.Lock()
            self.active = 0
            self.peak = 0

        def extract_quadruple(self, subject_id, prompt):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.005)
            with self.lock:
                self.active -= 1
            return render_response(f"intent {subject_id}", set(), set(), set())

        def summarize_intent(self, subject_id, prompt):
            return f"intent {subject_id}"

    provider = CountingProvider()
    subjects = [(f"s{i}", f"text {i}") for i in range(12)]
    results, failures = extract_all(subjects, provider, table, concurrency=3)
    assert not failures and len(results) == 12
    assert provider.peak <= 3


# ---------------------------------------------------------------------------
# SemanticRepresentation + store
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "vector",
    [np.ones(4), np.full(4, np.nan), np.array([np.inf, 0.0, 0.0, 0.0])],
    ids=["ones", "nan", "inf"],
)
def test_representation_rejects_non_unit_vector(vector):
    with pytest.raises(ValidationError, match="unit-norm"):
        SemanticRepresentation(
            "s", "text", vector, frozenset(), frozenset(), frozenset(),
            Provenance("fixture", "fixture", 0.0),
        )


def test_representation_rejects_literal_none_element():
    with pytest.raises(ValidationError, match="None"):
        SemanticRepresentation(
            "s", "text", None, frozenset({"none"}), frozenset(), frozenset(),
            Provenance("fixture", "fixture", 0.0),
        )


def test_store_round_trip(tmp_path, golden_reps):
    path = tmp_path / "store.jsonl"
    save_representations(path, golden_reps.values())
    loaded = load_representations(path)
    assert set(loaded) == set(golden_reps)
    for fid, rep in golden_reps.items():
        assert representation_to_dict(loaded[fid]) == representation_to_dict(rep)


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                         ids=["U+2028", "U+2029", "U+0085"])
def test_jsonl_readers_split_lines_on_newline_only(tmp_path, char):
    # JSON writes these line separators unescaped; a reader that splits on
    # them cuts a row in two
    text = f"resize{char}uploaded images"
    rep = SemanticRepresentation(
        "s", text, np.eye(3)[0], frozenset({"AWS Lambda"}), frozenset(), frozenset(),
        Provenance("fixture", "fixture", 0.0),
    )
    store = tmp_path / "store.jsonl"
    save_representations(store, [rep])
    loaded = load_representations(store)
    assert isinstance(loaded, RepresentationStore)
    assert representation_to_dict(loaded["s"]) == representation_to_dict(rep)

    fixture = tmp_path / "fixture.jsonl"
    fixture.write_text(json.dumps({"id": "s", "intent_text": text}, ensure_ascii=False) + "\n",
                       encoding="utf-8")
    assert FixtureExtractionProvider(fixture).summarize_intent("s", "prompt") == text

    dataset = tmp_path / "queries.jsonl"
    dataset.write_text(
        json.dumps({"id": "q", "text": text, "ground_truth_id": "s"}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    assert load_query_dataset(dataset)[0].text == text

    source = tmp_path / "handler.py"
    source.write_text("def handler(event, context):\n" + "".join(
        f"    step_{i} = event.get('k{i}')\n" for i in range(12)) + "    return step_0\n")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "s", "name": text, "origin": "t",
                                    "paths": ["handler.py"]}, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    assert ingest_corpus(manifest).repository.units["s"].name == text


def _store_row(fid, **overrides):
    row = {"id": fid, "intent_text": "text", "intent_vector": [1.0, 0.0, 0.0],
           "platforms": ["AWS Lambda"], "services": [], "languages": []}
    return json.dumps({**row, **overrides})


@pytest.mark.parametrize(
    "bad_row, match",
    [
        (_store_row("b", platforms="AWS"), "'platforms' must be a list of strings"),
        (_store_row("b", intent_vector="abc"), "not a list of numbers"),
        (_store_row("b", intent_vector=[1.0, "x"]), "not a list of numbers"),
        (_store_row("b", intent_vector=[[1.0], [0.0, 0.0]]), "not a list of numbers"),
        (_store_row("b", intent_vector=[[1.0, 0.0, 0.0]]), "must be 1-D"),
        (_store_row("b", intent_vector=[0.0, 1.0]), r"differ in length: \[2, 3\]"),
        (_store_row("b", intent_vector=[float("nan")] * 3), "unit-norm"),
        ("[1.0, 0.0, 0.0]", "must be a JSON object"),
    ],
    ids=["string-attribute", "string-vector", "non-numeric-element", "ragged",
         "two-dimensional", "mixed-length", "nan", "not-an-object"],
)
def test_load_store_rejects_malformed_row(tmp_path, bad_row, match):
    path = tmp_path / "store.jsonl"
    path.write_text(_store_row("a") + "\n" + bad_row + "\n")
    with pytest.raises(ConfigurationError, match=f"line 2 is invalid: .*{match}"):
        load_representations(path)


def test_jsonl_readers_reject_invalid_utf8(tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_bytes(b'\n{"id": "caf\xe9"}\n')
    for read in (load_representations, FixtureExtractionProvider, load_query_dataset):
        with pytest.raises(ConfigurationError, match="line 2 is not UTF-8"):
            read(path)


def test_load_store_rejects_repeated_id(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text("\n".join([_store_row("a"), _store_row("b"), "", _store_row("a")]) + "\n")
    with pytest.raises(ConfigurationError, match="lines 1 and 4 both hold 'a'"):
        load_representations(path)


def test_save_store_rejects_repeated_id(tmp_path):
    rep = SemanticRepresentation("a", "text", None, frozenset(), frozenset(), frozenset(),
                                 Provenance("fixture", "fixture", 0.0))
    with pytest.raises(ValidationError, match="two representations of 'a'"):
        save_representations(tmp_path / "store.jsonl", [rep, rep])
    assert not (tmp_path / "store.jsonl").exists()


def test_load_store_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_representations(tmp_path / "absent.jsonl")
