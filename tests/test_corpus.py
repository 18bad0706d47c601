"""Corpus ingest, dedup, stratified split, prompt rendering, synthesis."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyedx import DataError
from eyedx.corpus import (
    DEFAULT_TEMPLATE,
    MODALITIES,
    PromptTemplate,
    ReportRecord,
    dedup,
    ingest,
    modality_counts,
    normalize_text,
    render_prompt,
    split,
    synthesize,
    write_jsonl,
)
from oracles import DIAGNOSIS_LABELS


def make_record(i, modality="OSA", findings=None, diagnosis=None, flags=()):
    return ReportRecord(
        id=f"r{i}",
        modality=modality,
        findings=findings or f"finding text {i}",
        diagnosis=diagnosis or f"diagnosis text {i}",
        flags=frozenset(flags),
    )


# ---------------------------------------------------------------- ingest


def test_ingest_reads_records_and_strips_identifiers(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {
            "id": "a1",
            "modality": "OSA",
            "findings": "gland dropout 30 percent",
            "diagnosis": "mild mgd",
            "name": "pat smith",
            "gender": "f",
            "age": 54,
        },
        {"id": "a2", "modality": "OCT", "findings": "cmt 250", "diagnosis": "normal"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    records = ingest(path)
    assert [r.id for r in records] == ["a1", "a2"]
    # identifiers are gone from the record type entirely
    assert not hasattr(records[0], "name")
    assert not hasattr(records[0], "age")


def test_ingest_filters_flagged_records(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "keep", "modality": "CFP", "findings": "f", "diagnosis": "d"},
        {
            "id": "drop1",
            "modality": "CFP",
            "findings": "f",
            "diagnosis": "d",
            "flags": ["possible_misdiagnosis"],
        },
        {
            "id": "drop2",
            "modality": "CFP",
            "findings": "f",
            "diagnosis": "d",
            "flags": ["needs_further_exam"],
        },
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    records = ingest(path)
    assert [r.id for r in records] == ["keep"]


def test_ingest_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "modality": "OSA", "findings": "f", "diagnosis": "d"}\nnot json\n')
    with pytest.raises(DataError, match=r":2:"):
        ingest(path)


def test_ingest_missing_field_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "modality": "OSA", "findings": "f"}\n')
    with pytest.raises(DataError, match=r":1:.*diagnosis"):
        ingest(path)


def test_ingest_unknown_modality_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "modality": "MRI", "findings": "f", "diagnosis": "d"}\n')
    with pytest.raises(DataError, match="MRI"):
        ingest(path)


def test_ingest_unknown_flag_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "modality": "OSA", "findings": "f", "diagnosis": "d", "flags": ["mystery"]}\n'
    )
    with pytest.raises(DataError, match="mystery"):
        ingest(path)


def test_ingest_missing_file():
    with pytest.raises(DataError, match="not found"):
        ingest("/nonexistent/corpus.jsonl")


def test_write_then_ingest_round_trips(tmp_path):
    records = synthesize(20, seed=3)
    path = tmp_path / "out.jsonl"
    write_jsonl(records, path)
    back = ingest(path)
    assert back == records


# ---------------------------------------------------------------- dedup


def test_dedup_keeps_first_occurrence():
    a = make_record(0, findings="gland dropout", diagnosis="mgd")
    b = make_record(1, findings="gland  dropout ", diagnosis="mgd")  # same after collapse
    c = make_record(2, findings="different", diagnosis="mgd")
    assert dedup([a, b, c]) == [a, c]


def test_dedup_is_nfc_insensitive():
    composed = "café finding"
    decomposed = "café finding"
    a = make_record(0, findings=composed, diagnosis="same dx")
    b = make_record(1, findings=decomposed, diagnosis="same dx")
    assert dedup([a, b]) == [a]


def test_dedup_distinguishes_modalities():
    a = make_record(0, modality="OSA", findings="same", diagnosis="same dx")
    b = make_record(1, modality="OCT", findings="same", diagnosis="same dx")
    assert dedup([a, b]) == [a, b]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(MODALITIES),
            st.text(alphabet="ab \té", min_size=1).filter(str.strip),
            st.text(alphabet="xy ", min_size=1).filter(str.strip),
        ),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_dedup_idempotent_and_subset(triples):
    records = [
        make_record(i, modality=m, findings=f, diagnosis=d) for i, (m, f, d) in enumerate(triples)
    ]
    once = dedup(records)
    assert dedup(once) == once
    assert set(r.id for r in once) <= set(r.id for r in records)
    # no two survivors share a normalized key
    keys = [(r.modality, normalize_text(r.findings), normalize_text(r.diagnosis)) for r in once]
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------- split


def test_split_is_a_partition():
    records = synthesize(50, seed=1)
    s = split(records, ratio=0.6, seed=7)
    combined = sorted(s.train + s.test, key=lambda r: r.id)
    assert combined == sorted(records, key=lambda r: r.id)
    assert not set(r.id for r in s.train) & set(r.id for r in s.test)


def test_split_train_size_is_rounded_ratio():
    # oracle: sizes computed by hand for the documented corpus scale
    records = synthesize(2355, seed=0)  # 7065 total
    s = split(records, ratio=0.6, seed=0)
    assert len(s.train) == 4239
    assert len(s.test) == 2826


def test_split_per_modality_within_two_points():
    records = synthesize(2355, seed=0)
    s = split(records, ratio=0.6, seed=0)
    total = modality_counts(records)
    train = modality_counts(s.train)
    for m in MODALITIES:
        share_corpus = total[m] / len(records)
        share_train = train[m] / len(s.train)
        assert abs(share_corpus - share_train) < 0.02


def test_split_deterministic_for_seed():
    records = synthesize(40, seed=2)
    a = split(records, ratio=0.5, seed=11)
    b = split(records, ratio=0.5, seed=11)
    assert a == b
    c = split(records, ratio=0.5, seed=12)
    assert [r.id for r in c.train] != [r.id for r in a.train]


def test_split_rejects_degenerate_input():
    with pytest.raises(DataError):
        split([], ratio=0.6)
    records = synthesize(10, seed=0)
    with pytest.raises(DataError):
        split(records, ratio=1.0)
    with pytest.raises(DataError):
        split(records, ratio=0.0)
    one = [make_record(0)]
    with pytest.raises(DataError, match="at least 2"):
        split(one, ratio=0.5)


@given(n=st.integers(min_value=2, max_value=80), ratio=st.floats(0.2, 0.8), seed=st.integers(0, 99))
@settings(max_examples=50, deadline=None)
def test_split_size_property(n, ratio, seed):
    records = synthesize(n, seed=0)
    s = split(records, ratio=ratio, seed=seed)
    assert len(s.train) == round(ratio * len(records))
    assert len(s.train) + len(s.test) == len(records)


# ---------------------------------------------------------------- prompts


def test_render_prompt_fills_slots_and_appends_prefix():
    rec = make_record(0, modality="OCT", findings="cmt 400 microns", diagnosis="edema")
    prompt, target = render_prompt(rec)
    assert "OCT" in prompt
    assert "cmt 400 microns" in prompt
    assert prompt.endswith(DEFAULT_TEMPLATE.response_prefix)
    assert target == "edema"


def test_template_rejects_unknown_placeholder():
    with pytest.raises(DataError, match="placeholder"):
        PromptTemplate(instruction="findings: {findingz}\n", response_prefix="impression:")


# placeholders str.format cannot fill: positional, nested, a bad format code or
# conversion, a missing attribute, a non-integer index
UNFILLABLE = [
    "{}", "{modality:{}}", "{findings:d}", "{findings!x}", "{findings.x}", "{findings[x]}",
]


@pytest.mark.parametrize("slot", UNFILLABLE)
def test_template_rejects_unfillable_placeholder(slot):
    with pytest.raises(DataError, match="placeholder"):
        PromptTemplate(instruction=f"findings: {slot}\n", response_prefix="impression:")


def test_template_without_slots_is_allowed():
    t = PromptTemplate(instruction="summarize the report\n", response_prefix="answer:")
    prompt, _ = render_prompt(make_record(0), t)
    assert prompt == "summarize the report\nanswer:"


# ---------------------------------------------------------------- synthesis


def test_synthesize_counts_and_determinism():
    a = synthesize(25, seed=9)
    b = synthesize(25, seed=9)
    assert a == b
    counts = modality_counts(a)
    assert counts == {m: 25 for m in MODALITIES}
    c = synthesize(25, seed=10)
    assert c != a


def test_synthesize_labels_are_known():
    for rec in synthesize(200, seed=4):
        assert rec.diagnosis in DIAGNOSIS_LABELS, rec.diagnosis


def test_synthesize_diagnosis_is_function_of_findings():
    # two corpora, same grammar: identical findings must map to identical labels
    by_findings = {}
    for rec in synthesize(400, seed=5) + synthesize(400, seed=6):
        key = normalize_text(rec.findings)
        if key in by_findings:
            assert by_findings[key] == rec.diagnosis
        else:
            by_findings[key] = rec.diagnosis


def test_synthesize_survives_dedup_at_acceptance_scale():
    # the end-to-end gate needs >= 300 records per modality after dedup
    records = dedup(synthesize(400, seed=0))
    counts = modality_counts(records)
    for m in MODALITIES:
        assert counts[m] >= 300, counts


def test_synthesize_rejects_bad_count():
    with pytest.raises(DataError):
        synthesize(0)
