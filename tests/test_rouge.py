"""Tests for ROUGE scoring and corpus evaluation."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eyedx import rouge
from eyedx.corpus import render_prompt, synthesize
from eyedx.errors import DataError, NumericError
from eyedx.model import Model, ModelConfig, init_params
from eyedx.rouge import (
    RougeScore,
    evaluate,
    format_table,
    lcs_length,
    rouge_l,
    rouge_n,
    score_pair,
    write_report,
)
from eyedx.sample import DecodeParams, Generation, decode
from eyedx.tokenizer import BOS_ID, build, segment
from oracles import lcs_oracle

CAND = "retinal detachment left eye".split()
REF = "retinal detachment right eye".split()

tokens = st.lists(st.sampled_from("abcd"), max_size=10)


# -- RougeScore ---------------------------------------------------------------


def test_score_fields_must_be_in_unit_interval():
    with pytest.raises(DataError):
        RougeScore(1.5, 0.0, 0.0)
    with pytest.raises(DataError):
        RougeScore(0.0, -0.1, 0.0)


def test_f1_must_be_zero_when_recall_and_precision_are():
    with pytest.raises(DataError):
        RougeScore(0.0, 0.0, 0.5)


# -- rouge_n ------------------------------------------------------------------


def test_identical_sequences_score_one():
    for n in (1, 2):
        score = rouge_n(REF, REF, n)
        assert score.recall == score.precision == score.f1 == 1.0


def test_detachment_pair_rouge1():
    score = rouge_n(CAND, REF, 1)
    assert score.recall == 3 / 4
    assert score.precision == 3 / 4
    assert score.f1 == 3 / 4


def test_detachment_pair_rouge2():
    score = rouge_n(CAND, REF, 2)
    assert score.recall == 1 / 3
    assert score.precision == 1 / 3


def test_rouge_n_rejects_nonpositive_order():
    for n in (0, -1):
        with pytest.raises(DataError):
            rouge_n(CAND, REF, n)


def test_reference_shorter_than_n_is_degenerate_zero():
    score = rouge_n(["a", "b"], ["a"], 2)
    assert score.recall == score.precision == score.f1 == 0.0


def test_short_candidate_alone_is_not_degenerate():
    score = rouge_n(["a"], ["a", "b"], 2)
    assert score == RougeScore(0.0, 0.0, 0.0)


def test_matches_are_clipped_to_reference_multiplicity():
    score = rouge_n(["the", "the", "the"], ["the", "the"], 1)
    assert score.recall == 1.0
    assert score.precision == 2 / 3


def test_matches_are_clipped_to_candidate_multiplicity():
    score = rouge_n(["the"], ["the", "the", "the"], 1)
    assert score.recall == 1 / 3
    assert score.precision == 1.0


@given(tokens, tokens, st.integers(min_value=1, max_value=3))
def test_rouge_n_components_stay_in_unit_interval(cand, ref, n):
    score = rouge_n(cand, ref, n)
    for value in (score.recall, score.precision, score.f1):
        assert 0.0 <= value <= 1.0


# -- rouge_l ------------------------------------------------------------------


def test_rouge_l_identical_sequences():
    assert rouge_l(REF, REF) == RougeScore(1.0, 1.0, 1.0)


def test_detachment_pair_rouge_l():
    score = rouge_l(CAND, REF)
    assert score.recall == 0.75
    assert score.precision == 0.75
    assert score.f1 == 0.75


def test_rouge_l_disjoint_tokens():
    assert rouge_l(["a", "b"], ["c", "d"]) == RougeScore(0.0, 0.0, 0.0)


def test_rouge_l_empty_sequences_are_zero():
    assert rouge_l([], REF) == RougeScore(0.0, 0.0, 0.0)
    assert rouge_l(CAND, []) == RougeScore(0.0, 0.0, 0.0)
    assert rouge_l([], []) == RougeScore(0.0, 0.0, 0.0)


def test_rouge_l_beta_weights_recall():
    # candidate ["a"], reference ["a", "b"]: LCS 1, R = 1/2, P = 1.
    score = rouge_l(["a"], ["a", "b"], beta=2.0)
    assert abs(score.f1 - 5 / 9) < 1e-15
    heavy = rouge_l(["a"], ["a", "b"], beta=1e6)
    assert abs(heavy.f1 - 0.5) < 1e-9


@given(tokens, tokens)
def test_rouge_l_f_is_symmetric_at_beta_one(a, b):
    assert rouge_l(a, b).f1 == rouge_l(b, a).f1


# -- LCS oracle ---------------------------------------------------------------


def test_oracle_of_sequence_with_itself():
    x = "a b c d e".split()
    assert lcs_oracle(x, x) == 5


def test_oracle_of_sequence_with_its_reverse():
    x = "a b c d".split()
    assert lcs_oracle(x, list(reversed(x))) == 1


def test_oracle_rejects_long_inputs():
    long = ["x"] * 13
    with pytest.raises(DataError):
        lcs_oracle(long, ["x"])
    with pytest.raises(DataError):
        lcs_oracle(["x"], long)


def test_dp_matches_oracle_on_random_pairs():
    rng = random.Random(0)
    for _ in range(500):
        a = [rng.choice("abcd") for _ in range(rng.randrange(0, 11))]
        b = [rng.choice("abcd") for _ in range(rng.randrange(0, 11))]
        assert lcs_length(a, b) == lcs_oracle(a, b)


# -- text-level scoring -------------------------------------------------------


def test_scores_ignore_surrounding_whitespace():
    plain = score_pair("retinal detachment", "retinal detachment left eye")
    padded = score_pair("  retinal detachment\n", "\tretinal detachment left eye  ")
    assert plain == padded


def test_score_pair_matches_token_level_calls():
    r1, r2, rl = score_pair(" ".join(CAND), " ".join(REF))
    assert r1 == rouge_n(CAND, REF, 1)
    assert r2 == rouge_n(CAND, REF, 2)
    assert rl == rouge_l(CAND, REF)


# -- evaluate -----------------------------------------------------------------


def small_records(n_per_modality=3, seed=0):
    return synthesize(n_per_modality, seed=seed)


def stub_evaluate(monkeypatch, records, generation_of):
    """evaluate with decode_batch replaced by generation_of(record, vocab),
    each record's Generation. The vocabulary is built from the records'
    texts, so a Generation spelled with it decodes without unk."""
    vocab = build([f"{r.findings} {r.diagnosis}" for r in records])

    def decode_batch(model, prompts, params):
        assert prompts == [[BOS_ID] + vocab.encode(render_prompt(r)[0]) for r in records]
        return [generation_of(record, vocab) for record in records]

    monkeypatch.setattr(rouge, "decode_batch", decode_batch)
    return evaluate(None, records, vocab)


def echo(record, vocab):
    return Generation(vocab.encode(record.diagnosis), "eos")


def silent(record, vocab):
    return Generation([], "eos")


def test_evaluate_rejects_empty_split():
    with pytest.raises(DataError):
        evaluate(None, [], None)


def test_echo_stub_scores_one_everywhere(monkeypatch):
    records = small_records()
    report = stub_evaluate(monkeypatch, records, echo)
    for mean in (report.rouge1, report.rouge2, report.rouge_l):
        assert mean == RougeScore(1.0, 1.0, 1.0)
    for r1, r2, rl in report.by_modality.values():
        assert r1 == r2 == rl == RougeScore(1.0, 1.0, 1.0)
    assert len(report.records) == len(records)
    assert not any(row.failed for row in report.records)


def test_empty_string_stub_scores_zero_everywhere(monkeypatch):
    report = stub_evaluate(monkeypatch, small_records(), silent)
    for mean in (report.rouge1, report.rouge2, report.rouge_l):
        assert mean == RougeScore(0.0, 0.0, 0.0)


def test_generation_failure_is_flagged_and_skipped(monkeypatch):
    records = small_records()
    doomed = records[0].id

    def generation_of(record, vocab):
        if record.id == doomed:
            return Generation([], "error", DataError("injected failure"))
        return echo(record, vocab)

    report = stub_evaluate(monkeypatch, records, generation_of)
    failures = [row for row in report.records if row.failed]
    assert [row.record_id for row in failures] == [doomed]
    assert failures[0].rouge1 == failures[0].rouge2 == failures[0].rouge_l == RougeScore(0, 0, 0)
    expected = (len(records) - 1) / len(records)
    assert abs(report.rouge1.f1 - expected) < 1e-12


def test_means_average_per_record_scores(monkeypatch):
    records = small_records()
    half = {r.id for r in records[: len(records) // 2]}

    def generation_of(record, vocab):
        return echo(record, vocab) if record.id in half else silent(record, vocab)

    report = stub_evaluate(monkeypatch, records, generation_of)
    expected = len(half) / len(records)
    for mean in (report.rouge1, report.rouge2, report.rouge_l):
        assert abs(mean.f1 - expected) < 1e-12
        assert abs(mean.recall - expected) < 1e-12


def test_by_modality_covers_each_modality_once(monkeypatch):
    records = small_records()
    report = stub_evaluate(monkeypatch, records, echo)
    assert sorted(report.by_modality) == sorted({r.modality for r in records})


def test_rows_take_stop_and_count_from_their_generation(monkeypatch):
    """A failed row keeps its partial count; its candidate is empty."""
    records = small_records()[:3]

    def generation_of(record, vocab):
        ids = vocab.encode(record.diagnosis)
        return [
            Generation(ids, "eos"),
            Generation(ids[:2], "budget"),
            Generation([5, 6, 7], "error", NumericError("non-finite logits")),
        ][records.index(record)]

    rows = stub_evaluate(monkeypatch, records, generation_of).records
    words = [segment(record.diagnosis) for record in records]
    assert [(row.failed, row.n_generated, row.stop) for row in rows] == [
        (False, len(words[0]), "eos"), (False, 2, "budget"), (True, 3, "error")
    ]
    assert [row.candidate for row in rows] == [" ".join(words[0]), " ".join(words[1][:2]), ""]
    assert rows[2].as_dict()["n_generated"] == 3


def eval_fixture_model():
    records = small_records()
    texts = [f"{r.findings} {r.diagnosis}" for r in records]
    vocab = build(texts, max_vocab=512)
    config = ModelConfig(
        d_model=32,
        n_layers=2,
        n_heads=4,
        n_kv_heads=2,
        d_ff=64,
        vocab_size=vocab.size,
        max_seq_len=128,
    )
    model = Model(config, init_params(config, seed=0))
    return model, records, vocab


def test_evaluate_with_real_model_is_deterministic():
    model, records, vocab = eval_fixture_model()
    params = DecodeParams(max_new_tokens=8, seed=3)
    first = evaluate(model, records[:4], vocab, params=params)
    second = evaluate(model, records[:4], vocab, params=params)
    assert first.as_dict() == second.as_dict()
    assert not any(row.failed for row in first.records)


def test_evaluate_clamps_generation_to_context_window():
    model, records, vocab = eval_fixture_model()
    params = DecodeParams(max_new_tokens=10_000, seed=0)
    report = evaluate(model, records[:2], vocab, params=params)
    assert len(report.records) == 2
    assert not any(row.failed for row in report.records)


def test_nan_weights_flag_every_record_instead_of_aborting():
    model, records, vocab = eval_fixture_model()
    model.params["lm_head"][:, 7] = np.nan
    for params in (DecodeParams(max_new_tokens=4), DecodeParams(max_new_tokens=4, top_k=1)):
        report = evaluate(model, records[:3], vocab, params=params)
        assert [row.failed for row in report.records] == [True, True, True]
        assert report.rouge1.f1 == 0.0


def one_record_at_a_time(model, records, vocab, params):
    """The candidates of decoding each record alone with its clamped budget."""
    out = []
    for record in records:
        ids = [BOS_ID] + vocab.encode(render_prompt(record)[0])
        budget = min(params.max_new_tokens, model.config.max_seq_len - len(ids))
        out.append(vocab.decode(decode(model, ids, replace(params, max_new_tokens=budget))))
    return out


def test_evaluate_batch_matches_one_record_at_a_time():
    model, records, vocab = eval_fixture_model()  # prompts of 28 to 35 tokens
    greedy = DecodeParams(temperature=1.0, repetition_penalty=1.0, top_k=1, top_p=1.0,
                          max_new_tokens=24)
    for params in (greedy, DecodeParams(max_new_tokens=10_000, seed=3)):
        report = evaluate(model, records, vocab, params=params)
        got = [row.candidate for row in report.records]
        assert got == one_record_at_a_time(model, records, vocab, params)


def test_nan_token_and_overlong_prompt_fail_only_their_records():
    model, records, vocab = eval_fixture_model()
    records = list(records[:5])
    prompts = [vocab.encode(render_prompt(r)[0]) for r in records]
    # a word id in the first prompt and in no other
    word = next(t for t in prompts[0] if t > 3 and not any(t in p for p in prompts[1:]))
    model.params["tok_embed"][word] = np.nan
    records[2] = replace(records[2], findings=records[2].findings * 20)
    params = DecodeParams(max_new_tokens=6, seed=1)
    report = evaluate(model, records, vocab, params=params)
    assert [row.failed for row in report.records] == [True, False, True, False, False]
    kept = [records[i] for i in (1, 3, 4)]
    assert [report.records[i].candidate for i in (1, 3, 4)] == one_record_at_a_time(
        model, kept, vocab, params
    )


def test_report_records_stop_reason_and_generated_count():
    model, records, vocab = eval_fixture_model()
    records = list(records[:4])
    records[3] = replace(records[3], findings=records[3].findings * 20)  # fills the window
    report = evaluate(model, records, vocab, params=DecodeParams(max_new_tokens=8, seed=0))
    rows = [row.as_dict() for row in report.records]
    for row in rows[:3]:
        assert row["stop"] in ("eos", "budget")
        assert (row["stop"] == "budget") == (row["n_generated"] == 8)
        assert len(segment(row["candidate"])) <= row["n_generated"]
    assert (rows[3]["failed"], rows[3]["stop"], rows[3]["n_generated"]) == (True, "error", 0)


# -- report emission ----------------------------------------------------------


def two_reports(monkeypatch):
    records = small_records()
    return [("tuned", stub_evaluate(monkeypatch, records, echo)),
            ("base", stub_evaluate(monkeypatch, records, silent))]


def test_format_table_one_row_per_model(monkeypatch):
    table = format_table(two_reports(monkeypatch))
    lines = table.strip().splitlines()
    assert lines[0] == "| model | R-1 | R-2 | R-L |"
    assert len(lines) == 4
    assert lines[2] == "| tuned | 1.0000 | 1.0000 | 1.0000 |"
    assert lines[3] == "| base | 0.0000 | 0.0000 | 0.0000 |"


def test_written_report_is_valid_json_with_all_components(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_report(path, two_reports(monkeypatch))
    payload = json.loads(path.read_text())
    assert set(payload) == {"tuned", "base"}
    means = payload["tuned"]["means"]
    assert means["rouge1"] == {"recall": 1.0, "precision": 1.0, "f1": 1.0}
    assert {"rouge1", "rouge2", "rouge_l"} <= set(means)
    assert len(payload["base"]["records"]) == len(small_records())
    assert payload["base"]["by_modality"].keys() == {"OSA", "CFP", "OCT"}
