"""ROUGE-1/2/L scoring of generated diagnoses against references.

ROUGE-N counts clipped n-gram overlap; ROUGE-L measures the longest common
subsequence. Both are computed on word-level tokens (per-codepoint for CJK),
so scores are invariant to whitespace layout.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass

from .corpus import DEFAULT_TEMPLATE, PromptTemplate, render_prompt
from .errors import DataError
from .files import write_atomic
from .sample import DecodeParams, decode_batch

# Nothing here calls decode any more; the binding stays because
# benchmark/probes.py traces decoding by wrapping eyedx.rouge.decode.
from .sample import decode  # noqa: F401
from .tokenizer import BOS_ID, segment


@dataclass(frozen=True)
class RougeScore:
    """Recall/precision/F triple for one metric on one text pair."""

    recall: float
    precision: float
    f1: float

    def __post_init__(self):
        for name in ("recall", "precision", "f1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {value}")
        if self.recall + self.precision == 0.0 and self.f1 != 0.0:
            raise DataError("f1 must be 0 when recall and precision are both 0")


def _f_measure(recall: float, precision: float, beta: float) -> float:
    denom = recall + beta * beta * precision
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * recall * precision / denom


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate, reference, n: int) -> RougeScore:
    """Clipped n-gram overlap between token sequences.

    Recall divides matched n-grams by the reference count, precision by the
    candidate count; each n-gram match is clipped to the smaller multiset
    count. A reference shorter than n has no n-grams to recall, so the score
    is zero.
    """
    if n < 1:
        raise DataError(f"n-gram order must be >= 1, got {n}")
    ref_counts = _ngram_counts(reference, n)
    if not ref_counts:
        return RougeScore(0.0, 0.0, 0.0)
    cand_counts = _ngram_counts(candidate, n)
    matched = sum((cand_counts & ref_counts).values())
    recall = matched / sum(ref_counts.values())
    total_cand = sum(cand_counts.values())
    precision = matched / total_cand if total_cand else 0.0
    return RougeScore(recall, precision, _f_measure(recall, precision, 1.0))


def lcs_length(a, b) -> int:
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(cur[-1] if cur[-1] >= prev[j] else prev[j])
        prev = cur
    return prev[-1]


def rouge_l(candidate, reference, beta: float = 1.0) -> RougeScore:
    """LCS-based recall/precision/F between token sequences.

    Recall divides the LCS length by the reference length, precision by the
    candidate length; F is the beta-weighted combination
    (1 + beta^2) * R * P / (R + beta^2 * P). Empty sequences give zeros.
    """
    common = lcs_length(candidate, reference)
    recall = common / len(reference) if reference else 0.0
    precision = common / len(candidate) if candidate else 0.0
    return RougeScore(recall, precision, _f_measure(recall, precision, beta))


@dataclass(frozen=True)
class RecordScore:
    """Per-record evaluation row, its fields in the report's key order: what the
    model wrote, how many tokens, why it stopped ("eos", "budget" or "error"), scores."""

    id: str
    modality: str
    candidate: str
    failed: bool
    n_generated: int
    stop: str
    rouge1: RougeScore
    rouge2: RougeScore
    rouge_l: RougeScore


@dataclass(frozen=True)
class EvalReport:
    """Corpus-level evaluation, its fields in the report's key order: each
    metric's componentwise means, overall and per modality (sorted), then rows."""

    means: dict[str, RougeScore]
    by_modality: dict[str, dict[str, RougeScore]]
    records: tuple[RecordScore, ...]


def _mean_scores(rows) -> dict[str, RougeScore]:
    count = len(rows)
    means = {}
    for metric in ("rouge1", "rouge2", "rouge_l"):
        scores = [getattr(row, metric) for row in rows]
        means[metric] = RougeScore(
            sum(s.recall for s in scores) / count,
            sum(s.precision for s in scores) / count,
            sum(s.f1 for s in scores) / count,
        )
    return means


def score_pair(candidate_text: str, reference_text: str) -> tuple[RougeScore, RougeScore, RougeScore]:
    """ROUGE-1, ROUGE-2, and ROUGE-L for one candidate/reference text pair."""
    cand = segment(candidate_text)
    ref = segment(reference_text)
    return rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref)


def evaluate(
    model,
    records,
    vocab,
    template: PromptTemplate = DEFAULT_TEMPLATE,
    params: DecodeParams = DecodeParams(),
) -> EvalReport:
    """Decode every test record and score it against its reference diagnosis.

    All records decode together in one batch, each with its token budget
    clamped to the room its prompt leaves in the context window. A record
    whose generation fails is scored zero, flagged, and evaluation continues.
    """
    if not records:
        raise DataError("cannot evaluate an empty test split")
    rendered = [render_prompt(record, template) for record in records]
    prompts = [[BOS_ID] + vocab.encode(prompt_text) for prompt_text, _ in rendered]
    generations = decode_batch(model, prompts, params)

    zero = RougeScore(0.0, 0.0, 0.0)
    rows = []
    for record, (_, reference_text), gen in zip(records, rendered, generations):
        failed = gen.error is not None
        candidate = "" if failed else vocab.decode(gen.tokens)
        r1, r2, rl = (zero, zero, zero) if failed else score_pair(candidate, reference_text)
        rows.append(RecordScore(record.id, record.modality, candidate,
                                failed, len(gen.tokens), gen.stop, r1, r2, rl))

    by_modality = {}
    for modality in sorted({row.modality for row in rows}):
        by_modality[modality] = _mean_scores([row for row in rows if row.modality == modality])
    return EvalReport(_mean_scores(rows), by_modality, tuple(rows))


def format_table(named_reports) -> str:
    """Markdown table of F-measures, columns R-1/R-2/R-L: a row per model,
    each followed by a row per modality of its report, named model/modality."""
    def row(label, means):
        cells = [label] + [f"{means[metric].f1:.4f}" for metric in ("rouge1", "rouge2", "rouge_l")]
        return "| " + " | ".join(cells) + " |"

    lines = ["| model | R-1 | R-2 | R-L |", "| --- | --- | --- | --- |"]
    for name, report in named_reports:
        lines.append(row(name, report.means))
        lines += [row(f"{name}/{modality}", means)
                  for modality, means in report.by_modality.items()]
    return "\n".join(lines) + "\n"


def write_report(path, named_reports) -> None:
    """Write the full componentwise report for each model as JSON."""
    payload = {name: asdict(report) for name, report in named_reports}
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
