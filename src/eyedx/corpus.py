"""Ophthalmic report corpus: ingest, clean, dedup, stratified split, synthesis, prompts.

A report record pairs the examination findings text (model input) with the
physician's diagnostic impression (training target). Three imaging modalities
are supported: OSA (ocular surface analyzer), CFP (color fundus photography)
and OCT (optical coherence tomography).
"""

from __future__ import annotations

import json
import random
import re
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import DataError
from .files import input_text, write_atomic

MODALITIES = ("OSA", "CFP", "OCT")

# Records carrying either flag are excluded at ingest: they mark cases that a
# clinician judged unreliable as ground truth.
EXCLUSION_FLAGS = frozenset({"possible_misdiagnosis", "needs_further_exam"})

_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class ReportRecord:
    """One examination report: findings text plus the reference diagnosis."""

    id: str
    modality: str
    findings: str
    diagnosis: str
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise DataError(f"unknown modality {self.modality!r}")
        if not self.findings.strip():
            raise DataError(f"record {self.id}: empty findings")
        if not self.diagnosis.strip():
            raise DataError(f"record {self.id}: empty diagnosis")


@dataclass(frozen=True)
class CorpusSplit:
    """Disjoint train/test partition with per-modality stratification."""

    train: tuple[ReportRecord, ...]
    test: tuple[ReportRecord, ...]
    seed: int
    ratio: float


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction text with {modality}/{findings} slots plus a response prefix.

    The response prefix marks where the generated diagnosis begins; everything
    up to and including it is prompt, everything after it is target.
    """

    instruction: str
    response_prefix: str

    def __post_init__(self):
        # one trial fill rejects what str.format cannot fill, before any record needs it
        self.render(MODALITIES[0], "findings")

    def render(self, modality: str, findings: str) -> str:
        """The prompt text: the filled instruction plus the response prefix."""
        try:
            body = self.instruction.format(modality=modality, findings=findings)
        except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
            raise DataError(f"template placeholder cannot be filled: {exc}") from exc
        return body + self.response_prefix


# Kept deliberately short: prompt length is training compute at desk scale.
DEFAULT_TEMPLATE = PromptTemplate(
    instruction="modality: {modality}\nfindings: {findings}\n",
    response_prefix="impression:",
)


def normalize_text(text: str) -> str:
    """Unicode NFC plus whitespace collapse; the dedup comparison key."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", text)).strip()


def load_template(path: str | Path) -> PromptTemplate:
    """Read a template file: instruction text, last non-empty line = response prefix."""
    lines = input_text(path).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise DataError(f"template file {path} is empty")
    return PromptTemplate(instruction="\n".join(lines[:-1]) + "\n", response_prefix=lines[-1])


def ingest(path: str | Path) -> list[ReportRecord]:
    """Read report records from a JSON-lines file.

    Identifier fields (name/gender/age) are dropped, records carrying an
    exclusion flag are filtered out. Malformed lines, findings or diagnosis
    not a string and an id neither a string nor an integer among them, raise
    DataError naming the line number.
    """
    path = Path(path)
    records: list[ReportRecord] = []
    for lineno, line in enumerate(input_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
            raise DataError(f"{path}:{lineno}: malformed JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected an object per line")
        try:
            flags = obj.get("flags", [])
            if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
                raise DataError("flags must be a list of strings")
            unknown = set(flags) - EXCLUSION_FLAGS
            if unknown:
                raise DataError(f"unknown flags {sorted(unknown)}")
            for name in ("findings", "diagnosis"):
                if not isinstance(obj[name], str):
                    raise DataError(f"{name} must be a string")
            if isinstance(obj["id"], bool) or not isinstance(obj["id"], (str, int)):
                raise DataError("id must be a string or an integer")
            record = ReportRecord(
                id=str(obj["id"]),
                modality=obj["modality"],
                findings=obj["findings"].strip(),
                diagnosis=obj["diagnosis"].strip(),
                flags=frozenset(flags),
            )
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from exc
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if record.flags & EXCLUSION_FLAGS:
            continue
        records.append(record)
    return records


def write_jsonl(records: list[ReportRecord] | tuple[ReportRecord, ...], path: str | Path) -> None:
    """Write records to a JSON-lines file (the inverse of ingest)."""
    rows = ({**asdict(rec), "flags": sorted(rec.flags)} for rec in records)
    write_atomic(path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
                 .encode("utf-8"))


def dedup(records: list[ReportRecord]) -> list[ReportRecord]:
    """Keep the first occurrence of each (modality, findings, diagnosis) triple.

    Texts are compared after NFC normalization and whitespace collapse; the
    kept record is returned unmodified. Stable and idempotent.
    """
    seen: set[tuple[str, str, str]] = set()
    kept: list[ReportRecord] = []
    for rec in records:
        key = (rec.modality, normalize_text(rec.findings), normalize_text(rec.diagnosis))
        if key in seen:
            continue
        seen.add(key)
        kept.append(rec)
    return kept


def split(records: list[ReportRecord], ratio: float = 0.6, seed: int = 0) -> CorpusSplit:
    """Stratified seeded train/test split.

    Each modality stratum is shuffled and assigned a largest-remainder quota so
    that |train| = round(ratio * total) exactly and per-modality proportions
    stay within 2 points of the corpus proportions.
    """
    if not records:
        raise DataError("cannot split an empty corpus")
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0,1), got {ratio}")

    strata: dict[str, list[ReportRecord]] = {m: [] for m in MODALITIES}
    for rec in records:
        strata[rec.modality].append(rec)
    strata = {m: recs for m, recs in strata.items() if recs}
    for m, recs in strata.items():
        if len(recs) < 2:
            raise DataError(f"modality {m} has {len(recs)} record(s); need at least 2 to stratify")

    n_train_total = round(ratio * len(records))
    if n_train_total in (0, len(records)):
        side = "train" if n_train_total == 0 else "test"
        raise DataError(f"split ratio {ratio} of {len(records)} records leaves the {side} side empty")
    # Largest-remainder allocation: floor each quota, hand out the remainder
    # by descending fractional part (ties broken by modality name).
    quotas = {m: ratio * len(recs) for m, recs in strata.items()}
    counts = {m: int(q) for m, q in quotas.items()}
    leftover = n_train_total - sum(counts.values())
    order = sorted(strata, key=lambda m: (-(quotas[m] - counts[m]), m))
    for m in order[:leftover]:
        counts[m] += 1

    rng = random.Random(seed)
    train: list[ReportRecord] = []
    test: list[ReportRecord] = []
    for m in MODALITIES:
        if m not in strata:
            continue
        pool = list(strata[m])
        rng.shuffle(pool)
        train.extend(pool[: counts[m]])
        test.extend(pool[counts[m] :])
    rng.shuffle(train)
    rng.shuffle(test)
    return CorpusSplit(train=tuple(train), test=tuple(test), seed=seed, ratio=ratio)


def render_prompt(record: ReportRecord, template: PromptTemplate = DEFAULT_TEMPLATE) -> tuple[str, str]:
    """Render (prompt_text, target_text) for one record.

    prompt_text is the filled instruction plus the response prefix; the target
    is the reference diagnosis. Training consumes their concatenation.
    """
    return template.render(record.modality, record.findings), record.diagnosis


# --------------------------------------------------------------------------
# Synthetic corpus
#
# Stand-in for a private clinical dataset: a small template grammar per
# modality. The diagnosis is a deterministic function of the findings text
# (severity adjectives and numeric values printed in the findings decide the
# label), so a fine-tuned model has signal to learn.
# --------------------------------------------------------------------------

_EYES = ("right", "left")

# Three wordings per modality; a generator picks one with rng.choice.
_OSA_FINDINGS = (
    "meibography of the {eye} eye shows {grade} gland dropout of about {loss_pct} percent ,"
    " orifices {plugging} , tear break up time {tbut} seconds",
    "ocular surface analysis {eye} eye : {grade} meibomian gland loss near {loss_pct} percent ,"
    " gland orifices {plugging} , break up time measured at {tbut} seconds",
    "{eye} eye meibography reveals {grade} dropout around {loss_pct} percent of gland area ,"
    " orifices appear {plugging} , tear film break up time {tbut} seconds",
)
_CFP_FINDINGS = (
    "fundus photograph of the {eye} eye shows {heme} hemorrhages , hard exudates {exudate} ,"
    " cup disc ratio 0.{cdr} , vessels {vessels} , macula flat",
    "color fundus image {eye} eye : {heme} retinal hemorrhages , exudates {exudate} ,"
    " vessels {vessels} , optic disc with cup disc ratio 0.{cdr}",
    "{eye} fundus view demonstrates {heme} hemorrhages with exudates {exudate} ,"
    " vessels {vessels} , cup disc ratio 0.{cdr}",
)
_OCT_FINDINGS = (
    "macular oct of the {eye} eye : central thickness {cmt} microns , {fluid_desc} ,"
    " retinal layers otherwise preserved",
    "oct scan {eye} eye shows central macular thickness of {cmt} microns with {fluid_desc}",
    "cross sectional oct {eye} eye : thickness {cmt} microns at the fovea , {fluid_desc} ,"
    " vitreomacular interface clear",
)


def _osa_grade(loss_pct: int) -> str:
    if loss_pct < 25:
        return "mild"
    if loss_pct < 50:
        return "moderate"
    return "severe"


def _osa(rng: random.Random) -> tuple[str, str]:
    loss_pct = rng.randrange(5, 81)
    tbut = rng.randrange(2, 15)
    eye = rng.choice(_EYES)
    grade = _osa_grade(loss_pct)
    plugging = rng.choice(("patent", "partially plugged", "plugged"))
    findings = rng.choice(_OSA_FINDINGS).format(
        eye=eye, grade=grade, loss_pct=loss_pct, plugging=plugging, tbut=tbut
    )
    diagnosis = f"{grade} meibomian gland dysfunction with evaporative dry eye"
    return findings, diagnosis


def _cfp_grade(heme: str, exudate: str) -> str:
    if heme == "no":
        return "none"
    if heme == "scattered dot" and exudate == "absent":
        return "mild"
    if heme == "scattered dot":
        return "moderate"
    return "severe"


def _cfp(rng: random.Random) -> tuple[str, str]:
    heme = rng.choice(("no", "scattered dot", "extensive blot"))
    exudate = rng.choice(("absent", "present"))
    # two-digit values reuse the number tokens the other modalities already emit
    cdr = rng.randrange(30, 81)
    eye = rng.choice(_EYES)
    vessels = rng.choice(("regular", "mildly tortuous", "attenuated"))
    grade = _cfp_grade(heme, exudate)
    findings = rng.choice(_CFP_FINDINGS).format(
        eye=eye, heme=heme, exudate=exudate, cdr=cdr, vessels=vessels
    )
    if grade == "none":
        diagnosis = "no diabetic retinopathy"
    else:
        diagnosis = f"{grade} nonproliferative diabetic retinopathy"
    if cdr >= 65:
        diagnosis += " ; glaucoma suspect with enlarged cupping"
    return findings, diagnosis


def _oct_label(cmt: int, fluid: str) -> str:
    if fluid == "subretinal":
        return "serous macular detachment with subretinal fluid"
    if fluid == "intraretinal" or cmt >= 350:
        grade = "severe" if cmt >= 450 else "moderate"
        return f"{grade} cystoid macular edema"
    return "normal macular contour"


def _oct(rng: random.Random) -> tuple[str, str]:
    fluid = rng.choice(("none", "intraretinal", "subretinal"))
    if fluid == "none":
        cmt = rng.randrange(220, 300, 2)
    else:
        cmt = rng.randrange(300, 541, 2)
    eye = rng.choice(_EYES)
    fluid_desc = {
        "none": "no intraretinal or subretinal fluid",
        "intraretinal": "intraretinal cystoid spaces",
        "subretinal": "a subretinal fluid pocket",
    }[fluid]
    findings = rng.choice(_OCT_FINDINGS).format(eye=eye, cmt=cmt, fluid_desc=fluid_desc)
    return findings, _oct_label(cmt, fluid)


_GENERATORS = {"OSA": _osa, "CFP": _cfp, "OCT": _oct}


def synthesize(n_per_modality: int, seed: int = 0) -> list[ReportRecord]:
    """Generate n_per_modality records for each modality, deterministically."""
    if n_per_modality < 1:
        raise DataError(f"n_per_modality must be >= 1, got {n_per_modality}")
    rng = random.Random(seed)
    records: list[ReportRecord] = []
    for modality in MODALITIES:
        gen = _GENERATORS[modality]
        for i in range(n_per_modality):
            findings, diagnosis = gen(rng)
            records.append(
                ReportRecord(
                    id=f"{modality.lower()}-{seed}-{i:05d}",
                    modality=modality,
                    findings=findings,
                    diagnosis=diagnosis,
                )
            )
    return records


def modality_counts(records) -> dict[str, int]:
    counts = {m: 0 for m in MODALITIES}
    for rec in records:
        counts[rec.modality] += 1
    return counts
