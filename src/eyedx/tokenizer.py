"""Word-level tokenizer with a fixed special-token header.

Segmentation is unicode-word style: runs of letters, runs of digits, each CJK
codepoint on its own, and every punctuation or symbol character as a single
token. Ids 0..3 are reserved for bos/eos/pad/unk; corpus tokens start at 4.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError

BOS_ID = 0
EOS_ID = 1
PAD_ID = 2
UNK_ID = 3
SPECIAL_TOKENS = ("<bos>", "<eos>", "<pad>", "<unk>")

# Han ideographs, kana, hangul: scripts without spaces between words, so each
# codepoint becomes its own token.
_CJK_RANGES = (
    (0x3040, 0x30FF),  # hiragana + katakana
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xAC00, 0xD7AF),  # hangul syllables
    (0xF900, 0xFAFF),
    (0x20000, 0x2A6DF),
)


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    if cp < 0x3040:  # below every range: all of Latin, digits and punctuation
        return False
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def _kind(ch: str) -> str:
    """Which token ch belongs to: " " none (a space), "c" a token of its own
    (CJK, punctuation, symbols), "d" a run of digits, "l" a run of letters
    and marks."""
    if ch.isspace():
        return " "
    if _is_cjk(ch):
        return "c"
    cat = unicodedata.category(ch)
    if cat[0] == "N":
        return "d"
    return "l" if cat[0] in ("L", "M") else "c"


_KINDS_MAX = 1 << 14


class _Kinds(dict):
    """Codepoint -> _kind, the table segment translates text through, filled
    as codepoints are first met. It holds at most _KINDS_MAX of them; past
    that a codepoint's kind is worked out each time, so text of many distinct
    codepoints cannot grow it without bound. (Threads segmenting at once can
    pass the bound by one entry each; every entry is still its _kind.)"""

    def __missing__(self, cp: int) -> str:
        kind = _kind(chr(cp))
        if len(self) < _KINDS_MAX:
            self[cp] = kind
        return kind


_KINDS = _Kinds()
_TOKEN = re.compile("l+|d+|c")


def segment(text: str) -> list[str]:
    """Split text into tokens; pure function of the NFC-normalized input.

    Two passes in C: str.translate maps each character to its _kind, and one
    regex cuts the string of kinds into tokens, whose spans slice the text.
    """
    text = unicodedata.normalize("NFC", text)
    return [text[a:b] for a, b in map(re.Match.span, _TOKEN.finditer(text.translate(_KINDS)))]


@dataclass(frozen=True)
class Vocabulary:
    """Immutable id-to-token table; specials occupy ids 0..3."""

    tokens: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise DataError("vocabulary must start with the special tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_index", {tok: i for i, tok in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        """Map text to ids; out-of-vocabulary tokens become unk. Never fails."""
        return [self._index.get(tok, UNK_ID) for tok in segment(text)]

    def decode(self, ids) -> str:
        """Map ids back to text. Structural specials (bos/eos/pad) are dropped,
        unk renders as its marker string; unknown ids are an error."""
        out: list[str] = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise DataError(f"token id {i} out of range [0, {len(self.tokens)})")
            if i in (BOS_ID, EOS_ID, PAD_ID):
                continue
            out.append(self.tokens[i])
        return " ".join(out)


def build(texts, max_vocab: int = 4096) -> Vocabulary:
    """Scan texts and keep the max_vocab most frequent tokens.

    Ties break lexicographically so rebuilds are reproducible regardless of
    input ordering.
    """
    if max_vocab < 8:
        raise DataError(f"max_vocab must be >= 8, got {max_vocab}")
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(segment(text))
    if not counts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = tuple(tok for tok, _ in ranked[:max_vocab])
    return Vocabulary(tokens=SPECIAL_TOKENS + kept)
