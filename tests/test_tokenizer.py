"""Tokenizer segmentation, vocabulary build, encode/decode."""

import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eyedx import DataError
from eyedx import tokenizer as tokenizer_module
from eyedx.corpus import synthesize
from eyedx.tokenizer import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocabulary,
    build,
    segment,
)
from oracles import is_cjk_scan, normalize, segment_loop


# ------------------------------------------------------------- segmentation


def test_segment_hand_examples():
    assert segment("tear break-up time 7 seconds") == [
        "tear",
        "break",
        "-",
        "up",
        "time",
        "7",
        "seconds",
    ]
    assert segment("cmt 412um (od)") == ["cmt", "412", "um", "(", "od", ")"]
    assert segment("") == []
    assert segment("   \t\n ") == []
    assert segment("0.45") == ["0", ".", "45"]


def test_segment_cjk_per_codepoint():
    assert segment("左眼黄斑水肿") == ["左", "眼", "黄", "斑", "水", "肿"]
    assert segment("oct显示cmt420") == ["oct", "显", "示", "cmt", "420"]


def test_segment_nfc_stability():
    assert segment("café") == segment("café")


RANGE_ENDS = (  # ends of the CJK ranges between letters, and code points just outside them
    "a\u3041b\u30ffc\u3400d\u4dbfe\u4e00f\u9fffg\uac00h\ud7a3i\uf900j\U00020000k\U0002a6dfl"
    " \u303f\u3040\u3100\uabff\ud7b0\ufaff\U0002a6e0 眼底"
)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
@example(RANGE_ENDS)
def test_segment_matches_the_range_scan_predicate(text):
    """segment's kinds come from _is_cjk: with the range scan patched in and
    an empty kind table, every non-space character reaches the scan, and the
    tokens stay the same."""
    want = segment(text)
    reached = set()

    def scan(ch):
        reached.add(ch)
        return is_cjk_scan(ch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("eyedx.tokenizer._is_cjk", scan)
        patch.setattr("eyedx.tokenizer._KINDS", tokenizer_module._Kinds())
        assert segment(text) == want
    assert reached == {ch for ch in unicodedata.normalize("NFC", text) if not ch.isspace()}


@given(st.text())
@settings(max_examples=500, deadline=None)
@example(RANGE_ENDS)
@example("cafe\u0301 e\u0301\u0327t\u00e9 x\u20dd2\u0663\u00b2 \u2003a\u3000b\xa0c\u2028d")
@example("\U0002a6df\U0002a6e0\U00020000\U0001ffff 12\U0002a6dfab\u0300")
def test_segment_matches_the_per_character_loop(text):
    """The translate-and-regex segment gives the tokens of the per-character
    loop it replaced, which scans the CJK ranges itself."""
    assert segment(text) == segment_loop(text)


def test_the_kind_table_stays_bounded():
    """Text of more distinct codepoints than the kind table holds fills it to
    its bound and no further, and still segments as the loop does."""
    table = tokenizer_module._Kinds()
    cap = tokenizer_module._KINDS_MAX
    text = "".join(map(chr, range(0x20000, 0x20000 + 2 * cap))) + " ab1 " + "\u4e00\u0300" * 3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("eyedx.tokenizer._KINDS", table)
        assert segment(text) == segment_loop(text)
        assert len(table) == cap
        assert segment(text) == segment_loop(text)
        assert len(table) == cap


@given(st.text(alphabet="ab12.,眼 \t", max_size=40))
@settings(max_examples=200, deadline=None)
def test_segment_tokens_are_nonempty_and_unspaced(text):
    for tok in segment(text):
        assert tok
        assert not any(c.isspace() for c in tok)


@given(st.text(alphabet="ab12.,眼 ", max_size=40))
@settings(max_examples=100, deadline=None)
def test_normalize_is_idempotent(text):
    assert normalize(normalize(text)) == normalize(text)


# ------------------------------------------------------------- build


def test_build_frequency_then_lexicographic_order():
    vocab = build(["b a a c c"], max_vocab=8)
    # a and c tie at 2, so a sorts first; b trails with 1
    assert vocab.tokens == SPECIAL_TOKENS + ("a", "c", "b")


def test_build_is_deterministic():
    texts = [r.findings for r in synthesize(30, seed=0)]
    assert build(texts) == build(list(reversed(texts)))


def test_build_truncates_to_max_vocab():
    texts = [" ".join(f"w{i}" for i in range(50))]
    vocab = build(texts, max_vocab=10)
    assert vocab.size == 10 + len(SPECIAL_TOKENS)


def test_build_rejects_empty_and_tiny_max():
    with pytest.raises(DataError):
        build([])
    with pytest.raises(DataError):
        build(["   "])
    with pytest.raises(DataError):
        build(["a"], max_vocab=7)


# ------------------------------------------------------------- encode/decode


@pytest.fixture(scope="module")
def vocab():
    records = synthesize(200, seed=0)
    return build([r.findings + " " + r.diagnosis for r in records])


def test_encode_empty_is_empty(vocab):
    assert vocab.encode("") == []


def test_oov_maps_to_unk(vocab):
    ids = vocab.encode("zzzunknownzzz percent")
    assert ids[0] == UNK_ID
    assert ids[1] != UNK_ID


def test_decode_round_trip_on_corpus(vocab):
    # in-vocab guarantee: round-trip records the vocabulary was built from
    for rec in synthesize(200, seed=0)[:60]:
        text = rec.findings
        assert vocab.decode(vocab.encode(text)) == normalize(text)


def test_decode_skips_structural_specials(vocab):
    ids = [BOS_ID] + vocab.encode("gland dropout") + [EOS_ID, PAD_ID, PAD_ID]
    assert vocab.decode(ids) == "gland dropout"


def test_decode_renders_unk_marker(vocab):
    assert vocab.decode([UNK_ID]) == "<unk>"


def test_decode_rejects_out_of_range(vocab):
    with pytest.raises(DataError, match="out of range"):
        vocab.decode([vocab.size])
    with pytest.raises(DataError, match="out of range"):
        vocab.decode([-1])


def test_specials_never_produced_by_scanning():
    # segmentation splits "<bos>" so the literal special strings cannot collide
    vocab = build(["<bos> <eos> hello"], max_vocab=20)
    assert vocab.encode("hello")[0] >= len(SPECIAL_TOKENS)
    assert set(SPECIAL_TOKENS) & set(vocab.tokens[len(SPECIAL_TOKENS) :]) == set()


@given(st.text(alphabet="abc12 ,.眼底", max_size=60))
@settings(max_examples=150, deadline=None)
def test_round_trip_property_with_self_vocab(text):
    tokens = segment(text)
    if not tokens:
        return
    vocab = build([text], max_vocab=max(8, len(tokens)))
    assert vocab.decode(vocab.encode(text)) == normalize(text)


def test_vocabulary_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        Vocabulary(tokens=SPECIAL_TOKENS + ("a", "a"))
