"""Reference implementations the tests and demos check eyedx against.

Each one is deliberately naive (brute force, or no cache) so that it shares
no code path with what it checks.
"""

import itertools
import unicodedata

import numpy as np

from eyedx import DataError
from eyedx.numerics import softmax
from eyedx.tokenizer import _CJK_RANGES, EOS_ID, segment

_GRADES = ("mild", "moderate", "severe")
_DR = ["no diabetic retinopathy"] + [f"{g} nonproliferative diabetic retinopathy" for g in _GRADES]

# Every diagnosis string eyedx.corpus.synthesize can emit, written out from the
# grammar rather than read from it.
DIAGNOSIS_LABELS = frozenset(
    [f"{g} meibomian gland dysfunction with evaporative dry eye" for g in _GRADES]
    + _DR
    + [f"{base} ; glaucoma suspect with enlarged cupping" for base in _DR]
    + [
        "serous macular detachment with subretinal fluid",
        "moderate cystoid macular edema",
        "severe cystoid macular edema",
        "normal macular contour",
    ]
)


# The elementwise helpers of eyedx.numerics and eyedx.model as plain
# expressions, a fresh array for every step. The in-place forwards must equal
# these bit for bit; the backwards, which compute in another form, must match
# them to rounding.


def softmax_plain(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward_plain(y, dy, axis=-1):
    return y * (dy - (dy * y).sum(axis=axis, keepdims=True))


def silu_plain(z):
    return z / (1.0 + np.exp(-z))


def silu_backward_plain(z, dy):
    """Takes z, where eyedx.numerics.silu_backward takes silu's act and den."""
    s = 1.0 / (1.0 + np.exp(-z))
    return dy * s * (1.0 + z * (1.0 - s))


def rmsnorm_fwd_plain(x, gain, eps):
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
    return x * inv * gain, inv


def rmsnorm_bwd_plain(x, gain, inv, dy):
    s = (dy * gain * x).sum(axis=-1, keepdims=True)
    return dy * gain * inv - x * (inv**3) * s / x.shape[-1]


def apply_rope_plain(x, cos, sin):
    e, o = x[..., 0::2], x[..., 1::2]
    c = cos[..., :, None, :]
    s = sin[..., :, None, :]
    out = np.empty_like(x)
    out[..., 0::2] = e * c - o * s
    out[..., 1::2] = e * s + o * c
    return out


def normalize(text: str) -> str:
    """Canonical text form: tokens joined by single spaces, the form decode gives."""
    return " ".join(segment(text))


def finite_difference(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f at x, elementwise.

    The oracle for every hand-derived backward in eyedx. Runs in the dtype
    of x; call with float64 for trustworthy digits.
    """
    x = np.asarray(x)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = f(x)
        flat_x[i] = orig - h
        f_minus = f(x)
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def grad_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-based relative error between two gradients of the same shape."""
    diff = np.linalg.norm(analytic - numeric)
    scale = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12)
    return float(diff / scale)


def lcs_oracle(a, b) -> int:
    """LCS length by exhaustive enumeration of subsequences.

    Deliberately brute force, as an independent check on lcs_length; the
    length cap keeps the 2**|a| enumeration tractable.
    """
    if len(a) > 12 or len(b) > 12:
        raise DataError(
            f"lcs_oracle is exponential; lengths {len(a)} and {len(b)} exceed the cap of 12"
        )
    if len(a) > len(b):
        a, b = b, a
    best = 0
    for bits in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if bits >> i & 1]
        if len(sub) > best and _is_subsequence(sub, b):
            best = len(sub)
    return best


def _is_subsequence(sub, seq) -> bool:
    pos = 0
    for token in sub:
        while pos < len(seq) and seq[pos] != token:
            pos += 1
        if pos == len(seq):
            return False
        pos += 1
    return True


def recompute_greedy(model, prompt, budget):
    """Argmax decoding that reruns the whole prefix each step, no cache."""
    seq, out = list(prompt), []
    for _ in range(budget):
        nxt = int(np.argmax(model.forward(np.array(seq))[-1]))
        if nxt == EOS_ID:
            break
        out.append(nxt)
        seq.append(nxt)
    return out


def recompute_sampled(model, prompt, params, budget):
    """Sampled decoding that reruns the whole prefix each step, no cache: one
    row filtered alone, its token drawn by Generator.choice."""
    rng = np.random.default_rng(params.seed)
    seq, out = list(prompt), []
    for _ in range(budget):
        probs = filter_logits_row(model.forward(np.array(seq))[-1], seq, params)
        nxt = int(rng.choice(probs.shape[0], p=probs))
        if nxt == EOS_ID:
            break
        out.append(nxt)
        seq.append(nxt)
    return out


def is_cjk_scan(ch: str) -> bool:
    """Whether ch falls in a CJK range, by scanning every range."""
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def segment_loop(text: str) -> list[str]:
    """eyedx.tokenizer.segment one character at a time: after NFC, a space
    ends a run, a CJK codepoint (by the range scan) or any character that is
    not a letter, mark or digit is a token of its own, and runs of N*
    categories or of L*/M* categories are tokens."""
    tokens: list[str] = []
    run: list[str] = []
    run_kind = ""  # "L" letters, "D" digits

    def flush():
        if run:
            tokens.append("".join(run))
            run.clear()

    for ch in unicodedata.normalize("NFC", text):
        if ch.isspace():
            flush()
            continue
        if is_cjk_scan(ch):
            flush()
            tokens.append(ch)
            continue
        cat = unicodedata.category(ch)
        if cat.startswith("N"):
            kind = "D"
        elif cat[0] in ("L", "M"):
            kind = "L"
        else:
            flush()
            tokens.append(ch)
            continue
        if run and run_kind != kind:
            flush()
        run.append(ch)
        run_kind = kind
    flush()
    return tokens


def filter_logits_row(logits, seen_ids, params):
    """One row's probability vector after all active stages, one row at a time:
    the oracle for eyedx.sample.filter_logits, which filters every row at once."""
    z = logits.astype(np.float64).copy()
    vocab = z.shape[0]

    if params.repetition_penalty != 1.0 and len(seen_ids) > 0:
        seen = np.fromiter(set(seen_ids), dtype=np.int64)
        zs = z[seen]
        z[seen] = np.where(zs > 0, zs / params.repetition_penalty, zs * params.repetition_penalty)

    if params.temperature != 1.0:
        z = z / params.temperature

    if params.top_k < vocab:
        cut = np.partition(z, -params.top_k)[-params.top_k]
        z[z < cut] = -np.inf

    probs = softmax(z)

    if params.top_p < 1.0:
        order = np.argsort(-probs, kind="stable")
        csum = np.cumsum(probs[order])
        # smallest prefix whose mass reaches top_p; the top token always stays
        keep = int(np.searchsorted(csum, params.top_p)) + 1
        drop = order[keep:]
        probs[drop] = 0.0

    return probs / probs.sum()


def split_rows(weights, n):
    """Of every cut of the rows into n contiguous shards of positive weight,
    taken in order of their cut points, the first with the lightest heaviest
    shard and, among those, the heaviest lightest: the oracle for
    eyedx.shards._split_rows, which finds it by two passes over prefix cuts."""
    rows = len(weights)
    best = None
    for inner in itertools.combinations(range(1, rows), n - 1):
        cuts = (0, *inner, rows)
        sizes = [sum(weights[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        if min(sizes) > 0 and (best is None or (max(sizes), -min(sizes)) < best[0]):
            best = (max(sizes), -min(sizes)), cuts
    return [slice(lo, hi) for lo, hi in zip(best[1], best[1][1:])]
