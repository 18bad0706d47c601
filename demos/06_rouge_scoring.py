"""ROUGE from first principles: n-gram overlap and longest common subsequence.

Scores a small candidate/reference pair by hand and confirms the library
agrees, shows why clipping matters when a candidate repeats itself, and
cross-checks the linear-space LCS dynamic program against a brute-force
oracle that enumerates subsequences (tests/oracles.py).

Run from the repository root:

    python demos/06_rouge_scoring.py
"""

import random
import sys
from pathlib import Path

from eyedx.rouge import lcs_length, rouge_l, rouge_n, score_pair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import lcs_oracle  # noqa: E402

reference = "retinal detachment with macular involvement"
candidate = "retinal detachment involving the macula"

# ------------------------------------------------------------------ by hand
#
# Reference unigrams: retinal, detachment, with, macular, involvement (5).
# Candidate unigrams: retinal, detachment, involving, the, macula (5).
# Overlap: retinal, detachment (2). So recall = precision = 2/5.

r1 = rouge_n(candidate.split(), reference.split(), n=1)
print(f"ROUGE-1: recall {r1.recall:.3f}  precision {r1.precision:.3f}  "
      f"f1 {r1.f1:.3f}")

# The only shared bigram is (retinal, detachment), out of 4 on each side.

r2 = rouge_n(candidate.split(), reference.split(), n=2)
print(f"ROUGE-2: recall {r2.recall:.3f}  precision {r2.precision:.3f}  "
      f"f1 {r2.f1:.3f}")

# ------------------------------------------------------------------ clipping
#
# Each reference occurrence can be matched at most once. A candidate that
# stutters the right word does not get to count it five times; without
# clipping this degenerate candidate would score perfect precision.

stutter = ["retinal"] * 5
clipped = rouge_n(stutter, reference.split(), n=1)
print(f"\n'retinal' x5 against the reference: "
      f"recall {clipped.recall:.3f}, precision {clipped.precision:.3f} "
      f"(one match out of five tokens, not five)")

# ------------------------------------------------------------------ lcs
#
# ROUGE-L uses the longest common subsequence: tokens must appear in the
# same order but need not be adjacent. Here the LCS is the pair
# (retinal, detachment), length 2.

a, b = candidate.split(), reference.split()
print(f"\nlcs length: {lcs_length(a, b)}")

rl = rouge_l(candidate.split(), reference.split())
print(f"ROUGE-L: recall {rl.recall:.3f}  precision {rl.precision:.3f}  "
      f"f1 {rl.f1:.3f}")

# The beta parameter weights recall against precision; beta -> infinity
# recovers recall, beta = 1 is the harmonic mean. A terse candidate ("retinal
# detachment" alone) has recall 0.4 but precision 1.0, so beta decides how
# much the brevity is forgiven.

terse = ["retinal", "detachment"]
for beta in (0.5, 1.0, 2.0, 1e6):
    label = "inf" if beta > 100 else f"{beta:3.1f}"
    print(f"  beta {label}: f {rouge_l(terse, b, beta=beta).f1:.3f}")

# ------------------------------------------------------------------ oracle
#
# The two-row dynamic program is the production path. For short sequences an
# independent oracle enumerates every subsequence of the shorter side and
# keeps the longest one that embeds in the other. Random cross-checks:

rng = random.Random(0)
checked = 0
for _ in range(300):
    x = [rng.choice("abcd") for _ in range(rng.randint(0, 9))]
    y = [rng.choice("abcd") for _ in range(rng.randint(0, 9))]
    assert lcs_length(x, y) == lcs_oracle(x, y)
    checked += 1
print(f"\ndynamic program matches the oracle on {checked} random pairs")

# ------------------------------------------------------------------ pairs
#
# score_pair() wraps all three metrics behind the pipeline's tokenizer, so
# punctuation and case are handled the same way training text is.

r1, r2, rl = score_pair("No intraretinal fluid, contour normal.",
                        "no intraretinal fluid , normal contour")
print(f"\nscore_pair: R-1 {r1.f1:.3f}  R-2 {r2.f1:.3f}  R-L {rl.f1:.3f}")
print("word order costs R-2 and R-L, but not R-1")
