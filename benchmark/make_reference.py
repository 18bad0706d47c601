"""Write reference.json: the outputs of the fixed reference instance.

    python3 benchmark/make_reference.py

Every benchmark run recomputes these outputs and reports the share that
still matches as ``reference_match``. Regenerate the file only in a change
that redefines the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    from run import OUT, ROOT, use_checkout

    use_checkout()
    from workloads import REFERENCE_SEED, WORKLOADS

    OUT.mkdir(exist_ok=True)
    reference = {"seed": REFERENCE_SEED}
    for name, workload in WORKLOADS.items():
        reference[name] = workload(REFERENCE_SEED, OUT).reference_outputs()
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
