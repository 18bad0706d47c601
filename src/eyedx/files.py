"""Whole-or-nothing file writes, the one way eyedx writes an output file or
makes a directory."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write data to path whole or not at all, making path's directory first.

    The bytes go to a new sibling temporary in path's directory, which
    os.replace then moves onto path (onto a symlink's target, for a symlink).
    On any error, or an interrupt, the temporary is removed and the error
    raised, and a file already at path keeps its bytes.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    target = Path(os.path.realpath(path))
    temporary = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:  # outside the clean-up below: a name taken by another writer is left alone
        fh = open(temporary, "xb")
    except OSError as exc:
        exc.filename = str(path)  # the error names the file asked for
        raise
    try:
        with fh:
            fh.write(data)
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
