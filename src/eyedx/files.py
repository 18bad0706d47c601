"""Every file-system decision the commands make: the one reader of input
files, the checks on a command's output paths, and the whole-or-nothing
write that makes each output file and its directory. No other module of
eyedx reads, makes or writes a file (tests/test_side_effects.py checks it)."""

from __future__ import annotations

import os
from pathlib import Path

from .errors import DataError, UsageError


def _read(path, read):
    try:
        return read(Path(path))
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise DataError(f"{path} not found") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def input_bytes(path: str | Path) -> bytes:
    """path's bytes; a missing file, or one under a file, is a DataError
    naming it."""
    return _read(path, Path.read_bytes)


def input_text(path: str | Path) -> str:
    """path's UTF-8 text, read as Path.read_text reads it, each \\r\\n and \\r
    as \\n; bytes that are not UTF-8 are a DataError too."""
    return _read(path, lambda p: p.read_text(encoding="utf-8"))


def check_outputs(outputs, inputs=()) -> None:
    """A command's output paths, checked before any work; outputs and inputs
    are (flag, path) pairs, and a pair whose path is None names no file.

    An output that is a directory, or lies under a file, is a DataError; a
    missing directory is not, since write_atomic makes it. An output that
    resolves to another output or to an input is a UsageError.
    """
    outputs = [(flag, Path(path)) for flag, path in outputs if path is not None]
    for flag, path in outputs:
        if path.is_dir():
            raise DataError(f"{flag} {path} is a directory")
        above = next(parent for parent in path.parents if parent.exists())
        if not above.is_dir():
            raise DataError(f"{flag} {path}: {above} is not a directory")
    named = {}
    for i, (flag, path) in enumerate([*outputs, *inputs]):
        if path is None:
            continue
        key = Path(path).resolve()
        if key in named:
            raise UsageError(f"{named[key]} and {flag} both name {path}")
        if i < len(outputs):
            named[key] = flag


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
