"""Entry point of python -m eyedx and of the eyedx script."""

import signal
import sys


def run() -> int:
    """main's exit status. A Ctrl-C that lands as eyedx.cli loads, before
    main's handler, or escapes main prints interrupted and exits 130; once
    main is done its files are complete, and a Ctrl-C is ignored."""
    try:
        from .cli import main
        return main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)


if __name__ == "__main__":
    sys.exit(run())
