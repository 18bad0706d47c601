"""Entry point of python -m eyedx and of the eyedx script."""

import sys


def run() -> int:
    """main's exit status. Importing the command-line module loads numpy and
    every other module, long enough for a Ctrl-C to land before main's
    handler is in place; such a Ctrl-C also prints interrupted and exits 130."""
    try:
        from .cli import main
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return main()


if __name__ == "__main__":
    sys.exit(run())
