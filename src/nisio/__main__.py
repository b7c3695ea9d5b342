"""``python -m nisio``: the command line driver of :mod:`nisio.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
