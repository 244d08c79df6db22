"""`python -m lanslab`: the command line of lanslab.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
