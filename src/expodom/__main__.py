"""`python -m expodom`: the command line, as the `expodom` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
