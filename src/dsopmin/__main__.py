"""Entry point for ``python -m dsopmin``; the same as the dsopmin script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
