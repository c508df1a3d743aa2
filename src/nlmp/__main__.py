"""``python -m nlmp``: the command line, as the ``nlmp`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
