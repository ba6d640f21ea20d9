"""`python -m trc`: the command line of trc.cli."""

import sys

from .cli import main

sys.exit(main())
