"""`python -m srk`: the command-line front door (see `srk.cli`)."""

import sys

from .cli import main

sys.exit(main())
