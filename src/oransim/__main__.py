"""``python -m oransim``: the command-line interface (see ``oransim.cli``)."""

import sys

from .cli import main

sys.exit(main())
