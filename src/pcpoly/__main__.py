"""``python -m pcpoly``: the ``pcpoly`` command line."""

import sys

from .cli import main

sys.exit(main())
