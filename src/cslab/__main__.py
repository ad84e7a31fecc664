"""``python -m cslab``: the command-line interface, also from a source
checkout with ``src`` on PYTHONPATH."""

import sys

from .cli import main

sys.exit(main())
