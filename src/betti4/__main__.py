"""``python -m betti4``: the same command line as the installed ``betti4``."""

from .cli import entry

entry()
