"""``python -m graphflow``: the command line of :mod:`graphflow.cli`."""
from .cli import main

main()
