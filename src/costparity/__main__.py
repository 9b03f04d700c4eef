"""``python -m costparity``: the command-line interface."""

from .cli import main

main()
