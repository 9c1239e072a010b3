"""``python -m casener``: the ``casener`` command."""

from .cli import cli_main

cli_main()
