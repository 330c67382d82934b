"""``python -m mtlmon``: the command-line interface of ``mtlmon.cli``."""
from .cli import main

raise SystemExit(main())
