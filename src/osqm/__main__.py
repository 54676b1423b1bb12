"""`python -m osqm` runs the command-line interface (see osqm.cli)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
