"""`python -m iwlab SUITE [options]`: the `iwlab` command without installing."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
