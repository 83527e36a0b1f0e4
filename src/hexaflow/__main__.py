"""`python -m hexaflow`: the same command line as the `hexaflow` script."""
from hexaflow.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
