"""`python -m qmi`: the qmi command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
