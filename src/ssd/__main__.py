"""`python -m ssd`: the same command line as the `ssd` script."""

from .cli import main

main()
