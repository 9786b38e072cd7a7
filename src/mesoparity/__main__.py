import gc
import sys

from .cli import main

# What the imports made lives until exit.  Frozen, it is left out of every
# full collection, the one at interpreter exit included.  Only `python -m
# mesoparity` freezes; `import mesoparity.cli` leaves the collector alone.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
