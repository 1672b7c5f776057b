"""``python -m repro.qlint``: the ``qlint`` command of ``python -m repro``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["qlint", *sys.argv[1:]]))
