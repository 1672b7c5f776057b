"""Make the benchmark package and the program importable for its tests."""

import os
import sys

LIVE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LIVE))
for path in (LIVE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
