"""Make the program under ``src/`` importable from the benchmark's tests."""

import sys

from perfbench.common import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
