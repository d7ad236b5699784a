"""The ledger's tests import ``repro`` from the checkout's ``src/``.

Run with ``python -m pytest ledger/tests -q`` from the repo root; the
tier-1 suite's ``testpaths`` does not include this directory.
"""

import sys

from ledger import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
