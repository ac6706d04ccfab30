"""Which expdyn the tests import.

This checkout's src goes on sys.path right after the PYTHONPATH entries:
an expdyn on PYTHONPATH (another checkout's src, say) is the one tested,
and without one the tests import this checkout's, never an installed
copy.
"""

import os
import sys

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
_ENV = {os.path.abspath(p)
        for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
sys.path.insert(max([k + 1 for k, p in enumerate(sys.path)
                     if os.path.abspath(p) in _ENV], default=0), SRC)
