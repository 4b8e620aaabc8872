"""One sweep for every paper-figure test.

A cell two figures read (Figure 6's ``dynamic`` bar and Figure 7's, every
Figure 7 bar and Table 1's) runs once per session.
"""

from __future__ import annotations

import pytest

from repro.bench.sweep import Sweep


@pytest.fixture(scope="session")
def sweep() -> Sweep:
    return Sweep()
