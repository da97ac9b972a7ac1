"""Shared test setup: one deterministic hypothesis profile for every test.

derandomize makes each property test draw the same examples on every run,
database=None keeps no store of past examples, and deadline=None stops
timing noise on a loaded machine from failing a test that is merely slow.
Hypothesis still caches the literals it reads from the package's source;
its home directory goes to the system temp directory so that no
.hypothesis/ directory appears in the working tree.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("cellbeam", derandomize=True, database=None, deadline=None)
settings.load_profile("cellbeam")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cellbeam-hypothesis")
