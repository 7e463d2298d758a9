"""Put the benchmark's modules on ``sys.path`` for its tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
