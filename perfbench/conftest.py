"""Put the program's source on the path for the benchmark's own tests."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))
