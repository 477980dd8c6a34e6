import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark's modules and the source tree it measures.
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
