import sys
from pathlib import Path

# the benchmark imports equicheb from the checkout, not from an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
