import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

if not run.prepare_process():
    raise RuntimeError("the perfbench tests need the riskpath source tree under src/")
