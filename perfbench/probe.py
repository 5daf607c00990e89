"""Set-up probe: import ramseykit and load a workload's input files.

Run as ``python3 perfbench/probe.py WORKDIR``; prints ``ready`` once the
first question could be asked.  run.py times it from process start.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ramseykit  # noqa: E402

manifest = json.loads((Path(sys.argv[1]) / "manifest.json").read_text())
for path in manifest["families"].values():
    ramseykit.PatternFamily.load(path)
for path, _ in manifest["colorings"].values():
    ramseykit.Coloring.load(path)
print("ready", flush=True)
