"""The repo's performance ledger.

One harness, five workloads, both clocks (wall time and simulated
cycles), and a per-layer trace. ``ledger/run.py`` is the entry point;
``BENCHMARK.json`` at the repo root declares every metric and workload
by name, and ``ledger/README.md`` is the glossary.

The ledger measures ``src/repro`` from outside, through its public
functions only, and changes nothing in it.
"""

from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (scratch cache dirs, trace files)
#: lands here; the root ``.gitignore`` names it.
OUT_DIR = LEDGER_DIR / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
