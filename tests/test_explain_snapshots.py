"""Golden explain() snapshots, one per pipeline query x strategy.

The staged lowering pipeline's ``explain()`` rendering (logical plan,
pass notes with cost estimates, physical plan) is committed under
``tests/snapshots/explain/`` and diffed here, so any change to the
planner's decisions — a pass flipping from applied to declined, an
access mode changing, a pipeline reordering — shows up in review as a
readable snapshot diff instead of silent plan drift.

Snapshots are rendered on the shared ``tpch_db`` fixture (SF 0.002,
deterministic generator) and the unscaled paper machine. To regenerate
after an intentional planner change::

    REPRO_UPDATE_SNAPSHOTS=1 PYTHONPATH=src \
        python -m pytest tests/test_explain_snapshots.py -q
"""

import os
import pathlib

import pytest

from repro.tpch import PIPELINE_QUERIES, STRATEGIES

from .conftest import compile_named

SNAPSHOT_DIR = pathlib.Path(__file__).parent / "snapshots" / "explain"

_UPDATE = bool(os.environ.get("REPRO_UPDATE_SNAPSHOTS"))


@pytest.mark.parametrize("name", PIPELINE_QUERIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_explain_matches_snapshot(tpch_db, name, strategy):
    rendered = compile_named(name, strategy, tpch_db).notes["explain"]
    assert rendered.endswith("\n") or "\n" in rendered
    path = SNAPSHOT_DIR / f"{name}_{strategy}.txt"
    if _UPDATE:
        SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"missing snapshot {path}; regenerate with "
            "REPRO_UPDATE_SNAPSHOTS=1"
        )
    expected = path.read_text().rstrip("\n")
    assert rendered.rstrip("\n") == expected, (
        f"explain() drifted from {path.name}; if the plan change is "
        "intentional, regenerate with REPRO_UPDATE_SNAPSHOTS=1"
    )


def test_snapshot_dir_has_no_strays():
    """Every committed snapshot corresponds to a live query/strategy."""
    expected = {
        f"{name}_{strategy}.txt"
        for name in PIPELINE_QUERIES
        for strategy in STRATEGIES
    }
    actual = {p.name for p in SNAPSHOT_DIR.glob("*.txt")}
    assert actual == expected
