#!/usr/bin/env python3
"""Does the ledger agree with itself?

    python3 ledger/selfcheck.py [--workload W ...] [--seed N] [--runs R]
                                [--seconds S | --rounds N]
    python3 ledger/selfcheck.py --first A.json [A2.json ...]
                                --second B.json [B2.json ...]

Measures two *sets* of runs of the same code — each set is R untraced
runs on seeds N..N+R-1 (default 3) plus one traced run — or reads two
sets of reports written with ``run.py --out`` (a parent commit's and a
change's, say). Prints, per (metric, workload), both sets' medians and
the relative gap against the bound ``BENCHMARK.json`` fixes. Exits
non-zero when a gated metric's gap exceeds its bound, or when a metric
marked *exact* takes more than one value anywhere in the two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT)]

from ledger import LEDGER_DIR, OUT_DIR, report  # noqa: E402
from ledger.workloads import WORKLOADS  # noqa: E402


def _values(reports: List[dict], workload: str, name: str) -> List[float]:
    """Every reading of one metric on one workload in a set of reports
    (``null`` readings, e.g. a scaling ratio on one CPU, left out)."""
    found = []
    for ledger in reports:
        record = ledger["workloads"].get(workload, {}).get(
            "metrics", {}
        ).get(name)
        if record is not None and record["value"] is not None:
            found.append(record["value"])
    return found


def compare(
    first: List[dict], second: List[dict], benchmark: dict
) -> Tuple[List[str], List[str]]:
    """Table lines and failure messages for two sets of reports."""
    decl = report.declared(benchmark)
    lines: List[str] = []
    failures: List[str] = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        if not any(workload in ledger["workloads"] for ledger in first):
            continue
        lines.append(f"== {workload} ==")
        for name in decl:
            a = _values(first, workload, name)
            b = _values(second, workload, name)
            if not a and not b:
                continue
            verdict, problem = judge(name, a, b, decl[name])
            lines.append(
                f"  {name:<42s} {_show(a):>14s} {_show(b):>14s}  {verdict}"
            )
            if problem:
                failures.append(f"{workload}: {name}: {problem}")
    return lines, failures


def judge(
    name: str, a: List[float], b: List[float], decl: dict
) -> Tuple[str, Optional[str]]:
    """How two sets of readings of one metric compare: the text for
    the table and, when they disagree by more than they may, what is
    wrong."""
    if not a or not b:
        return "missing on one side", "present in one set only"
    if name in report.EXACT:
        if len(set(a + b)) == 1:
            return "exact: identical", None
        return (
            "exact: DIFFERS",
            f"exact metric takes {sorted(set(a + b))!r}",
        )
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    if mid_a == 0:
        return "gap n/a (base 0)", None
    gap = abs(mid_b - mid_a) / abs(mid_a)
    bound = decl.get("bound")
    if bound is None:
        return f"gap {gap:7.2%}", None
    if gap <= bound:
        return f"gap {gap:7.2%} <= bound {bound:.0%}", None
    return (
        f"gap {gap:7.2%} >  bound {bound:.0%}  FAIL",
        f"medians {mid_a:.6g} and {mid_b:.6g} are {gap:.2%} apart; "
        f"the bound is {bound:.0%}",
    )


def _show(values: List[float]) -> str:
    if not values:
        return "-"
    return f"{statistics.median(values):.6g}"


def run_ledger(args, seed: int, trace: str, out: Path) -> dict:
    command = [
        sys.executable, str(LEDGER_DIR / "run.py"),
        "--seed", str(seed), "--trace", trace, "--out", str(out),
    ]
    for workload in args.workload:
        command += ["--workload", workload]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    elif args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def run_set(args, scratch: Path) -> List[dict]:
    """R untraced runs on consecutive seeds, then one traced run."""
    out = scratch / "report.json"
    return [
        run_ledger(args, args.seed + i, "0", out) for i in range(args.runs)
    ] + [run_ledger(args, args.seed, "1", out)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", default=[], choices=list(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float)
    length.add_argument("--rounds", type=int)
    parser.add_argument("--first", nargs="+", type=Path, metavar="FILE")
    parser.add_argument("--second", nargs="+", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    if bool(args.first) != bool(args.second):
        parser.error("--first and --second go together")

    benchmark = report.load_benchmark()
    if args.first:
        first, second = (
            [json.loads(path.read_text()) for path in paths]
            for paths in (args.first, args.second)
        )
    else:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
            first = run_set(args, Path(scratch))
            second = run_set(args, Path(scratch))
    for label, reports in (("first", first), ("second", second)):
        print(f"-- {label} set: {len(reports)} report(s) --")
        print(report.render_header(reports[0]))
    lines, failures = compare(first, second, benchmark)
    print(f"{'':<44s} {'first median':>14s} {'second median':>14s}")
    print("\n".join(lines))
    if failures:
        print(f"\nselfcheck FAILED ({len(failures)}):")
        print("\n".join(f"  {failure}" for failure in failures))
        return 1
    print("\nselfcheck passed: every gated metric within its bound, "
          "every exact metric identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
