"""Smoke tests for the scripts under scripts/, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

from crosscap import normalized_knots

ROOT = Path(__file__).resolve().parents[1]


def run_script_process(name, *args):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_script(name, *args):
    result = run_script_process(name, *args)
    result.check_returncode()
    return result.stdout.splitlines()


def test_gap_growth_gap_is_half_k_rounded_up():
    header, *rows = run_script("gap_growth.py", "--q", "3", "--residue", "4", "--rows", "6")
    assert header.split() == ["p", "q", "k", "beta1_F", "gamma3", "gap"]
    assert len(rows) == 6
    table = [tuple(map(int, row.split())) for row in rows]
    for _, _, k, beta1_f, gamma3, gap in table:
        assert gap == gamma3 - beta1_f == (k + 1) // 2
    # along the congruence class p = 4 mod 6 each row adds 2q to p: k rises
    # by 2 and the gap by 1, while beta1_F stays the same
    assert [row[:3] for row in table] == [(4 + 6 * i, 3, 1 + 2 * i) for i in range(6)]
    for before, after in zip(table, table[1:]):
        assert after[2] - before[2] == 2
        assert after[5] - before[5] == 1
        assert after[3] == before[3]


def test_gap_growth_rejects_a_residue_sharing_a_factor_with_q():
    # 6 and 3 are not coprime, so T(6,3) is no knot: a usage error, exit 2
    result = run_script_process("gap_growth.py", "--q", "3", "--residue", "6")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "--residue must be coprime to --q" in result.stderr


def test_sign_census_total_counts_every_knot():
    lines = run_script("sign_census.py", "--max", "30")
    total = lines[-1].split()
    assert total[0] == "total"
    assert int(total[1]) == len(list(normalized_knots(30)))
