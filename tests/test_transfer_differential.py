"""The one-pass transfer tables against the per-table reference.

``_transfer_reference.count_table`` regrows the permutation for every
``(n, kind)``; the package grows one pass per process and serves every table
from the levels it has passed.  The pass depends on the order in which tables
are asked for, so each order runs in a fresh interpreter, where the pass
starts from one letter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gramcalc._names import MAX_N, TABLE_KINDS

_TESTS = Path(__file__).resolve().parent

_COMPARE = """
import json, sys
import _transfer_reference as ref
from gramcalc._names import TABLE_KINDS
from gramcalc.permstat import stat_table

checked, wrong = 0, []
for n in json.loads(sys.argv[1]):
    for kind in TABLE_KINDS:
        checked += 1
        if stat_table(n, kind).counts != ref.count_table(n, kind):
            wrong.append([n, kind])
print(json.dumps({"checked": checked, "wrong": wrong}))
"""


@pytest.mark.parametrize(
    "order",
    [list(range(1, MAX_N + 1)), list(range(MAX_N, 0, -1))],
    ids=["ascending", "largest_first"],
)
def test_one_pass_matches_reference_in_a_fresh_process(order):
    path = os.pathsep.join([str(_TESTS.parent / "src"), str(_TESTS)])
    result = subprocess.run(
        [sys.executable, "-c", _COMPARE, json.dumps(order)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == {"checked": MAX_N * len(TABLE_KINDS), "wrong": []}
