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


_THREADS = """
import importlib, json, sys, threading
import _transfer_reference as ref
from gramcalc import _transfer
from gramcalc.permstat import stat_table

sys.setswitchinterval(1e-6)
sizes = json.loads(sys.argv[1])
wrong = []
for trial in range(8):
    importlib.reload(_transfer)  # a pass that starts again from one letter
    start = threading.Barrier(len(sizes))
    got = {}

    def ask(i, n):
        start.wait()
        got[i] = stat_table(n, "peak_dd").counts

    threads = [threading.Thread(target=ask, args=(i, n)) for i, n in enumerate(sizes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # the threads' own tables, then the tables the shared pass serves afterwards
    later = {n: stat_table(n, "exterior_pdd").counts for n in sizes}
    for i, n in enumerate(sizes):
        if got[i] != ref.count_table(n, "peak_dd"):
            wrong.append([trial, "thread", n])
        if later[n] != ref.count_table(n, "exterior_pdd"):
            wrong.append([trial, "later", n])
print(json.dumps(wrong))
"""


def test_concurrent_tables_share_one_correct_pass():
    # Four threads grow the shared pass at once, with the interpreter switching
    # threads as often as it can; every table, and every later one, must match.
    path = os.pathsep.join([str(_TESTS.parent / "src"), str(_TESTS)])
    result = subprocess.run(
        [sys.executable, "-c", _THREADS, json.dumps([12, 18, 25, 25])],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == []
