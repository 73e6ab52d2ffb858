"""The CLI as a fresh process: ``python -m gramcalc.cli`` ends through ``cli.run``.

``run`` ends every request the same way: ``sys.exit``, then its own ``atexit``
callback runs the others and ends the process without interpreter teardown.
These tests check that a child prints what in-process ``main`` prints, that a
failed write is reported once with exit 1, that teardown never runs, and that
a profiler, a tracer, an ``atexit`` callback and a running thread still get to
finish.  The children run without ``PYTHONUNBUFFERED``: with it, stdout is
written at once and a failed write never waits for the flush.
"""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gramcalc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
TABLE = ["table", "--kind", "peak_dd", "--n", "4"]


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(args, **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args], env=_env(), stderr=subprocess.PIPE, timeout=120, **kwargs
    )


def _write_error(code: int) -> bytes:
    return f"gramcalc: error: [Errno {code}] {os.strerror(code)}\n".encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--grammar", "paper_G", "--start", "z", "--n", "4"],
        ["derive", "--grammar", "eulerian", "--start", "x", "--n", "5", "--format", "json"],
        TABLE,
        ["table", "--kind", "exterior_pdd", "--n", "5", "--format", "json"],
        ["table", "--kind", "peak_dd", "--n", "5", "--triangle", "T", "--format", "csv"],
        ["series", "--which", "gen_z", "--point", "x=4,y=2,z=1,w=3", "--root", "3", "--order", "6"],
        ["series", "--which", "no_pdd_U0", "--order", "8", "--egf", "--format", "json"],
        ["verify", "--check", "invariants", "--max-n", "3", "--order", "3"],
        ["verify", "--check", "closed_forms", "--max-n", "3", "--order", "3", "--format", "json"],
        ["series", "--which", "gen_z", "--point", "x=1"],
        ["table", "--kind", "peak_dd", "--n", "5", "--jobs", "2"],
        ["--version"],
        ["--help"],
    ],
    ids=[
        "derive", "derive_json", "table", "table_json", "triangle_csv", "series", "series_json",
        "verify", "verify_json", "bad_input", "bad_flag", "version", "help",
    ],
)
def test_child_matches_main(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    child = _child(["-m", "gramcalc.cli", *argv])
    assert (child.returncode, child.stdout, child.stderr) == (
        status, captured.out.encode(), captured.err.encode()
    )


def test_large_denominators_are_refused_within_seconds(tmp_path):
    # A start line of 100 terms over distinct 4300-digit denominators took
    # 86 s to read at --n 0: reducing it took a gcd chain cubic in the terms.
    # The denominator now grows term by term, and the 22nd term passes
    # gdsl.MAX_DENOMINATOR_WORDS.
    n = 10**4299
    terms = [f"1/{n + 2 * i + 1}*x^{i}*z^{100 - i}" for i in range(100)]
    path = tmp_path / "bigden.gram"
    path.write_text(
        f"vars: x z\nrule x -> x*z\nrule z -> x\nstart: {' + '.join(terms)}\n", encoding="utf-8"
    )
    child = subprocess.run(
        [sys.executable, "-m", "gramcalc.cli", "derive", "--grammar", str(path), "--n", "0"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=20,
    )
    column = len("start: " + " + ".join(terms[:21]) + " + ") + 1
    assert (child.returncode, child.stdout) == (1, b"")
    assert child.stderr.decode() == (
        f"gramcalc: error: line 4, column {column}: common denominators of more than "
        "100000 words, counted once per term (gdsl.MAX_DENOMINATOR_WORDS)\n"
    )


def test_write_to_closed_pipe_exits_1():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _child(["-m", "gramcalc.cli", *TABLE], stdout=write_end)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, _write_error(errno.EPIPE))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_to_full_device_exits_1():
    with open("/dev/full", "wb") as full:
        child = _child(["-m", "gramcalc.cli", *TABLE], stdout=full)
    assert (child.returncode, child.stderr) == (1, _write_error(errno.ENOSPC))


def test_closed_stderr_exits_0():
    # With descriptor 2 closed, sys.stderr is None and run() has nothing to flush.
    child = subprocess.run(
        ["sh", "-c", 'exec "$0" -m gramcalc.cli --version 2>&-', sys.executable],
        env=_env(), stdout=subprocess.PIPE, timeout=120,
    )
    assert (child.returncode, child.stdout) == (0, b"gramcalc 0.1.0\n")


def test_closed_stdout_exits_1():
    # With descriptor 1 closed, sys.stdout is None: a failed write, not a traceback.
    child = subprocess.run(
        ["sh", "-c", 'exec "$0" -m gramcalc.cli --version >&-', sys.executable],
        env=_env(), stderr=subprocess.PIPE, timeout=120,
    )
    assert (child.returncode, child.stderr) == (1, _write_error(errno.EBADF))


def test_failed_flush_returns_1(capsys, monkeypatch):
    class FullStdout:
        def write(self, text):
            return len(text)

        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(TABLE) == 1
    assert capsys.readouterr().err == _write_error(errno.ENOSPC).decode()


def test_profiler_report_is_printed():
    child = _child(["-m", "cProfile", "-m", "gramcalc.cli", *TABLE])
    assert child.returncode == 0
    assert child.stdout.startswith(b"(1, 0)  count=1\n")
    assert b" function calls " in child.stdout


def test_tracer_summary_is_printed(tmp_path):
    child = _child([
        "-m", "trace", "--count", "--summary", "--coverdir", str(tmp_path),
        "--module", "gramcalc.cli", *TABLE,
    ])
    assert child.returncode == 0
    assert b"lines   cov%   module   (path)" in child.stdout
    assert f"{os.sep}cli.py)".encode() in child.stdout


def _run_after(setup: str, argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    code = f"{setup}\nimport sys\nsys.argv = {['gramcalc', *argv]!r}\n"
    return _child(["-c", code + "from gramcalc.cli import run\nrun()\n"], **kwargs)


#: A thread still running when ``main`` returns.
SLEEPER = "import threading, time\nthreading.Thread(target=time.sleep, args=(0.2,)).start()"


def test_atexit_callback_runs():
    setup = "import atexit, sys\natexit.register(sys.stderr.write, 'atexit ran\\n')"
    child = _run_after(setup, ["--version"])
    assert (child.returncode, child.stdout) == (0, b"gramcalc 0.1.0\n")
    assert child.stderr == b"atexit ran\n"


def test_thread_finishes():
    setup = (
        "import sys, threading, time\n"
        "def late():\n"
        "    time.sleep(0.2)\n"
        "    sys.stderr.write('thread ran\\n')\n"
        "threading.Thread(target=late).start()"
    )
    child = _run_after(setup, ["table", "--kind", "peak_dd", "--n", "5", "--jobs", "2"])
    assert child.returncode == 1
    assert child.stderr.endswith(b"\nthread ran\n")
    assert child.stderr.startswith(b"gramcalc: error: unrecognized arguments: --jobs 2\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_with_thread_exits_1():
    # The bytes main could not write are still in stdout's buffer once the
    # thread is joined; flushing them again must not turn status 1 into 120.
    with open("/dev/full", "wb") as full:
        child = _run_after(SLEEPER, TABLE, stdout=full)
    assert (child.returncode, child.stderr) == (1, _write_error(errno.ENOSPC))


def test_closed_pipe_with_thread_exits_1():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _run_after(SLEEPER, TABLE, stdout=write_end)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, _write_error(errno.EPIPE))


@pytest.mark.parametrize(
    "setup",
    ["", SLEEPER],
    ids=["plain", "thread"],
)
def test_teardown_is_skipped(setup):
    setup += (
        "\nimport atexit, sys\n"
        "class Loud:\n"
        "    def __del__(self):\n"
        "        sys.stderr.write('teardown\\n')\n"
        "loud = Loud()\n"
        "atexit.register(sys.stderr.write, 'atexit ran\\n')"
    )
    child = _run_after(setup, TABLE)
    assert (child.returncode, child.stderr) == (0, b"atexit ran\n")
    assert child.stdout.startswith(b"(1, 0)  count=1\n")


@pytest.mark.parametrize(
    "tool, report",
    [
        (["-m", "cProfile", "-m"], b" function calls "),
        (["-m", "trace", "--listfuncs", "--module"], b"functions called:"),
    ],
    ids=["cProfile", "trace"],
)
def test_profiled_request_keeps_its_status(tool, report):
    # cProfile and trace catch the SystemExit, print their report and would exit 0.
    child = _child([*tool, "gramcalc.cli", *TABLE, "--jobs", "2"])
    assert child.returncode == 1
    assert child.stderr == b"gramcalc: error: unrecognized arguments: --jobs 2\n"
    assert report in child.stdout
