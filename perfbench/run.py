#!/usr/bin/env python3
"""The gramcalc benchmark: CLI requests in a closed loop, outputs checked.

    python3 perfbench/run.py --workload tables --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all               # every workload in turn
    python3 perfbench/run.py --compare OLD_DIR NEW_DIR    # two sets of result files
    python3 perfbench/run.py --record-digests             # refresh digests.json

One benchmark process acts as a single client in a closed loop.  It issues each
request of a workload pass (see ``workloads.py``) as a fresh
``python -m gramcalc.cli ...`` child and waits for it before sending the next,
because every user request pays interpreter start-up and import.  At most one
child runs at a time.  Passes repeat until ``--seconds`` would be exceeded.
After the timed loop every distinct output is checked (``checks.py``); a
request with a wrong answer or a non-zero exit counts as failed and never as a
timing.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (median wall time of a fresh interpreter that only imports
gramcalc),
``wall_s`` (median time of one pass: the sum of its request latencies) and
``peak_rss_mib`` (largest child peak RSS, from ``os.wait4``).  The report
adds ``request_s`` and the per-subcommand medians ``verify_s``, ``table_s``,
``derive_s`` and ``series_s`` on the workloads that issue them, each with its
sample count, and ``error_rate``.  Times are scaled to a nominal machine
speed with a reference child (see ``REFERENCE_CODE``); the report shows the
raw times beside them.  With ``--trace 1`` it alternates untraced passes with
passes whose requests run under the ``tracing.py`` shim, and reports the
per-layer metrics of the traced passes plus the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it are a readable report that starts
with the environment stamp.  The full result, stamp included, is also written
to ``perfbench/out/results/``; copy that directory away after running a
commit, and ``--compare`` two such copies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
sys.path.insert(0, str(BENCH))

from checks import check_output, digest  # noqa: E402
from tracing import LAYERS, request_metrics  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

#: Fresh interpreters timed for ``setup_s``.
IMPORT_SAMPLES = 9
#: Every run ends well inside three minutes, even when a child hangs.
RUN_DEADLINE_S = 170.0
#: Seeds whose requests have recorded stdout digests.
DIGEST_SEEDS = range(11)

COMMAND_METRICS = {"verify": "verify_s", "table": "table_s", "derive": "derive_s", "series": "series_s"}


# On a shared two-vCPU virtual machine the time of one fixed child drifted by
# 20-25% (interquartile range) over minutes, more than the bounds in
# BENCHMARK.json allow.  So timed children are interleaved with
# reference children that do a fixed amount of interpreter start-up and exact
# rational arithmetic, and every time a run reports is scaled by
# REFERENCE_NOMINAL_S / (median reference time of the run).  The raw times are
# kept in the report and the result file.
REFERENCE_CODE = (
    "from fractions import Fraction as F\n"
    "d = {}\n"
    "for i in range(1, 4000):\n"
    "    k = (i % 97, i % 89)\n"
    "    d[k] = d.get(k, F(0)) + F(i, i % 7 + 1) * F(3, i)\n"
)
REFERENCE_NOMINAL_S = 0.1
#: Fewest reference samples per pass, half before and half after it.
REFERENCE_SAMPLES = 6


# -- children ------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    """The caller's environment without its PYTHON* settings, so that children
    reuse bytecode and buffer stdout as an installed gramcalc would.  All
    bytecode they write goes under ``perfbench/out``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_child(cmd: list[str], deadline: float) -> tuple[int, bytes, float, float, int]:
    """Run one child to completion: (exit status, stdout, start, end, peak RSS in KiB).

    ``start`` and ``end`` are ``time.perf_counter`` readings, which on Linux
    share one clock with the child's.

    The child is killed if it is still running at ``deadline``; it is always
    waited for before this returns.
    """
    err_path = OUT / "child-stderr.txt"
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=_child_env())
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            watchdog.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, started, ended, usage.ru_maxrss


def reference_time(deadline: float) -> float:
    status, _, started, ended, _ = run_child([sys.executable, "-c", REFERENCE_CODE], deadline)
    if status != 0:
        raise SystemExit(f"perfbench: the reference child failed with status {status}")
    return ended - started


# -- passes --------------------------------------------------------------------------


class Run:
    """The requests, timings, reference samples and outputs of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        workdir = (OUT / "inputs" / f"{workload}-{seed}").relative_to(ROOT).as_posix()
        self.requests = make_pass(workload, seed, workdir)
        self.records: list[dict] = []  # one per request issued
        self.outputs: dict[tuple, bytes] = {}  # (request index, status, digest) -> stdout
        self.traces: list[dict] = []  # per traced pass: summed layer metrics
        self.references: list[float] = []
        self.imports: list[float] = []
        self.passes = 0
        for request in self.requests:
            for rel, text in request.files:
                path = ROOT / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")

    def reference(self, count: int = 1) -> None:
        for _ in range(count):
            self.references.append(reference_time(self.deadline))

    @property
    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.median(self.references)

    def setup(self) -> None:
        """Time fresh interpreters that only ``import gramcalc``, start to exit.

        An untimed warm-up first imports the whole package, CLI included, so
        that a fresh checkout has written its bytecode before anything is timed.
        """
        warm = run_child([sys.executable, "-c", "import gramcalc.cli"], self.deadline)[0]
        for _ in range(IMPORT_SAMPLES):
            self.reference()
            status, _, started, ended, _ = run_child([sys.executable, "-c", "import gramcalc"], self.deadline)
            if warm or status:
                raise SystemExit("perfbench: 'import gramcalc' failed in a fresh interpreter")
            self.imports.append(ended - started)

    def one_pass(self, traced: bool) -> None:
        """Issue every request once, each after a reference child."""
        pass_metrics: list[dict] = []
        padding = max(REFERENCE_SAMPLES - len(self.requests), 0)
        self.reference(padding // 2)
        for index, request in enumerate(self.requests):
            self.reference()
            if traced:
                spans_path = OUT / "spans.json"
                cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans_path), *request.argv]
            else:
                cmd = [sys.executable, "-m", "gramcalc.cli", *request.argv]
            status, out, started, ended, rss = run_child(cmd, self.deadline)
            key = (index, status, digest(out))
            self.outputs.setdefault(key, out)
            self.records.append({
                "pass": self.passes, "index": index, "status": status, "key": key,
                "seconds": ended - started, "rss_kib": rss, "traced": traced,
            })
            if traced and status == 0:
                spans_line, left_line = spans_path.read_text(encoding="utf-8").splitlines()
                trace = {**json.loads(spans_line), **json.loads(left_line)}
                trace["stdout_bytes"] = len(out)
                metrics = request_metrics(trace)
                metrics["trace.command_s"] = ended - started
                # Interpreter start before the shim ran, and teardown after it.
                metrics["trace.startup_s"] = (trace["entered"] - started) + (ended - trace["left"])
                pass_metrics.append(metrics)
        self.reference(padding - padding // 2)
        if traced:
            self.traces.append(_sum_request_metrics(pass_metrics))
        self.passes += 1

    def loop(self, trace: bool) -> None:
        """Repeat passes (untraced, then traced) while the next one still fits in ``seconds``."""
        started = time.monotonic()
        while True:
            pass_started = time.monotonic()
            self.one_pass(False)
            if trace:
                self.one_pass(True)
            now = time.monotonic()
            last = now - pass_started
            if now - started + last > self.seconds or now + last > self.deadline:
                return

    def check(self, digests: dict[str, str]) -> dict[tuple, str | None]:
        """Check each distinct output once: key -> failure reason or None."""
        return {
            key: check_output(self.requests[key[0]], key[1], out, digests)
            for key, out in self.outputs.items()
        }

    def pass_walls(self, traced: bool, verdicts: dict) -> list[float]:
        """Raw time of each pass: the sum of its correct requests' latencies."""
        walls: dict[int, float] = {}
        for r in self.records:
            if r["traced"] == traced:
                ok = verdicts[r["key"]] is None
                walls[r["pass"]] = walls.get(r["pass"], 0.0) + (r["seconds"] if ok else 0.0)
        return list(walls.values())


def _sum_request_metrics(per_request: list[dict]) -> dict[str, float]:
    total: dict[str, float] = {}
    for metrics in per_request:
        for name, value in metrics.items():
            if name.endswith(("_max", ".max_order", ".compiled")):
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    calls = total.get("permstat.stat_table_calls", 0)
    total["permstat.reuse_ratio"] = 1 - total["permstat.tables_built"] / calls if calls else 0.0
    return total


# -- metrics and reports ---------------------------------------------------------------


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(seed: int) -> dict:
    from gramcalc import permstat

    src = hashlib.sha256()
    for path in sorted((SRC / "gramcalc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix in (".py", ".pyx"):
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel": "compiled" if permstat.KERNEL_IS_COMPILED else "pure",
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, verdicts: dict) -> dict:
    """name -> (scaled value, raw value, unit, sample count)."""
    ok = [r for r in run.records if not r["traced"] and verdicts[r["key"]] is None]
    issued = [r for r in run.records if not r["traced"]]
    scale = run.scale

    def timing(values):
        raw = _median(values)
        return raw * scale, raw, "s", len(values)

    rss = max(r["rss_kib"] for r in issued) / 1024
    result = {
        "setup_s": timing(run.imports),
        "wall_s": timing(run.pass_walls(False, verdicts)),
        "peak_rss_mib": (rss, rss, "MiB", len(issued)),
        "request_s": timing([r["seconds"] for r in ok]),
    }
    for command, metric in COMMAND_METRICS.items():
        chosen = [r["seconds"] for r in ok if run.requests[r["index"]].command == command]
        if chosen:
            result[metric] = timing(chosen)
    rate = (len(issued) - len(ok)) / len(issued)
    result["error_rate"] = (rate, rate, "ratio", len(issued))
    result["reference_s"] = timing(run.references)
    return result


def per_layer(run: Run, verdicts: dict) -> dict:
    names = set().union(*run.traces)
    result = {name: (_median([t.get(name, 0) for t in run.traces]), len(run.traces)) for name in names}
    traced = run.pass_walls(True, verdicts)
    untraced = run.pass_walls(False, verdicts)
    result["trace.overhead_s"] = ((_median(traced) - _median(untraced)) * run.scale, len(traced))
    # Interpreter start-up, import and the self time of every layer, over the
    # traced command time; what is missing is the shim's own bookkeeping.
    accounted = [
        (t["trace.startup_s"] + t["setup.import_s"] + sum(t[f"{layer}.self_s"] for layer in LAYERS))
        / t["trace.command_s"]
        for t in run.traces
    ]
    result["trace.accounted_share"] = (_median(accounted), len(accounted))
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def execute(workload: str, seed: int, seconds: float, trace: bool, digests: dict) -> dict:
    env = environment(seed)
    print("# env " + json.dumps({**env, "workload": workload, "trace": int(trace)}), flush=True)
    run = Run(workload, seed, seconds)
    run.setup()
    run.loop(trace)
    verdicts = run.check(digests)
    attempted = len(run.records)
    failures = [(r, verdicts[r["key"]]) for r in run.records if verdicts[r["key"]] is not None]
    for record, reason in failures[:5]:
        argv = " ".join(run.requests[record["index"]].argv)
        print(f"FAILED  gramcalc {argv}: {reason}")
    bench = load_benchmark()
    head = (f"workload {workload}  seed {seed}  passes {run.passes}  "
            f"requests {attempted}  failed {len(failures)}")
    if trace:
        values = per_layer(run, verdicts)
        print(head)
        for name, (value, count) in sorted(values.items()):
            print(f"  {name:34s} {_fmt(value):>14}   (median of {count} traced passes)")
        metrics = {
            m["name"]: {"value": values.get(m["name"], (0,))[0], "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        values = end_to_end(run, verdicts)
        print(head)
        print(f"  {'metric':14s} {'scaled':>12} {'raw':>12}")
        for name, (value, raw, unit, count) in values.items():
            what = "max" if name == "peak_rss_mib" else ("over" if name == "error_rate" else "median")
            print(f"  {name:14s} {_fmt(value):>12} {_fmt(raw):>12} {unit:6s} ({what} of {count})")
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in bench["end_to_end"]}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    env["reference_s"] = REFERENCE_NOMINAL_S / run.scale
    record = {"workload": workload, "seed": seed, "trace": int(trace), "env": env,
              "all_metrics": {k: list(v) for k, v in values.items()}, **result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


# -- digests -------------------------------------------------------------------------


def record_digests() -> int:
    """Run every request of the digest seeds once, check it, store its stdout digest."""
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        for seed in DIGEST_SEEDS:
            run = Run(workload, seed, 0)
            for index, request in enumerate(run.requests):
                if request.key() in digests:
                    continue
                status, out, *_ = run_child(
                    [sys.executable, "-m", "gramcalc.cli", *request.argv], time.monotonic() + 600)
                reason = check_output(request, status, out, {})
                if reason:
                    print(f"perfbench: gramcalc {' '.join(request.argv)}: {reason}", file=sys.stderr)
                    return 1
                digests[request.key()] = digest(out)
            print(f"{workload} seed {seed}: {len(digests)} digests", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


# -- compare mode --------------------------------------------------------------------


def _load_results(directory: str) -> dict[str, dict[int, dict]]:
    found: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        found.setdefault(record["workload"], {})[record["seed"]] = record
    return found


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: list[float], new: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    """improved / no worse / worse / unresolved, and the number of pairs ``new`` won."""
    sign = 1 if lower_is_better else -1
    won = sum(1 for a, b in pairs if sign * (b - a) < 0)
    q1, old_median, q3 = _quartiles(old)
    new_median = _quartiles(new)[1]
    change = sign * (new_median - old_median)
    if pairs and won >= 0.9 * len(pairs) and -change > q3 - q1:
        return "improved", won
    if change > bound * abs(old_median):
        return "worse", won
    if old_median and (q3 - q1) / abs(old_median) > bound:
        if max(sign * v for v in new) < min(sign * v for v in old):
            return "improved", won
        return "unresolved", won
    return "no worse", won


def compare(old_dir: str, new_dir: str) -> int:
    bench = load_benchmark()
    old_runs, new_runs = _load_results(old_dir), _load_results(new_dir)
    status = 0
    for workload in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[workload], new_runs[workload]
        stamps = {k: {r["env"][k] for r in (*old.values(), *new.values())}
                  for k in ("python", "nproc", "kernel")}
        mixed = {k: sorted(map(str, v)) for k, v in stamps.items() if len(v) > 1}
        if mixed:
            print(f"{workload}: ENVIRONMENT DIFFERS {mixed}; every verdict is unresolved")
            status = 1
        seeds = sorted(set(old) & set(new))
        print(f"{workload}: {len(old)} old runs, {len(new)} new runs, {len(seeds)} pairs by seed")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in old.values()]
            b = [r["metrics"][name]["value"] for r in new.values()]
            pairs = [(old[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"]) for s in seeds]
            result, won = verdict(a, b, pairs, metric["bound"], metric["better"] == "lower")
            if mixed:
                result = "unresolved"
            qa, qb = _quartiles(a), _quartiles(b)
            print(f"  {name:14s} old {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {metric['unit']}  "
                  f"won {won}/{len(pairs)}  {result}")
            if result == "worse":
                status = 1
    return status


# -- entry point -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "gramcalc" / "cli.py").is_file():
        print(f"perfbench: no gramcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    if args.record_digests:
        return record_digests()
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: execute(w, args.seed, args.seconds, bool(args.trace), digests) for w in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
