"""Per-layer tracing from outside the program.

Run as a script, this is the shim that serves one traced request::

    python perfbench/tracing.py SPANS.json table --kind peak_dd --n 9

It imports ``gramcalc`` (timing the import), wraps the public functions of
each layer so that every call records a span ``[name, parent, start, end]``,
then calls ``gramcalc.cli.main(argv)``.  Spans and counters stay in memory and
are written to SPANS.json when the command returns; the shim exits with the
command's status.  Nothing inside the program is changed.

Imported, it provides the arithmetic the benchmark applies to those spans:
``self_times`` (a span's duration minus the time its children cover) and
``request_metrics`` (the per-layer metrics of one traced request).
"""

from __future__ import annotations

import time

_ENTERED = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

#: Span name -> public function, as (module, attribute) or (module, class, method).
TRACED = {
    "cli.main": ("gramcalc.cli", "main"),
    "verify.run_checks": ("gramcalc.verify", "run_checks"),
    "verify.joint_ep_pdd": ("gramcalc.verify", "check_joint_ep_pdd"),
    "verify.peak_dd": ("gramcalc.verify", "check_peak_dd"),
    "verify.recurrence": ("gramcalc.verify", "check_recurrence"),
    "verify.invariants": ("gramcalc.verify", "check_invariants"),
    "verify.closed_forms": ("gramcalc.verify", "check_closed_forms"),
    "verify.classical_grammars": ("gramcalc.verify", "check_classical_grammars"),
    "permstat.stat_table": ("gramcalc.permstat", "stat_table"),
    "permstat.table_to_poly": ("gramcalc.permstat", "table_to_poly"),
    "permstat.triangle_poly": ("gramcalc.permstat", "triangle_poly"),
    "permstat.specialize_triangle": ("gramcalc.permstat", "specialize_triangle"),
    "permstat.table_csv": ("gramcalc.permstat", "table_csv"),
    "permstat.table_json_dict": ("gramcalc.permstat", "table_json_dict"),
    "permstat.triangle_csv": ("gramcalc.permstat", "triangle_csv"),
    "kernel.count_table": ("gramcalc.permstat", "_kernel", "count_table"),
    "grammar.derive_n": ("gramcalc.grammar", "derive_n"),
    "grammar.derive": ("gramcalc.grammar", "derive"),
    "laurent.mul": ("gramcalc.laurent", "LaurentPolynomial", "__mul__"),
    "laurent.add": ("gramcalc.laurent", "LaurentPolynomial", "__add__"),
    "laurent.pow": ("gramcalc.laurent", "LaurentPolynomial", "__pow__"),
    "laurent.eval": ("gramcalc.laurent", "LaurentPolynomial", "eval"),
    "laurent.subst": ("gramcalc.laurent", "LaurentPolynomial", "subst"),
    "series.closed_form": ("gramcalc.series", "closed_form"),
    "series.exp_series": ("gramcalc.series", "exp_series"),
    "series.gen_series": ("gramcalc.series", "gen_series"),
    "series.mul": ("gramcalc.series", "TruncatedSeries", "__mul__"),
    "series.inverse": ("gramcalc.series", "TruncatedSeries", "inverse"),
    "gdsl.parse_grammar": ("gramcalc.gdsl", "parse_grammar"),
    "gdsl.parse_poly": ("gramcalc.gdsl", "parse_poly"),
}

EXPORTS = ("permstat.table_csv", "permstat.table_json_dict", "permstat.triangle_csv")
VERIFY_CHECKS = (
    "joint_ep_pdd", "peak_dd", "recurrence", "invariants", "closed_forms", "classical_grammars",
)
LAYERS = ("cli", "verify", "permstat", "kernel", "grammar", "laurent", "series", "gdsl")


# -- span arithmetic (used by the benchmark) -----------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def _inclusive(spans: list) -> tuple[dict, dict]:
    """Per name: total time of spans with no ancestor of the same name, and call count."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, parent, start, end in spans:
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            total[name] += end - start
    return total, calls


def request_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced request (see ``PER_LAYER`` in run.py)."""
    spans, counters = trace["spans"], trace["counters"]
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        layer_self[name.split(".", 1)[0]] += t
        name_self[name] += t
    inc, calls = _inclusive(spans)
    built = calls["kernel.count_table"]
    m = {
        "setup.import_s": trace["import_s"],
        "permstat.stat_table_s": inc["permstat.stat_table"],
        "permstat.stat_table_calls": calls["permstat.stat_table"],
        "permstat.tables_built": built,
        "permstat.perms_visited": counters["perms_visited"],
        "permstat.export_s": sum(inc[n] for n in EXPORTS),
        "permstat.table_to_poly_s": inc["permstat.table_to_poly"],
        "kernel.count_table_s": inc["kernel.count_table"],
        "kernel.count_table_calls": built,
        "kernel.compiled": counters["kernel_compiled"],
        "grammar.derive_n_s": inc["grammar.derive_n"],
        "grammar.derive_steps": calls["grammar.derive"],
        "grammar.derive_self_s": name_self["grammar.derive"],
        "grammar.max_order": counters["derive_max_order"],
        "laurent.mul_s": inc["laurent.mul"],
        "laurent.mul_calls": calls["laurent.mul"],
        "laurent.add_s": inc["laurent.add"],
        "laurent.add_calls": calls["laurent.add"],
        "laurent.pow_s": inc["laurent.pow"],
        "laurent.eval_s": inc["laurent.eval"],
        "laurent.eval_calls": calls["laurent.eval"],
        "laurent.terms_max": counters["terms_max"],
        "laurent.coeff_bits_max": counters["coeff_bits_max"],
        "series.closed_form_s": inc["series.closed_form"],
        "series.mul_s": inc["series.mul"],
        "series.mul_calls": calls["series.mul"],
        "series.inverse_s": inc["series.inverse"],
        "series.exp_series_s": inc["series.exp_series"],
        "series.max_order": counters["series_max_order"],
        "gdsl.parse_s": inc["gdsl.parse_grammar"] + inc["gdsl.parse_poly"],
        "gdsl.parse_calls": calls["gdsl.parse_grammar"] + calls["gdsl.parse_poly"],
        "cli.stdout_bytes": trace["stdout_bytes"],
    }
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = inc[f"verify.{check}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


# -- the shim (runs in the traced child) ---------------------------------------------


def _install(spans: list, counters: dict) -> None:
    import importlib

    stack = [-1]
    clock = time.perf_counter

    def observe_derive_n(args, kwargs, result):
        counters["derive_max_order"] = max(counters["derive_max_order"], args[2])

    def observe_derive(args, kwargs, result):
        counters["terms_max"] = max(counters["terms_max"], len(result))
        bits = counters["coeff_bits_max"]
        for _, c in result.items():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        counters["coeff_bits_max"] = bits

    def observe_mul(args, kwargs, result):
        if result is not NotImplemented and len(result) > counters["terms_max"]:
            counters["terms_max"] = len(result)

    def observe_series_order(args, kwargs, result):
        counters["series_max_order"] = max(counters["series_max_order"], result.order)

    def observe_count_table(args, kwargs, result):
        counters["perms_visited"] += math.factorial(args[0])

    observers = {
        "grammar.derive_n": observe_derive_n,
        "grammar.derive": observe_derive,
        "laurent.mul": observe_mul,
        "series.closed_form": observe_series_order,
        "series.gen_series": observe_series_order,
        "kernel.count_table": observe_count_table,
    }

    def wrap(name, fn):
        observe = observers.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    modules = [m for n, m in list(sys.modules.items()) if n.startswith("gramcalc") and m]
    for name, target in TRACED.items():
        owner = importlib.import_module(target[0])
        for part in target[1:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, target[-1])
        wrapper = wrap(name, original)
        # Rebind every alias: names imported into other modules, __radd__ etc.
        for holder in modules + [owner]:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    started = time.perf_counter()
    import gramcalc  # noqa: F401  (the import is what setup.import_s times)
    import_s = time.perf_counter() - started
    from gramcalc import cli, permstat

    spans: list = []
    counters = {
        "kernel_compiled": int(permstat.KERNEL_IS_COMPILED),
        "perms_visited": 0,
        "derive_max_order": 0,
        "series_max_order": 0,
        "terms_max": 0,
        "coeff_bits_max": 0,
    }
    _install(spans, counters)
    try:
        status = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        trace = {"import_s": import_s, "spans": spans, "counters": counters, "entered": _ENTERED}
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
            handle.write("\n")
            json.dump({"left": time.perf_counter()}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
