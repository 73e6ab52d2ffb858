"""The package namespace: every public name and leg resolves on first use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramcalc

LEGS = ("gdsl", "grammar", "laurent", "permstat", "series", "verify")

# Where each public name is defined.
HOMES = {
    "BUILTIN_GRAMMAR_NAMES": "grammar",
    "CLOSED_FORMS": "series",
    "CheckReport": "verify",
    "DerivativeSequence": "grammar",
    "EvalPoint": "series",
    "Grammar": "grammar",
    "GrammarSyntaxError": "gdsl",
    "InadmissiblePointError": "series",
    "LaurentPolynomial": "laurent",
    "StatTable": "permstat",
    "TruncatedSeries": "series",
    "builtin_grammar": "grammar",
    "closed_form": "series",
    "derive": "grammar",
    "derive_n": "grammar",
    "exp_series": "series",
    "gen_series": "series",
    "parse_grammar": "gdsl",
    "parse_poly": "gdsl",
    "run_checks": "verify",
    "specialize_triangle": "permstat",
    "stat_table": "permstat",
    "table_to_poly": "permstat",
    "triangle_poly": "permstat",
}


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on the source tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_all_lists_every_public_name():
    assert gramcalc.__all__ == sorted(HOMES)
    assert gramcalc.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(HOMES))
def test_public_name_is_the_defining_object(name):
    home = getattr(gramcalc, HOMES[name])
    assert getattr(gramcalc, name) is getattr(home, name)


def test_dir_lists_public_names_and_legs():
    listed = set(dir(gramcalc))
    assert set(gramcalc.__all__) <= listed
    assert set(LEGS) <= listed
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'gramcalc' has no attribute 'nope'"):
        gramcalc.nope
    assert not hasattr(gramcalc, "cli_main")


def test_leg_access_imports_through_getattr(monkeypatch):
    # Once a leg is imported, the import system binds it on the package; with
    # that binding gone, access must go through the package's ``__getattr__``.
    import gramcalc.series as series

    monkeypatch.delattr(gramcalc, "series")
    assert "series" not in vars(gramcalc)
    assert gramcalc.series is series


def test_star_import_in_fresh_interpreter():
    out = _fresh(
        "from gramcalc import *\n"
        "print(' '.join(sorted(k for k in dir() if not k.startswith('_'))))"
    )
    assert out.split() == sorted(HOMES)


def test_legs_resolve_after_bare_import():
    out = _fresh(
        "import sys, types\n"
        "import gramcalc\n"
        f"assert not {{'gramcalc.' + leg for leg in {LEGS!r}}} & set(sys.modules)\n"
        f"for leg in {LEGS!r}:\n"
        "    module = getattr(gramcalc, leg)\n"
        "    assert isinstance(module, types.ModuleType), leg\n"
        "    assert sys.modules['gramcalc.' + leg] is module, leg\n"
        "print(sum(gramcalc.permstat.stat_table(4, 'peak_dd').counts.values()))"
    )
    assert out == "24\n"


def test_laurent_imports_no_other_leg():
    # The ring sits below the grammar: ``laurent`` reads its work bound from
    # ``_names`` and must never import ``grammar`` or any other leg.
    out = _fresh(
        "import sys\n"
        "import gramcalc.laurent\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'gramcalc')))"
    )
    assert out.split() == ["gramcalc", "gramcalc._names", "gramcalc.laurent"]


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps each TRACED function by module and attribute
    # path; a rename here must fail tier-1, not only the traced benchmark run.
    # The file is read, not imported, so nothing is written beside it.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    for span, (module, *attrs) in traced.items():
        owner = importlib.import_module(module)
        for attr in attrs:
            assert hasattr(owner, attr), f"{span}: {module} has no {'.'.join(attrs)}"
            owner = getattr(owner, attr)
        assert callable(owner), span


def test_benchmark_imports_resolve():
    # The benchmark's own code imports names from the package and reads
    # attributes of them (``permstat.KERNEL_IS_COMPILED``, ``cli.main``,
    # ``LaurentPolynomial.variable``); tier-1 runs none of it, so each such
    # name is resolved here.  The files are read, not imported.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    checked = 0
    for path in sorted(perfbench.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gramcalc":
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(owner, alias.name):
                        # ``from package import module`` imports the submodule.
                        importlib.import_module(f"{node.module}.{alias.name}")
                    where = f"{path.name}:{node.lineno}: {node.module}"
                    assert hasattr(owner, alias.name), f"{where} has no {alias.name}"
                    bound[alias.asname or alias.name] = getattr(owner, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
                where = f"{path.name}:{node.lineno}: {node.value.id}"
                assert hasattr(bound[node.value.id], node.attr), f"{where} has no {node.attr}"
        checked += len(bound)
    assert checked >= 10


def test_value_types_have_one_constructor_each_way():
    # A polynomial is built by LaurentPolynomial(terms), .variable or
    # .from_dense, and a series by TruncatedSeries(coeffs) or exp_series;
    # the public attributes are pinned so that no alias of these returns.
    from gramcalc.laurent import LaurentPolynomial
    from gramcalc.series import TruncatedSeries

    def public(cls):
        return sorted(name for name in dir(cls) if not name.startswith("_"))

    assert public(LaurentPolynomial) == [
        "eval", "format", "from_dense", "items", "sorted_terms", "subst", "variable", "variables",
    ]
    assert public(TruncatedSeries) == ["coeffs", "egf_coefficients", "inverse", "order"]
