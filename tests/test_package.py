"""The package namespace: every public name and leg resolves on first use."""

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
    "GrammarSpec": "gdsl",
    "GrammarSyntaxError": "gdsl",
    "InadmissiblePointError": "series",
    "LAURENT": "series",
    "LaurentPolynomial": "laurent",
    "RATIONALS": "series",
    "StatProfile": "permstat",
    "StatTable": "permstat",
    "TruncatedSeries": "series",
    "builtin_grammar": "grammar",
    "closed_form": "series",
    "derive": "grammar",
    "derive_n": "grammar",
    "exp_series": "series",
    "format_grammar": "gdsl",
    "gen_series": "series",
    "leibniz_check": "grammar",
    "parse_grammar": "gdsl",
    "parse_poly": "gdsl",
    "run_checks": "verify",
    "specialize_triangle": "permstat",
    "stat_profile": "permstat",
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
