"""Smoke tests of the command-line scripts under ``scripts/``."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

from oracles import naive_band_global_grid

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_complexity_report_runs_with_defaults(monkeypatch, capsys):
    """``main()`` with default arguments prints the reference per-head
    projection counts, the score multiply-adds at 30 tokens and the 12-token
    mask grid, each as the oracle grid implies."""
    monkeypatch.setattr(sys, "argv", ["complexity_report.py"])
    _load("complexity_report").main()
    out = capsys.readouterr().out
    assert "dense   64x8          = 512" in out
    assert "factored 64x4 + 4x8 = 288" in out
    sparse = int(naive_band_global_grid(30, 2, {0, 1}).sum()) * 8
    assert f"{30:>8} {sparse:>12,} {30 * 30 * 8:>12,}" in out
    grid = out.split("mask pattern at 12 tokens:\n", 1)[1].split()
    assert grid == ["".join("1" if v else "0" for v in row)
                    for row in naive_band_global_grid(12, 2, {0, 1})]


def test_src_budget_runs_and_counts(capsys):
    """``main()`` prints the library's and the tests' line counts as
    ``wc -l`` would, and the counter sees every kind of settable value once."""
    module = _load("src_budget")
    module.main()
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    for key, folder in (("src_lines", "src/slat"), ("test_lines", "tests")):
        files = sorted((SCRIPTS.parent / folder).glob("*.py"))
        assert int(out[key]) == sum(f.read_text().count("\n") for f in files), key
    assert int(out["settable_values"]) > 0
    sample = ast.parse(
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: ClassVar[int] = 2\n"
        "def f(x, y=1, *, z=2, w):\n"
        "    p.add_argument('--q')\n")
    assert module.settable_values(sample) == 5  # a, b, y, z, --q


def test_fingerprint_prints_one_sha256(capsys):
    """``main()`` prints one 64-digit hex SHA-256 and nothing else."""
    _load("fingerprint").main()
    out = capsys.readouterr().out
    assert re.fullmatch(r"[0-9a-f]{64}\n", out), out
