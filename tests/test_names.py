"""Every public name of the package has a reader.

Code with no caller in the package and no claim in the paper is deleted
(ROADMAP design rule), so every public function, class and method of the
package modules must be named somewhere in `src/` besides its own
definition: by a call, an import, a type, or the docstring that states the
claim it checks.  Click commands are exempt: the command line reaches them.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import click
import pytest

import viscowave

MODULES = ("core", "spectrum", "weierstrass", "multiplier", "biorthogonal",
           "moment", "pde", "cli")


def _public_names():
    """(qualified name, bare name) of every public module-level function and
    class, and of every public method and property defined on those classes."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"viscowave.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, click.Command):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            out.append((f"{short}.{name}", name))
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(
                            member, (property, classmethod, staticmethod)):
                        out.append((f"{short}.{name}.{attr}", attr))
    return out


def test_every_public_name_has_a_reader():
    src = pathlib.Path(viscowave.__file__).parent
    text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")))
    unread = []
    for qual, name in _public_names():
        uses = len(re.findall(rf"\b{name}\b", text))
        definitions = len(re.findall(rf"^\s*(?:def|class)\s+{name}\b", text, re.M))
        if uses <= definitions:
            unread.append(qual)
    assert unread == [], f"no reader in src/: {unread}"


# STATS entries whose span no longer exists in the package: their metrics read
# 0 until the benchmark's own files drop them
_DEAD_STATS = {"pde.mode_propagate"}


def _load_spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _resolve(key: str):
    obj = importlib.import_module(f"viscowave.{key.split('.')[0]}")
    for attr in key.split(".")[1:]:
        obj = getattr(obj, attr)
    return obj


def test_benchmark_tracer_names_resolve(tmp_path):
    # the benchmark's tracer (perfbench/spans.py) wraps package callables by
    # name and its counters read attributes off their arguments and results
    # (`ProductEvaluator.cutoff`, `MultiplierEvaluator.k_cut`, a family's
    # `meta`, a solve's `cond`).  A renamed one fails here, not in a traced
    # benchmark run: every COUNTERS and STATS key resolves to a package
    # callable, and a series and an oracle solve under the tracer run every
    # counter, each recording its count
    from click.testing import CliRunner

    from viscowave.cli import main

    spans = _load_spans()
    keys = set(spans.COUNTERS) | {key for key, _ in spans.STATS.values()}
    assert _DEAD_STATS <= set(spans.STATS)
    for key in sorted(keys - _DEAD_STATS):
        assert callable(_resolve(key)), key
    for key in _DEAD_STATS:
        with pytest.raises(AttributeError):
            _resolve(spans.STATS[key][0])
    tracer = spans.Tracer()
    tracer.install(viscowave)
    try:
        for route in ("--series", "--oracle"):
            res = CliRunner().invoke(main, ["control", "solve", route, "--epsilon", "0.1",
                                            "--modes", "1", "--alpha", "0.75",
                                            "--out", str(tmp_path / "out.csv")])
            assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    recorded = set(tracer.sums) | set(tracer.maxes)
    assert set(spans.SUM_COUNTS) | set(spans.MAX_COUNTS) <= recorded


def test_tracer_modules_resolve_after_importing_only_the_cli():
    # the tracer takes getattr(viscowave, m) for every layer it lists; a
    # command that builds no family imports only part of them, so the
    # package imports the rest on first access
    spans = _load_spans()
    src = str(pathlib.Path(viscowave.__file__).resolve().parents[1])
    code = ("import json, sys, types, viscowave, viscowave.cli\n"
            "before = sorted(m for m in sys.modules if m.startswith('viscowave.'))\n"
            "got = {m: isinstance(getattr(viscowave, m), types.ModuleType) and "
            "getattr(viscowave, m).__name__ == 'viscowave.' + m for m in sys.argv[1:]}\n"
            "print(json.dumps([before, got]))")
    res = subprocess.run([sys.executable, "-c", code, *spans.MODULES], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    before, got = json.loads(res.stdout)
    assert "viscowave.biorthogonal" not in before
    assert got == {m: True for m in spans.MODULES}
