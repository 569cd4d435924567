"""Every public name of the package has a reader.

Code with no caller in the package and no claim in the paper is deleted
(ROADMAP design rule), so every public function, class and method of the
package modules must be named somewhere in `src/` besides its own
definition: by a call, an import, a type, or the docstring that states the
claim it checks.  Click commands are exempt: the command line reaches them.
"""

import importlib
import inspect
import pathlib
import re

import click

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
