"""Every name in ``huberreg.__all__`` is used outside the tests.

A name counts as used when a module of the package other than
``__init__.py`` loads it or reads it as an attribute, or when it appears in
the benchmark scripts or in a README ``python`` block. Test references
belong in ``tests/_reference.py``, not in the package's exports.
"""

import ast
import pathlib
import re

import huberreg

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _package_references() -> set:
    names = set()
    for path in (ROOT / "src" / "huberreg").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _outside_text() -> str:
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return "\n".join(bench + re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S))


def test_every_export_is_used_outside_the_tests():
    referenced, text = _package_references(), _outside_text()
    test_only = [name for name in huberreg.__all__
                 if name not in referenced and not re.search(rf"\b{name}\b", text)]
    assert test_only == [], f"exported, but only the tests use: {test_only}"
