"""Every name that ``src/spikemine`` defines is used somewhere besides its definition.

A module-level function or class, or a method or property that is not a
dunder, must appear as a whole word elsewhere in the package, in the
benchmark's ``perfbench/*.py`` or in ``README.md``. Calls from ``tests/``
do not count: a helper only tests call is code nothing needs.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spikemine"


def defined_names(source: str):
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield item.name


def test_every_definition_is_used_elsewhere():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    defs = Counter(name for source in sources for name in defined_names(source))
    readers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    text = "\n".join(sources + [path.read_text(encoding="utf-8") for path in readers])
    # each definition is one whole-word occurrence of its own name
    unused = sorted(name for name, n in defs.items() if len(re.findall(rf"\b{name}\b", text)) <= n)
    assert not unused, f"defined in src/spikemine but used nowhere else: {unused}"
