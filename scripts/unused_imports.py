#!/usr/bin/env python3
"""List each name a module of the package imports but never uses.

Usage: python scripts/unused_imports.py [DIR]

Reads every ``*.py`` file under DIR (default: ``src/vanetim`` beside this
script) with ``ast``. A name counts as used if the module reads it anywhere
outside a string: the package's modules import ``annotations`` from
``__future__``, so none of them quotes an annotation. ``from __future__`` imports are skipped.
Prints ``path:line: name`` for each unused import and exits 1 if there is
any.
"""

import ast
import sys
from pathlib import Path


def imported(tree: ast.Module):
    """Yield (line, name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "vanetim"
    )
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path}:{line}: {name}" for line, name in imported(tree)
                   if name not in names]
    print("\n".join(unused) if unused else f"no unused imports under {root}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
