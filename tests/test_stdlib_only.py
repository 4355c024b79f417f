"""The package needs nothing beyond the standard library: ``pyproject.toml``
declares no dependencies, and every absolute import under ``src/hironaka``
must name a standard-library module.  Every module under it is parsed, and
a private helper that nothing under ``src/`` reads is an error too."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hironaka"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_in_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    outside = [(path.name, name) for path in modules for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_the_cli_loads_neither_dataclasses_nor_inspect_nor_typing():
    """Start-up is most of what one command costs, and these modules are
    costly to import and not needed: ``dataclasses`` with the ``inspect``
    it pulls in was most of the start-up.  ``-S`` keeps the site packages,
    which may import any of them, out of the checked interpreter."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hironaka.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-I", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "\n", "")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_read_elsewhere_under_src():
    """Each private (single-underscore) function, class and module constant
    defined under ``src/hironaka`` is read somewhere under ``src/`` outside
    its own body, so a kernel whose dispatch is gone cannot stay behind."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}

    def reads(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                       or isinstance(n, ast.Attribute))

    total = sum(map(reads, trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        defined = [(node.name, node) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name)]
        defined += [(target.id, None) for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets
                    if isinstance(target, ast.Name) and _private(target.id)]
        defined += [(node.target.id, None) for node in tree.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                    and _private(node.target.id)]
        for name, node in defined:
            if total[name] - (reads(node)[name] if node is not None else 0) == 0:
                unread.append((module, name))
    assert len(trees) >= 10
    assert unread == []
