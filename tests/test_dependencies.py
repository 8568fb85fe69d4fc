"""numpy is the package's only third-party runtime dependency, and the
package's modules talk to each other through public names."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "assetsvm"
ALLOWED = {"numpy", "assetsvm"}


def test_package_imports_only_stdlib_and_numpy():
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                seen.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                seen.add((path.name, node.module.split(".")[0]))
    assert ("oracle.py", "numpy") in seen  # the scan does see imports
    foreign = sorted(
        f"{name}: {module}"
        for name, module in seen
        if module not in ALLOWED and module not in sys.stdlib_module_names
    )
    assert foreign == []


def test_modules_import_no_private_sibling_names():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "assetsvm"
            )
            if sibling:
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def test_only_the_model_module_imports_halves():
    # halves is the one caller of os.fork: a parse path that imports it could fork again
    importers, forks = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[-1] == "halves" or (
                    module in ("", "assetsvm") and any(a.name == "halves" for a in node.names)
                ):
                    importers.add(path.name)
            elif isinstance(node, ast.Import):
                if any(alias.name == "assetsvm.halves" for alias in node.names):
                    importers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "fork":
                forks.add(path.name)
    assert importers == {"model.py"}
    assert forks == {"halves.py"}
