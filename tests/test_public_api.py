"""Every public library name has a caller that is not its own unit test.

A module-level public name in ``src/rcsw`` (package ``__init__`` files
aside) must appear as a whole word somewhere besides its definition line:
in the library itself, the scripts, the benchmark harness, the README or
the acceptance tests.  A name found only in its definition is dead code.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcsw"


def _modules():
    return sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _public_names(path: pathlib.Path):
    """(name, definition line number) for each module-level public name."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno


def _caller_lines():
    """(path, line number, text) of every line a caller may sit on."""
    files = list(_modules())
    files += sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    files += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        for no, text in enumerate(path.read_text().splitlines(), 1):
            yield path, no, text


def test_every_public_name_has_a_caller():
    lines = list(_caller_lines())
    unused = []
    for module in _modules():
        for name, lineno in _public_names(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, no, text in lines
                       if (path, no) != (module, lineno)):
                unused.append(f"{module.relative_to(PACKAGE)}:{lineno} {name}")
    assert not unused, "public names with no caller:\n" + "\n".join(unused)
