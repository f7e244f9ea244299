"""Every library name and every defaulted parameter has a caller that is
not its own unit test.

A module-level name in ``src/rcsw`` (package ``__init__`` files aside),
public or private, must appear as a whole word somewhere besides its
definition line: in the library itself, the benchmark harness, the
README or the acceptance tests.  A name found only in its
definition is dead code, and so is a private helper that only the unit
tests and their oracles still call.

A defaulted parameter of a public function, or of a public method of a
public class, must be bound by position or keyword in some call in the
same files (the README's Python blocks parsed as code).  Calls are matched
to definitions by callee name alone, so a name shared by two definitions
can hide an unused parameter but never flag a used one.

Every contraction FLOP term is ``8 << k`` and ``tn/tree.py`` is the only
module that prices a merge, so no other module computes a left shift of
the constant 8.
"""
import ast
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcsw"


def _modules():
    return sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _module_names(path: pathlib.Path):
    """(name, definition line number) for each module-level name."""
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
            yield name, node.lineno


def _caller_files():
    """Every file a caller may sit in."""
    files = list(_modules())
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    return files + [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]


def _caller_lines():
    """(path, line number, text) of every line a caller may sit on."""
    for path in _caller_files():
        for no, text in enumerate(path.read_text().splitlines(), 1):
            yield path, no, text


def _names_without_caller(private: bool) -> list[str]:
    """module:line name of each public or private name no caller line names."""
    lines = list(_caller_lines())
    unused = []
    for module in _modules():
        for name, lineno in _module_names(module):
            if name.startswith("_") != private:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, no, text in lines
                       if (path, no) != (module, lineno)):
                unused.append(f"{module.relative_to(PACKAGE)}:{lineno} {name}")
    return unused


def test_every_public_name_has_a_caller():
    unused = _names_without_caller(private=False)
    assert not unused, "public names with no caller:\n" + "\n".join(unused)


def test_every_private_name_has_a_caller():
    # tests/ is not a caller, so a helper only an oracle still reaches fails
    unused = _names_without_caller(private=True)
    assert not unused, "private names with no caller:\n" + "\n".join(unused)


def _defaulted_parameters(path: pathlib.Path):
    """(qualified name, callee name, parameters, defaulted) per public def.

    parameters lists the positional parameters in order, without the
    ``self`` or ``cls`` of a method (the library has no static methods);
    defaulted holds the names that have a default, keyword-only ones
    included.
    """
    def entry(fn, owner):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        if owner:
            positional = positional[1:]
        name = f"{owner}.{fn.name}" if owner else fn.name
        return name, fn.name, positional, defaulted

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield entry(node, None)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield entry(fn, node.name)


def _caller_trees():
    """Parsed code of every caller file and of the README's Python blocks."""
    for path in _caller_files():
        if path.suffix == ".py":
            yield ast.parse(path.read_text())
        else:
            for body in re.findall(r"^```python\n(.*?)^```", path.read_text(),
                                   flags=re.M | re.S):
                yield ast.parse(body)


def _calls_by_callee():
    """Callee name -> (positional argument count, keyword names) per call.

    A starred positional argument counts as filling every position, and a
    ``**`` mapping as naming every parameter.
    """
    calls = defaultdict(list)
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_pos = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls[name].append((n_pos, keywords))
    return calls


def test_every_defaulted_parameter_has_a_caller():
    calls = _calls_by_callee()
    unbound = []
    for module in _modules():
        for qualname, callee, positional, defaulted in _defaulted_parameters(module):
            for param in defaulted:
                index = positional.index(param) if param in positional else None
                if not any(None in kws or param in kws
                           or (index is not None and index < n_pos)
                           for n_pos, kws in calls[callee]):
                    unbound.append(f"{module.relative_to(PACKAGE)} "
                                   f"{qualname}({param}=)")
    assert not unbound, "defaulted parameters no caller sets:\n" + "\n".join(unbound)


def test_only_the_tree_module_prices_a_merge():
    tree = PACKAGE / "tn" / "tree.py"
    shifts = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module == tree:
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                    and isinstance(node.left, ast.Constant) and node.left.value == 8):
                shifts.append(f"{module.relative_to(PACKAGE)}:{node.lineno}")
    assert not shifts, "merge FLOP terms outside tn/tree.py:\n" + "\n".join(shifts)
