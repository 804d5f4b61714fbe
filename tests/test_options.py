"""Every option the package offers has a caller outside the tests that sets it.

An option is a defaulted parameter of a function in src/thermoservo/ (nested
functions excepted: they bind their defaults themselves) or a defaulted field
of one of its dataclasses. It counts as set when a call in a module under
src/thermoservo/ or perfbench/ passes it, by keyword, by position or through
star-args; a call to `replace` sets the dataclass fields it names.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thermoservo"

#: Options kept for callers that live outside the program, with the reason.
UNSET_OPTIONS = {
    "l_parallel.spec": "a reference that the tests run at several quadrature orders",
    "main.argv": "the console entry point, which reads sys.argv when it is None",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _functions(tree):
    """Functions and methods at module or class level, never those nested in
    a function."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef):
            yield node
            pending.extend(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def options() -> dict[str, tuple[list[str], set[str], bool]]:
    """{callee name: (positional parameter order, defaulted parameters,
    whether the callee is a dataclass)}."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _functions(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                if not _is_dataclass(node):
                    continue
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
                order = [s.target.id for s in fields]
                defaulted = {s.target.id for s in fields if s.value is not None}
            else:
                args = node.args
                positional = args.posonlyargs + args.args
                order = [a.arg for a in positional if a.arg not in ("self", "cls")]
                defaulted = {a.arg for a in positional[len(positional) - len(args.defaults):]}
                defaulted |= {
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                }
            if defaulted:
                found[node.name] = (order, defaulted, isinstance(node, ast.ClassDef))
    return found


def set_options(found) -> set[str]:
    """The `callee.parameter` names some call in the program sets."""
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    fields = {}
    for name, (order, _, is_dataclass) in found.items():
        for p in order if is_dataclass else ():
            fields.setdefault(p, set()).add(name)
    names = set()
    for path in modules:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if callee == "replace":
                for kw in call.keywords:
                    names |= {f"{c}.{kw.arg}" for c in fields.get(kw.arg, ())}
                continue
            if callee not in found:
                continue
            order = found[callee][0]
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords
            )
            names |= {f"{callee}.{p}" for p in order[: len(order) if spread else len(call.args)]}
            names |= {f"{callee}.{kw.arg}" for kw in call.keywords if kw.arg}
    return names


def defaulted_options(found) -> set[str]:
    return {f"{name}.{p}" for name, (_, defaulted, _) in found.items() for p in defaulted}


def test_every_option_is_set_by_a_caller():
    found = options()
    unset = defaulted_options(found) - set_options(found) - set(UNSET_OPTIONS)
    assert not unset, f"options that nothing outside the tests sets: {sorted(unset)}"


def test_unset_options_are_still_options_and_unset():
    found = options()
    assert set(UNSET_OPTIONS) <= defaulted_options(found)
    assert not set(UNSET_OPTIONS) & set_options(found), "drop the exception: a caller sets it"
