"""Every public top-level name in ``src/vbe`` has a user, and every option is set.

A name counts as used when code under ``src/vbe`` or ``perfbench`` refers to
it, by a plain name or an attribute, anywhere outside its own definition.
Docstrings and comments do not count, and neither do the tests.  A name
without such a user either goes or is listed in ``ALLOWED`` with the paper
result it reproduces or the reason it stays.  ``tables.py`` holds pinned data,
not API, and is exempt.  A private top-level name (dunders aside) under
``src/vbe`` needs such a user too, with no allowlist: an unused one is a
leftover.  Matching is by name only, so a method that shares a name with a
function marks both as used.

An option is a defaulted parameter of a function or method, or a dataclass
field with a default, under ``src/vbe``.  It counts as set when some call
under ``src/vbe``, ``perfbench`` or ``tests`` passes it, by keyword, by
position or through ``replace(...)``.  An option nothing sets is a constant
in disguise: it goes, or is listed in ``ALLOWED_OPTIONS`` with the reason it
stays.  Calls match definitions by name only, and ``*args``/``**kwargs``
splats set nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "vbe").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
CALLERS = SCANNED + sorted((ROOT / "tests").glob("*.py"))
EXEMPT = {"tables"}

ALLOWED = {
    "circuit.controlled": "controlled block encoding, the part a linear combination of "
    "block encodings is built from",
    "pauli.commutator": "the Lie bracket of two sums, which defines the Lie closure",
    "pauli.mul_strings": "the phase rule of the Pauli group on single strings",
    "pauli.format_pauli_sum": "Pauli text format, for the planned CLI (ROADMAP, the vbe CLI)",
    "pauli.parse_generator_file": "Pauli text format, for the planned CLI (ROADMAP, the vbe CLI)",
    "resources.tlb_cnot": "the CNOT lower bound TLB of a one-ancilla complex encoding",
    "resources.nonlocal_gate_bound": "reproduces the CNOT-bound column of RESOURCES_N5",
    "resources.a_ratio": "reproduces the a-ratio behind the RESOURCES_N5 CNOT bound",
    "resources.lcu_estimate": "LCU gate count the symmetric ansatz is compared against",
    "symmetry.expressible": "membership of a target in span(B), the expressibility claim",
    "targets.zero_pad": "zero padding of non-power-of-two inputs before sub-normalization",
}


def _trees():
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in SCANNED}


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def public_definitions(trees) -> set[str]:
    """``module.name`` of each public top-level function, class and constant."""
    out = set()
    for path, tree in trees.items():
        if path.parent.name != "vbe" or path.stem in EXEMPT:
            continue
        for stmt in tree.body:
            out.update(f"{path.stem}.{n}" for n in _defined_names(stmt) if not n.startswith("_"))
    return out


def private_definitions(trees) -> set[str]:
    """``module.name`` of each private top-level name under ``src/vbe``, dunders aside."""
    return {
        f"{path.stem}.{n}"
        for path, tree in trees.items()
        if path.parent.name == "vbe"
        for stmt in tree.body
        for n in _defined_names(stmt)
        if n.startswith("_") and not n.startswith("__")
    }


def references(trees) -> set[tuple[str, str, str]]:
    """(module, enclosing top-level definition, name) of each name load and attribute."""
    refs = set()
    for path, tree in trees.items():
        for stmt in tree.body:
            owners = _defined_names(stmt) or [""]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.update((path.stem, owner, node.id) for owner in owners)
                elif isinstance(node, ast.Attribute):
                    refs.update((path.stem, owner, node.attr) for owner in owners)
    return refs


def unused_definitions(trees, defined) -> set[str]:
    """The names in ``defined`` referred to nowhere but inside themselves."""
    refs = references(trees)
    return {
        qual
        for qual in defined
        if not any(n == qual.split(".")[1] and f"{m}.{owner}" != qual for m, owner, n in refs)
    }


def test_every_public_name_is_used_or_allowed():
    trees = _trees()
    unused = unused_definitions(trees, public_definitions(trees))
    assert sorted(unused - set(ALLOWED)) == []


def test_every_private_name_is_used():
    trees = _trees()
    assert sorted(unused_definitions(trees, private_definitions(trees))) == []


def test_allowlist_names_exist_and_are_unused():
    trees = _trees()
    assert sorted(set(ALLOWED) - public_definitions(trees)) == [], "allowlisted name is gone"
    unused = unused_definitions(trees, public_definitions(trees))
    assert sorted(set(ALLOWED) - unused) == [], "allowlisted name has a user"


# ---- options ---------------------------------------------------------------
ALLOWED_OPTIONS: dict[str, str] = {}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def options() -> list[tuple[str, str, int | None]]:
    """(callee name, ``module.qualname(parameter)``, position) of every option.

    The callee name is what a call that sets the option names: the function,
    the method, the class for ``__init__`` parameters and dataclass fields,
    or ``replace`` for a field.  The position counts the arguments a call
    passes, so ``self`` and ``cls`` are skipped; it is None where only a
    keyword can set the option.
    """
    out = []

    def function(fn: ast.FunctionDef, owner: ast.ClassDef | None, module: str):
        a = fn.args
        params = a.posonlyargs + a.args
        if owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
        ):
            params = params[1:]
        if owner is None:
            callee, qual = fn.name, f"{module}.{fn.name}"
        elif fn.name == "__init__":
            callee, qual = owner.name, f"{module}.{owner.name}"
        else:
            callee, qual = fn.name, f"{module}.{owner.name}.{fn.name}"
        for pos in range(len(params) - len(a.defaults), len(params)):
            out.append((callee, f"{qual}({params[pos].arg})", pos))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((callee, f"{qual}({arg.arg})", None))

    def walk(body, owner, module):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(stmt, owner, module)
                walk(stmt.body, None, module)
            elif isinstance(stmt, ast.ClassDef):
                if _is_dataclass(stmt):
                    fields = [
                        f
                        for f in stmt.body
                        if isinstance(f, ast.AnnAssign)
                        and "ClassVar" not in ast.unparse(f.annotation)
                    ]
                    for pos, f in enumerate(fields):
                        if f.value is not None:
                            qual = f"{module}.{stmt.name}({f.target.id})"
                            out.extend([(stmt.name, qual, pos), ("replace", qual, None)])
                walk(stmt.body, stmt, module)

    for path in sorted((ROOT / "src" / "vbe").glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)).body, None, path.stem)
    return out


def unset_options() -> set[str]:
    """Options that no call under ``src/vbe``, ``perfbench`` or ``tests`` sets."""
    opts = options()
    found = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            # positions after a *args splat are unknown, so they set nothing
            n_pos = next(
                (i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args)
            )
            keywords = {k.arg for k in node.keywords}
            for callee, qual, pos in opts:
                param = qual[qual.index("(") + 1 : -1]
                if callee == name and (param in keywords or (pos is not None and pos < n_pos)):
                    found.add(qual)
    return {qual for _, qual, _ in opts} - found


def test_every_option_is_set():
    assert sorted(unset_options() - set(ALLOWED_OPTIONS)) == []


def test_allowed_options_are_unset():
    assert sorted(set(ALLOWED_OPTIONS) - unset_options()) == [], "allowlisted option is set"
