"""The public surface, held to its callers.

Every name a module under ``src/repro`` lists in ``__all__`` and every
subcommand and flag of ``python -m repro`` needs a caller that is not
its own definition, a package ``__init__`` re-export or a test:

* a name passes when a Python file under ``src/``, ``examples/`` or
  ``benchmarks/`` -- outside every ``tests`` directory, every
  ``__init__.py`` and the module that defines the name -- imports it or
  reads ``<module>.<name>``, or when a code block or code span of
  ``README.md`` or ``docs/TUTORIAL.md`` does. Callers are matched
  through their imports, never as bare words;
* a subcommand or flag passes when a ``python -m repro`` command line
  in ``ci.yml``, ``README.md`` or ``docs/TUTORIAL.md``, or an argument
  list in ``tests/integration/test_cli.py``, uses it.

A name used only inside its own module leaves ``__all__``; it does not
go on the allow-list.

Settings are held the same way. In the modules :data:`SETTING_MODULES`
names, every defaulted parameter of an ``__all__`` function, or of an
``__all__`` class's constructor or public method, needs a caller outside
the tests that passes it, by keyword or by position: a call reached
through the caller's imports (a method call is matched by its name), or
one that splats ``*args`` / ``**kwargs`` over it. A parameter only tests
set becomes a constant; one nobody sets goes. The allow-list names the
few that stay anyway: a deployment setting, a fake a test injects, or a
name ``benchmarks/e2e/`` uses.
"""

import argparse
import ast
import re
from functools import lru_cache
from pathlib import Path

from repro.__main__ import build_parser

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
CALLER_ROOTS = (SRC, REPO / "examples", REPO / "benchmarks")
DOCS = (REPO / "README.md", REPO / "docs" / "TUTORIAL.md")
CLI_CALLERS = DOCS + (
    REPO / ".github" / "workflows" / "ci.yml",
    REPO / "tests" / "integration" / "test_cli.py",
)

#: ``module.name`` -> why it stays public without a caller (at most 5).
ALLOWED = {}


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {
    module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
}


@lru_cache(maxsize=None)
def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def top_level(tree):
    """Module-level statements, looking inside ``if`` / ``try`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending += node.body + node.orelse + getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                pending += handler.body
        else:
            yield node


def bound_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return {
        name.id for target in targets for name in ast.walk(target)
        if isinstance(name, ast.Name)
    }


def listings():
    """``(module, name)`` for every ``__all__`` entry under ``src/repro``."""
    for module, path in MODULES.items():
        for node in top_level(parsed(path)):
            if "__all__" in bound_names(node):
                for element in node.value.elts:
                    yield module, element.value


@lru_cache(maxsize=None)
def home(module, name):
    """The module that defines ``name`` as reached from ``module``,
    following ``from M import name`` re-exports and a package's lazy
    ``_LAZY_EXPORTS`` table (PEP 562); ``None`` if unreached."""
    if module not in MODULES:
        return None
    for node in top_level(parsed(MODULES[module])):
        if "_LAZY_EXPORTS" in bound_names(node):
            lazy = ast.literal_eval(node.value)
            if name in lazy:
                return home(lazy[name], name)
        elif name in bound_names(node):
            return module
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return home(node.module, alias.name)
    return None


def dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id] + parts[::-1]
    return None


def references(trees):
    """``(module, attribute)`` pairs reached through imports: ``from M
    import a`` gives ``(M, a)``; ``import M as m`` then ``m.a.b`` gives
    ``(M, a)`` and ``(M.a, b)``."""
    modules, found = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        modules[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    found.add((node.module, alias.name))
                    submodule = f"{node.module}.{alias.name}"
                    if submodule in MODULES:
                        modules[alias.asname or alias.name] = submodule
    for tree in trees:
        for node in ast.walk(tree):
            chain = dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in modules:
                module = modules[chain[0]]
                for attribute in chain[1:]:
                    found.add((module, attribute))
                    module = f"{module}.{attribute}"
    return found


def is_caller(path):
    relative = path.relative_to(REPO)
    return path.name != "__init__.py" and "tests" not in relative.parts


def doc_code(text):
    """Fenced blocks and inline spans of a markdown document."""
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    prose = re.sub(r"^```[^\n]*\n.*?^```", "", text, flags=re.M | re.S)
    return fenced, re.findall(r"`([^`\n]+)`", prose)


def doc_trees(text):
    """Each code block or span that parses as Python, plus one tree per
    dotted ``repro.*`` path written anywhere in code."""
    fenced, spans = doc_code(text)
    trees = []
    for code in fenced + spans:
        try:
            trees.append(ast.parse(code))
        except SyntaxError:
            pass
        trees += [
            ast.parse(f"import repro\n{path}")
            for path in re.findall(r"\brepro(?:\.\w+)+", code)
        ]
    return trees


@lru_cache(maxsize=None)
def callers():
    """``(defining module, name)`` for every name some caller reaches."""
    found = set()
    sources = [
        (module_name(path) if SRC in path.parents else None, [parsed(path)])
        for root in CALLER_ROOTS
        for path in sorted(root.rglob("*.py"))
        if is_caller(path)
    ] + [(None, doc_trees(doc.read_text(encoding="utf-8"))) for doc in DOCS]
    for here, trees in sources:
        for module, name in references(trees):
            defined = home(module, name)
            if defined is not None and defined != here:
                found.add((defined, name))
    return found


def uncalled_names():
    return sorted({
        f"{home(module, name) or module}.{name}"
        for module, name in listings()
        if (home(module, name), name) not in callers()
    })


def test_every_exported_name_has_a_caller():
    assert [name for name in uncalled_names() if name not in ALLOWED] == []


def test_the_allow_list_is_short_and_every_entry_is_needed():
    assert len(ALLOWED) <= 5
    assert all(reason for reason in ALLOWED.values())
    assert set(ALLOWED) <= set(uncalled_names())


def test_every_listed_name_is_defined():
    assert [
        f"{module}.{name}" for module, name in listings()
        if home(module, name) is None
    ] == []


# -- the command line -----------------------------------------------------------


def commands(parser, path=()):
    """``path -> {long flag: its spellings}`` for every (sub)command."""
    tree = {path: {}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                tree.update(commands(sub, path + (name,)))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            spellings = set(action.option_strings)
            tree[path][max(spellings, key=len)] = spellings
    return tree


def command_lines(path):
    """Token lists of every ``repro`` command line a caller file holds."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.List, ast.Tuple)):
                tokens = [
                    element.value
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                    else None
                    for element in node.elts
                ]
                if "repro" in tokens:
                    yield tokens[tokens.index("repro") + 1:]
                elif tokens and tokens[0] is not None:
                    yield tokens
        return
    text = text.replace("\\\n", " ")
    # A folded YAML scalar (``run: >-``) is one command line.
    text = re.sub(r">-\n((?:[ \t]+\S[^\n]*\n)+)",
                  lambda m: " ".join(m.group(1).split()) + "\n", text)
    for rest in re.findall(r"-m repro\b([^\n]*)", text):
        yield [token.strip("'\"") for token in re.split(r"[`#;|&]", rest)[0].split()]


def declaring(tree, path, option):
    """``(command, long flag)`` for the innermost command on ``path`` that
    declares ``option``, as argparse reads it; ``None`` if none does."""
    for depth in range(len(path), -1, -1):
        for flag, spellings in tree[path[:depth]].items():
            if option in spellings:
                return path[:depth], flag
    return None


def used_commands(tree):
    used = set()
    for caller in CLI_CALLERS:
        for tokens in command_lines(caller):
            path = ()
            for token in tokens:
                if token is None:
                    continue
                if path + (token,) in tree:
                    path += (token,)
                    used.add(path)
                elif token.startswith("-"):
                    used.add(declaring(tree, path, token.split("=")[0]))
    used.discard(None)
    return used


def test_every_subcommand_and_flag_has_a_caller():
    tree = commands(build_parser())
    used = used_commands(tree)
    missing = [" ".join(path) for path in tree if path and path not in used] + [
        " ".join(path + (flag,))
        for path, flags in tree.items()
        for flag in flags
        if (path, flag) not in used
    ]
    assert missing == []


# -- settings -------------------------------------------------------------------

SETTING_MODULES = ("repro",)

#: ``module.callable(parameter)`` -> why it stays without a caller.
SETTINGS_ALLOWED = {
    "repro.obs.cluster.SloTracker(clock)": "test fake: the burn-rate tests drive time",
    "repro.obs.trace.Tracer(clock)": "test fake: span durations the tests fix",
    "repro.dialog.answers.InteractiveAnswers(input_stream)":
        "test fake: the dialog tests type the answers",
    "repro.dialog.answers.InteractiveAnswers(output_stream)":
        "test fake: the dialog tests read the prompts",
}


def in_setting_scope(module):
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SETTING_MODULES
    )


def _defaulted(function, skip_first):
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    if skip_first:
        positional = positional[1:]
    first = len(positional) - len(arguments.defaults)
    for index, argument in enumerate(positional):
        if index >= first:
            yield argument.arg, index
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield argument.arg, None


def settings():
    """``(module, callable, parameter, position)`` of every defaulted
    parameter in scope; ``callable`` is ``Name`` for a function or a
    constructor and ``Class.method`` for a method (position ``None``
    for a keyword-only parameter)."""
    for module, name in sorted(set(listings())):
        if home(module, name) != module or not in_setting_scope(module):
            continue
        for node in top_level(parsed(MODULES[module])):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                for parameter, index in _defaulted(node, False):
                    yield module, name, parameter, index
            elif isinstance(node, ast.ClassDef) and node.name == name:
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef) or (
                        method.name.startswith("_") and method.name != "__init__"
                    ):
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in method.decorator_list
                    )
                    label = name if method.name == "__init__" else f"{name}.{method.name}"
                    for parameter, index in _defaulted(method, not static):
                        yield module, label, parameter, index


def call_targets(tree, here):
    """``(call, module, name)`` for each call whose callee resolves through
    the tree's imports (or ``here``'s own top-level names) to ``module.name``;
    a method call yields ``(call, None, method name)``."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    modules[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
                submodule = f"{node.module}.{alias.name}"
                if submodule in MODULES:
                    modules[alias.asname or alias.name] = submodule
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        chain = dotted(call.func)
        if chain and len(chain) == 1:
            if chain[0] in names:
                yield (call, *names[chain[0]])
            elif here is not None:
                yield call, here, chain[0]
            continue
        if chain and chain[0] in modules:
            module = ".".join([modules[chain[0]], *chain[1:-1]])
            yield call, module, chain[-1]
            continue
        if chain and chain[0] in names and len(chain) == 2:
            module, name = names[chain[0]]
            yield call, module, f"{name}.{chain[1]}"
        if isinstance(call.func, ast.Attribute):
            yield call, None, call.func.attr


@lru_cache(maxsize=None)
def passed_settings():
    """``(module, callable, parameter)`` every caller outside the tests passes."""
    wanted = {}
    for module, label, parameter, index in settings():
        wanted.setdefault((module, label), []).append((parameter, index))
    by_method = {}
    for module, label in wanted:
        if "." in label:
            by_method.setdefault(label.split(".")[1], []).append((module, label))
    sources = [
        (module_name(path) if SRC in path.parents else None, [parsed(path)])
        for root in CALLER_ROOTS
        for path in sorted(root.rglob("*.py"))
        if "tests" not in path.relative_to(REPO).parts
    ] + [(None, doc_trees(doc.read_text(encoding="utf-8"))) for doc in DOCS]
    found = set()
    for here, trees in sources:
        for tree in trees:
            for call, module, name in call_targets(tree, here):
                if module is None:
                    keys = by_method.get(name, [])
                else:
                    defined = home(module, name.split(".")[0])
                    if defined is None:
                        continue
                    keys = [(defined, name)]
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                keywords = {keyword.arg for keyword in call.keywords}
                for key in keys:
                    for parameter, index in wanted.get(key, ()):
                        if (
                            parameter in keywords
                            or None in keywords
                            or (index is not None and (starred or index < len(call.args)))
                        ):
                            found.add((*key, parameter))
    return found


def unset_settings():
    return sorted({
        f"{module}.{label}({parameter})"
        for module, label, parameter, _ in settings()
        if (module, label, parameter) not in passed_settings()
    })


def test_every_setting_has_a_caller_outside_the_tests():
    assert [name for name in unset_settings() if name not in SETTINGS_ALLOWED] == []


def test_the_settings_allow_list_is_short_and_every_entry_is_needed():
    assert len(SETTINGS_ALLOWED) <= 5
    assert all(reason for reason in SETTINGS_ALLOWED.values())
    assert set(SETTINGS_ALLOWED) <= set(unset_settings())
