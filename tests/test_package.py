"""Every module imports on its own, exports only names it defines, uses what it
imports and reads every private name it defines, exports only names that the
package or the benchmark reads, and no module stores anything on a model but
its fields; every test file uses what it imports too.  The package keeps to
Python 3.10: its syntax, and the regular expressions it compiles.  Its memos
evict through one routine, ``model.lru_get``."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
from pathlib import Path

try:
    from re import _parser as sre_parser  # Python 3.11 on
except ImportError:  # Python 3.10
    import sre_parse as sre_parser

import pytest

import faircb

from helpers import fresh_python

MODULES = sorted(m.name for m in pkgutil.iter_modules(faircb.__path__))
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(f"tests/{path.name}" for path in TESTS.glob("*.py"))
# scipy packages whose ``__init__`` no faircb process runs (scipy.optimize's
# alone imports about 300 modules, special, linalg and sparse among them), and
# the Brent extension, since the generator inverts g in numpy.
PRINT_UNUSED_SCIPY = (
    "print(sorted({'scipy.optimize', 'scipy.special', 'scipy.optimize._zeros'} & set(sys.modules)))"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_and_its_all_resolves(name):
    # A fresh interpreter per module: an import cycle only shows when the
    # module that closes it is the first one imported.
    done = fresh_python(f"import sys, faircb.{name}; {PRINT_UNUSED_SCIPY}")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n", f"importing faircb.{name} loads {done.stdout}"
    module = importlib.import_module(f"faircb.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing, missing


def test_gen_and_run_load_neither_scipy_optimize_nor_special(tmp_path):
    # A divergence-band config, so generation inverts g, then a run, so the LP
    # is solved; neither loads the Brent extension either.
    (tmp_path / "band.json").write_text(json.dumps({
        "n_arms": 5, "support": 6, "seed": 4, "fairness_eps": 0.5, "fairness_gap_band": [0.3, 0.45],
        "reward_gap_band": [0.3, 0.45], "divergence_band": [10.0, 50.0],
    }))
    done = fresh_python(
        "import sys\n"
        "from faircb.cli import main\n"
        "band, inst = sys.argv[1:]\n"
        "assert main(['gen', '--config', band, '--out', inst]) == 0\n"
        "assert main(['run', '--instance', inst, '--algo', 'csr-v2', '--T', '1000']) == 0\n"
        + PRINT_UNUSED_SCIPY,
        str(tmp_path / "band.json"), str(tmp_path / "inst.json"),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", done.stdout


@pytest.mark.parametrize("name", MODULES + TEST_FILES)
def test_module_uses_every_name_it_imports(name):
    # An import that nothing reads and ``__all__`` does not export is dead
    # code; the scan reads names, so a use inside an annotation counts.
    if name in TEST_FILES:
        path, exported = TESTS / Path(name).name, ()
    else:
        module = importlib.import_module(f"faircb.{name}")
        path, exported = Path(module.__file__), getattr(module, "__all__", ())
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported)
    unused = {x: line for x, line in imported.items() if x not in used}
    assert not unused, f"imported and never used (name: line): {unused}"


def _unread_private_names(source: str) -> dict[str, int]:
    """Module-level ``def _f``, ``class _C`` and ``_X = ...`` names that the
    module never reads, by line."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((x, node.lineno) for x in names if x.startswith("_") and not x.startswith("__"))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return {x: line for x, line in defined.items() if x not in read}


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_private_name_it_defines(name):
    # A private name is the module's own business: if the module never reads
    # it, it is dead code.
    path = Path(importlib.import_module(f"faircb.{name}").__file__)
    unread = _unread_private_names(path.read_text())
    assert not unread, f"defined and never read (name: line): {unread}"


def test_the_private_name_scan_flags_a_leftover_constant():
    source = (
        '_DIRECTIONS = ("ssp", "sps")\n'
        "_CAP: int = 3\n"
        "class _C: ...\n"
        "def _f():\n    return _C, _CAP\n"
        "x = _f()\n"
    )
    assert _unread_private_names(source) == {"_DIRECTIONS": 1}


def _unread_exports(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per source, the names in its ``__all__`` that no source reads as a name,
    an attribute or an import; the ``__all__`` entry itself is no read."""
    read, exported = set(), {}
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported[name] = ast.literal_eval(node.value)
    unread = {name: [x for x in names if x not in read] for name, names in exported.items()}
    return {name: names for name, names in unread.items() if names}


def test_every_export_is_read_by_the_package_or_the_benchmark():
    # A public name that only the tests read is a reference implementation,
    # and references belong in tests/.
    sources = {
        name: Path(importlib.import_module(f"faircb.{name}").__file__).read_text()
        for name in MODULES
    }
    for path in sorted((TESTS.parent / "benchmarks").glob("*.py")):
        if not path.name.startswith("test_"):
            sources[f"benchmarks/{path.name}"] = path.read_text()
    unread = _unread_exports(sources)
    assert not unread, f"exported and read only by the tests (module: names): {unread}"


def test_the_export_scan_flags_a_name_only_the_tests_read():
    sources = {
        "a": (
            '__all__ = ["f", "g", "h", "K"]\n'
            "def f(): ...\n"
            "def g(): ...\n"
            "def h():\n    return f\n"
            "class K: ...\n"
        ),
        "b": "import a\nfrom a import h\nx = a.g\n",
    }
    assert _unread_exports(sources) == {"a": ["K"]}


def _model_attribute_writes(source: str) -> dict[str, int]:
    """Each ``param.attr`` that a function stores to, by line, where ``param`` is
    one of its parameters annotated ``CausalModel``, and each ``self.attr`` that
    the body of ``class CausalModel`` stores to, where ``attr`` is not a field."""
    found = {}
    tree = ast.parse(source)
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "CausalModel"):
            continue
        fields = {
            node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr not in fields):
                found[f"self.{node.attr}"] = node.lineno
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        models = {
            a.arg for a in params
            if a.annotation is not None and "CausalModel" in ast.unparse(a.annotation)
        }
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id in models):
                found[f"{node.value.id}.{node.attr}"] = node.lineno
    return found


@pytest.mark.parametrize("name", MODULES)
def test_module_stores_nothing_on_a_model(name):
    # A value cached on a model is keyed on its identity, so it goes stale when
    # the model is edited in place; memos are keyed on content instead.
    path = Path(importlib.import_module(f"faircb.{name}").__file__)
    writes = _model_attribute_writes(path.read_text())
    assert not writes, f"stored on a CausalModel parameter (attribute: line): {writes}"


def test_the_model_write_scan_flags_a_cache_on_the_model():
    source = (
        "def f(model: CausalModel, other):\n"
        "    model._plan = 1\n"
        "    other.x = model.cards\n"
        "def g(m: 'CausalModel | None'):\n"
        "    m.n, z = 1, 2\n"
        "    m.k += 1\n"
        "class CausalModel:\n"
        "    nodes: tuple\n"
        "    def __post_init__(self):\n"
        "        self.nodes = tuple(self.nodes)\n"
        "        self._topo = None\n"
    )
    assert _model_attribute_writes(source) == {
        "model._plan": 2, "m.n": 5, "m.k": 6, "self._topo": 11,
    }


@pytest.mark.parametrize("name", MODULES)
def test_module_parses_as_python_3_10(name):
    path = Path(importlib.import_module(f"faircb.{name}").__file__)
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# The ``re`` functions that take a pattern first.
RE_CALLS = {"compile", "search", "match", "fullmatch", "split", "findall", "finditer", "sub", "subn"}
# Regex nodes that Python 3.11 added: ``a*+`` and the like, and ``(?>...)``.
POST_310_REGEX = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _regex_ops(node) -> set[str]:
    """The names of every opcode in a parsed pattern, nested ones too."""
    if isinstance(node, sre_parser.SubPattern):
        return set().union(*({str(op)} | _regex_ops(av) for op, av in node))
    if isinstance(node, (list, tuple)):
        return set().union(*map(_regex_ops, node))
    return set()


def _post_310_regexes(source: str) -> dict[int, set[str]]:
    """Each string literal passed as the pattern of a ``re`` call, by line, with
    the 3.11-only nodes it holds, where it holds any."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in RE_CALLS and node.args):
            continue
        pattern = node.args[0]
        if isinstance(pattern, ast.Constant) and isinstance(pattern.value, str):
            ops = _regex_ops(sre_parser.parse(pattern.value)) & POST_310_REGEX
            if ops:
                found[node.lineno] = ops
    return found


@pytest.mark.parametrize("name", MODULES)
def test_module_compiles_no_regex_that_needs_python_3_11(name):
    path = Path(importlib.import_module(f"faircb.{name}").__file__)
    found = _post_310_regexes(path.read_text())
    assert not found, f"regex nodes Python 3.10 cannot parse (line: nodes): {found}"


def test_the_python_3_10_scans_flag_newer_syntax_and_regexes():
    source = (
        'import re\n'
        'A = re.compile(r"a*+")\n'
        'B = re.fullmatch(r"x|(?:(?>a)b)", "ab")\n'
        'C = re.compile(r"a*b+?(c)")\n'
        'D = other.compile(r"a*+")\n'
    )
    assert _post_310_regexes(source) == {2: {"POSSESSIVE_REPEAT"}, 3: {"ATOMIC_GROUP"}}
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def _lru_evictions(sources: dict[str, str]) -> list[str]:
    """``module.function`` for each ``popitem`` call with an argument, which only
    an ``OrderedDict`` takes; the function is the innermost one around the call."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "popitem" and (child.args or child.keywords)):
                found.append(where)
            visit(child, where)

    for name, source in sources.items():
        visit(ast.parse(source), name)
    return found


def test_every_memo_evicts_through_one_lru_routine():
    # ``model.lru_get`` is the one least-recently-used eviction; a memo that
    # evicts by itself is a copy of it.
    sources = {
        name: Path(importlib.import_module(f"faircb.{name}").__file__).read_text()
        for name in MODULES
    }
    assert _lru_evictions(sources) == ["model.lru_get"]


def test_the_eviction_scan_flags_a_copied_lru():
    source = (
        "def f(memo):\n"
        "    memo.popitem(last=False)\n"
        "class C:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            return self.memo.popitem(False)\n"
        "        return {}.popitem()\n"
    )
    assert _lru_evictions({"m": source}) == ["m.f", "m.C.g.h"]
