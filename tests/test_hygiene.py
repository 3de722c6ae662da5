"""Static checks of the package sources that need nothing beyond the
standard library."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eqsat"
TRACING = SRC.parent.parent / "bench" / "tracing.py"


def package_sources() -> dict[str, str]:
    """The text of every module of the package, by path below `SRC`."""
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses, as "line N: name"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (`_x`) that no module of `sources` reads,
    imports or takes as an attribute, as "module line N: name"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                used.update(alias.name for alias in n.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{module} line {node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in used
            ]
    return found


def argument_keyed_caches(source: str) -> list[str]:
    """Functions that take parameters and are decorated with
    `functools.cache` or `lru_cache`, as "line N: name". Such a cache keeps
    every argument and result alive for the life of the process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(target, "attr", None) or getattr(target, "id", None)
            if name in ("cache", "lru_cache"):
                found.append(f"line {node.lineno}: {node.name}")
    return found


def unread_parameters(source: str) -> list[str]:
    """Parameters of a module-level function, or of a method of a
    module-level class, that its body never reads, as "line N: function
    parameter" or "line N: Class.method parameter". A method's first
    parameter (`self` or `cls`) and dunder methods are not checked; nor are
    nested functions, whose signatures callback protocols fix."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    tree = ast.parse(source)
    functions = [(node.name, node, 0) for node in tree.body if isinstance(node, defs)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions += [
                (f"{cls.name}.{node.name}", node, 1)
                for node in cls.body
                if isinstance(node, defs)
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ]
    found = []
    for name, node, skip in functions:
        a = node.args
        params = [*a.posonlyargs, *a.args][skip:] + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        found += [f"line {node.lineno}: {name} {p.arg}" for p in params if p.arg not in read]
    return found


def self_calling_functions(source: str) -> list[str]:
    """Functions, nested ones and methods included, whose body calls the
    function's own name, as "line N: name". Such a function recurses, so
    the depth of its input is bounded by the recursion limit. A call on
    `super()` reaches another class's method, so it is not counted."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, defs):
            continue
        calls = [n.func for n in ast.walk(node) if isinstance(n, ast.Call)]
        names = {
            getattr(f, "id", None) or getattr(f, "attr", None)
            for f in calls
            if not ast.unparse(f).startswith("super().")
        }
        if node.name in names:
            found.append(f"line {node.lineno}: {node.name}")
    return found


def stack_walks(source: str) -> list[str]:
    """Functions, nested ones and methods included, that hand-roll a stack
    walk: a loop `while name:` in their own body, not in a function nested
    in it, that calls `name.pop()`. As "line N: name"."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, defs):
            continue
        inner = [d for d in ast.walk(fn) if d is not fn and isinstance(d, defs)]
        nested = {n for d in inner for n in ast.walk(d)}
        loops = [
            loop
            for loop in ast.walk(fn)
            if isinstance(loop, ast.While)
            and isinstance(loop.test, ast.Name)
            and loop not in nested
        ]
        if any(
            isinstance(n, ast.Call) and ast.unparse(n.func) == f"{loop.test.id}.pop"
            for loop in loops
            for stmt in loop.body
            for n in ast.walk(stmt)
        ):
            found.append(f"line {fn.lineno}: {fn.name}")
    return found


def module_functions(source: str) -> list[tuple[str, ast.AST]]:
    """Each module-level function as (name, node), then each method of a
    module-level class as ("Class.method", node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    body = ast.parse(source).body
    functions = [(node.name, node) for node in body if isinstance(node, defs)]
    functions += [
        (f"{cls.name}.{node.name}", node)
        for cls in body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, defs)
    ]
    return functions


def functions_naming(source: str, name: str) -> dict[str, list[int]]:
    """Module-level function, or method of a module-level class as
    "Class.method" -> the lines where its body, nested functions and default
    arguments included, names `name` as a variable or an attribute."""
    return {
        qualname: [
            n.lineno
            for n in ast.walk(node)
            if (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
        ]
        for qualname, node in module_functions(source)
    }


def attribute_writers(source: str, attr: str) -> list[str]:
    """Module-level functions, or methods of module-level classes as
    "Class.method", whose body assigns to an attribute named `attr`, as in
    `x.attr = ...` or `x.attr += ...`."""
    return [
        qualname
        for qualname, node in module_functions(source)
        if any(
            isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Store)
            for n in ast.walk(node)
        )
    ]


def raised_names(source: str) -> set[str]:
    """The names of the exceptions that `raise` statements raise, called or
    not, bare re-raises left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return found


def traced_names(source: str) -> list[str]:
    """The dotted names, below the package, of the functions and methods
    that the module-level dicts `SPAN_FUNCTIONS` and `SPAN_METHODS` of a
    tracer map to `(owner, "attr")`, as "owner.attr"."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Dict):
            continue
        if {getattr(t, "id", None) for t in node.targets} & {
            "SPAN_FUNCTIONS",
            "SPAN_METHODS",
        }:
            for value in node.value.values:
                owner, attr = value.elts
                found.append(f"{ast.unparse(owner)}.{attr.value}")
    return found


def missing_names(names: list[str]) -> list[str]:
    """The names "module.attr" or "module.Class.attr" of `names` that the
    package's modules do not define as something callable."""
    missing = []
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"eqsat.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    return missing


_CONTAINERS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
    "WeakKeyDictionary", "WeakValueDictionary",
}


def module_level_state(source: str) -> list[str]:
    """Where a module can keep state between calls, as "line N: name": a
    module-level name bound to a mutable container, and a function decorated
    with `functools.cache` or `lru_cache`, with parameters or none."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            call = value.func if isinstance(value, ast.Call) else None
            name = getattr(call, "attr", None) or getattr(call, "id", None)
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                  ast.ListComp, ast.SetComp)) or name in _CONTAINERS:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"line {node.lineno}: {t.id}" for t in targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    found.append(f"line {node.lineno}: {node.name}")
    return found


def test_unused_imports_finds_unused_names():
    source = "import os\nimport a.b\nfrom c import d, e as f\nprint(a, f)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: d"]


def test_unreferenced_private_names_finds_unread_names():
    sources = {
        "m.py": "def _f(): pass\nclass _C: pass\n_X = 1\n_Y: int = 2\n"
        "__all__ = []\ndef g(): return _f\n",
        "n.py": "from m import _C\nimport m\nprint(m._Y)\n_Z = 0\n",
    }
    assert unreferenced_private_names(sources) == ["m.py line 3: _X", "n.py line 4: _Z"]


def test_argument_keyed_caches_finds_cached_functions_with_parameters():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef a(): pass\n"
        "@functools.cache\ndef b(x): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef c(*xs): pass\n"
        "@lru_cache\ndef d(*, k): pass\n"
        "@cache\ndef e(): pass\n"
        "class C:\n    @cache\n    def f(self): pass\n"
        "@staticmethod\ndef g(x): pass\n"
    )
    assert argument_keyed_caches(source) == [
        "line 6: b", "line 8: c", "line 10: d", "line 15: f",
    ]


def test_module_level_state_finds_containers_and_caches():
    source = (
        "import collections, functools, weakref\n"
        "A = {}\nB: list = []\nC = weakref.WeakKeyDictionary()\n"
        "D = collections.defaultdict(list)\nE = (1, 2)\nF = frozenset()\n"
        "@functools.cache\ndef g(): pass\n"
        "def h():\n    cache = {}\n    return cache\n"
    )
    assert module_level_state(source) == [
        "line 2: A", "line 3: B", "line 4: C", "line 5: D", "line 9: g",
    ]


def test_unread_parameters_finds_parameters_nothing_reads():
    source = (
        "def f(a, /, b, *args, c, d=1, **kw):\n"
        "    def inner(): return b\n"
        "    return [args, lambda: c, inner]\n"
        "def g(x, y=x):\n    y = 1\n    return y\n"
        "class C:\n    def m(self, z): pass\n"
        "    def __init__(self, w): pass\n"
        "    @classmethod\n    def c(cls, v, u): return u\n"
        "def h(): pass\n"
    )
    assert unread_parameters(source) == [
        "line 1: f a", "line 1: f d", "line 1: f kw", "line 4: g x",
        "line 8: C.m z", "line 11: C.c v",
    ]


def test_self_calling_functions_finds_recursion():
    source = (
        "def f(n): return f(n - 1)\n"
        "def g(p):\n    def walk(q): return [walk(x) for x in q]\n    return walk(p)\n"
        "class C:\n    def m(self): return self.m()\n"
        "def h(): return g(f)\n"
        "class D(C):\n    def m(self): return super().m()\n"
    )
    assert self_calling_functions(source) == ["line 1: f", "line 3: walk", "line 6: m"]


def test_stack_walks_finds_loops_that_pop_what_they_test():
    source = (
        "def f(t):\n    todo = [t]\n    while todo:\n        todo.pop()\n"
        "def g(xs, ys):\n    while xs:\n        xs = ys.pop()\n"
        "    while True:\n        xs.pop()\n"
        "def k(t):\n    def walk(u):\n        stack = [u]\n        while True:\n"
        "            while stack:\n                stack.pop(0)\n    return walk\n"
        "class C:\n    def m(self):\n        while self.q:\n            self.q.pop()\n"
    )
    assert stack_walks(source) == ["line 1: f", "line 11: walk"]


def test_attribute_writers_finds_assignments_not_reads():
    source = (
        "def f(c):\n    c.lits += (1,)\n"
        "def g(c):\n    return c.lits\n"
        "def h(lits):\n    lits = ()\n"
        "class C:\n    def __init__(self):\n        self.lits = ()\n"
    )
    assert attribute_writers(source, "lits") == ["f", "C.__init__"]


def test_functions_naming_finds_names_and_attributes():
    source = (
        "def f(g):\n    def inner(x=g.find): return x\n    return inner\n"
        "def h(find):\n    return find(1)\n"
        "def k(g):\n    return g.finder\n"
        "class C:\n    def m(self, g):\n        return g.find\n"
        "    def n(self): pass\n"
    )
    assert functions_naming(source, "find") == {
        "f": [2], "h": [5], "k": [], "C.m": [10], "C.n": [],
    }


def test_raised_names_finds_raised_exceptions():
    source = (
        "def f(x):\n    if x:\n        raise KeyError(x)\n    raise errors.Bad\n"
        "try:\n    f(1)\nexcept KeyError:\n    raise\n"
    )
    assert raised_names(source) == {"KeyError", "Bad"}


def test_traced_names_reads_both_span_dicts():
    source = (
        "from eqsat import machine, egraph\n"
        "SPAN_FUNCTIONS = {'m.e': (machine, 'ematch_program')}\n"
        "SPAN_METHODS = {'e.r': (egraph.EGraph, 'rebuild')}\n"
        "SELF_TIMES = {'m.s': 'm.e'}\n"
    )
    assert traced_names(source) == ["machine.ematch_program", "egraph.EGraph.rebuild"]
    assert missing_names(["machine.ematch_program", "egraph.EGraph.rebuild"]) == []
    assert missing_names(["machine.gone", "egraph.EGraph.gone", "egraph.gone.x"]) == [
        "machine.gone", "egraph.EGraph.gone", "egraph.gone.x",
    ]


def test_every_traced_name_exists_in_the_engine():
    # the benchmark's tracer wraps these by name; one that is gone would
    # leave its spans and counters reading zero
    names = traced_names(TRACING.read_text())
    assert len(names) >= 10
    counted = [
        "machine.run_program",  # machine.vm_runs and vm_runs_empty
        "egraph.EGraph.add_enode",
        "egraph.EGraph.merge",
        "saturation.BackoffScheduler.inform",
    ]
    assert missing_names(names + counted) == []
    # the tracer sees each root's run only if the search calls the module's
    # `run_program` by name
    found = functions_naming(package_sources()["machine.py"], "run_program")
    assert found["ematch_program"]


def test_only_apply_and_congruence_merge_classes():
    # an analysis adds no node and merges no class, so every union comes
    # from a rule's application or from congruence
    found = {
        f"{path.removesuffix('.py').replace('/', '.')}.{qualname}"
        for path, source in package_sources().items()
        for qualname, lines in functions_naming(source, "merge").items()
        if lines
    }
    assert found == {"saturation.eqsat_step", "egraph.EGraph.rebuild"}


def test_only_add_enode_and_merge_change_a_class_literals():
    # `EClass.lits` is exact at every moment because a class gains a literal
    # node only where it is made or merged; a rebuild changes no leaf
    found = {
        f"{path.removesuffix('.py')}.{qualname}"
        for path, source in package_sources().items()
        for qualname in attribute_writers(source, "lits")
    }
    assert found == {"egraph.EClass.__init__", "egraph.EGraph.add_enode", "egraph.EGraph.merge"}


def test_literal_guards_read_no_node_set():
    # a literal guard reads the class's literal nodes, not a scan of the class
    found = functions_naming(package_sources()["rules.py"], "class_nodes")
    assert found.get("class_literals") == []
    assert functions_naming(package_sources()["rules.py"], "class_lits")["class_literals"]


def test_machine_defines_no_match_class():
    # a match is a plain tuple of class ids (`machine.EMatch`), built in C
    tree = ast.parse(package_sources()["machine.py"])
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    assert classes == {"EMatchProgram", "RunState", "_Full"}


def test_only_rules_raises_inconsistent_class():
    # "a class holds one literal of a kind" is known in one place,
    # `rules.class_literal`
    found = {
        path
        for path, source in package_sources().items()
        if "InconsistentClass" in raised_names(source)
    }
    assert found == {"rules.py"}


def test_no_unused_imports_in_package():
    # the top-level __init__.py imports names only to re-export them
    found = {
        name: unused_imports(source)
        for name, source in package_sources().items()
        if name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_no_unreferenced_private_names_in_package():
    assert unreferenced_private_names(package_sources()) == []


def test_no_argument_keyed_caches_in_package():
    found = {
        name: argument_keyed_caches(source) for name, source in package_sources().items()
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_compile_theory_keeps_no_state():
    # the oracles that patch what `compile_theory` calls (`compile_two_way`
    # patches `mirrored`) need each call to compile afresh: the compiled
    # form a `Theory` keeps is the only cache, and it lives on the `Theory`
    from eqsat.rules import parse_theory
    from eqsat.saturation import compile_theory

    assert module_level_state(package_sources()["saturation.py"]) == []
    theory = parse_theory("(+ ~a ~b) == (+ ~b ~a)\n(f ~x) --> (g ~x)\n")
    first, second = compile_theory(theory), compile_theory(theory)
    assert first is not second
    for a, b in zip(first, second):
        assert a is not b
        assert all(x.program is not y.program for x, y in zip(a.directions, b.directions))
    assert theory.compiled is None


def test_no_unread_parameters_in_package():
    # astsize and astsize_inv take the node a CostFunction is called with
    allowed = {("analysis.py", "astsize node"), ("analysis.py", "astsize_inv node")}
    found = [
        f"{name} {f}"
        for name, source in package_sources().items()
        for f in unread_parameters(source)
        if (name, f.partition(": ")[2]) not in allowed
    ]
    assert found == []


def test_only_run_time_matchers_and_the_strategy_parser_recurse():
    # the text layers and the e-graph's pattern compiler walk on stacks, and
    # both backends' right-hand-side builders fold with `terms.fold_tree`, so
    # they take any depth; what calls itself is the classical matchers'
    # run-time `run` and `parse_strategy`'s nested `parse` (this check cannot
    # see the mutual recursion of the classical `_compile_one` and
    # `_compile_seq`)
    found = [
        f"{name} {f.partition(': ')[2]}"
        for name, source in package_sources().items()
        for f in self_calling_functions(source)
    ]
    assert found == ["classical.py run", "classical.py parse"]


def test_text_layers_do_not_recurse():
    # the S-expression reader and printer, and the rule parser on top of
    # them, must take input of any depth
    sources = package_sources()
    found = {name: self_calling_functions(sources[name]) for name in ("terms.py", "rules.py")}
    assert found == {"terms.py": [], "rules.py": []}


def test_rule_compiler_does_not_recurse():
    # a right-hand side compiles to a flat plan and runs in a loop, so it
    # may be of any depth
    assert self_calling_functions(package_sources()["saturation.py"]) == []


def test_matcher_steps_never_call_find():
    # a search reads a rebuilt graph, whose registers hold canonical ids
    found = functions_naming(package_sources()["machine.py"], "find")
    makers = ("_bind", "_check_lit", "_compare", "_bind_yield", "_yield")
    assert {m: found.get(m) for m in makers} == {m: [] for m in makers}


def test_one_tree_fold_in_package():
    # a post-order walk of a tree goes through `terms.fold_tree`; what keeps
    # a stack of its own walks two trees at once (`tree_eq`, `mirrored`),
    # works in pre-order (`print_sexpr`, `compile_pattern`, `Prewalk`'s
    # `walk`), checks its path for cycles (`extract`) or is no tree walk
    # (`_propagate`)
    found = [
        f"{name} {f.partition(': ')[2]}"
        for name, source in package_sources().items()
        for f in stack_walks(source)
    ]
    assert found == [
        "analysis.py extract",
        "classical.py walk",
        "egraph.py _propagate",
        "machine.py compile_pattern",
        "saturation.py mirrored",
        "terms.py fold_tree",
        "terms.py tree_eq",
        "terms.py print_sexpr",
    ]


def test_terms_alone_says_what_a_literal_is():
    # a literal is a `terms.Atom` or `terms.Lit` in every layer: a leaf
    # e-node and a pattern's literal leaf are the term leaf itself. So value
    # equality (1 == 1.0, NaN equal to NaN) is written once, in terms.py, and
    # no other class compares or hashes its own way but `rules.PatTerm`, a
    # tree that `terms.tree_eq` compares
    sources = package_sources()
    assert functions_naming(sources["terms.py"], "num_eq")["Lit.__eq__"]
    assert functions_naming(sources["terms.py"], "num_key")["Lit.__hash__"]
    naming, comparing = [], []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            if names & {"num_eq", "num_key"}:
                naming.append(f"{path} line {node.lineno}")
            if isinstance(node, ast.ClassDef):
                defined = set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined.add(item.name)
                    elif isinstance(item, ast.Assign):
                        defined.update(getattr(t, "id", None) for t in item.targets)
                if defined & {"__eq__", "__hash__"}:
                    comparing.append(f"{path.removesuffix('.py')}.{node.name}")
    assert {line.partition(" ")[0] for line in naming} == {"terms.py"}
    assert sorted(comparing) == ["rules.PatTerm", "terms.Compound", "terms.Lit"]
