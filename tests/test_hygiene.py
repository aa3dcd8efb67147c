"""The shipped package holds the scheme and nothing more: no unused imports,
no top-level function or class, and no method or property of a package
class, that nothing in the package uses, and no statement that no public
flow runs.  Listing a name in __all__ does not count as using it.  And
the benchmark still runs on it: every function its tracer wraps exists,
every layer its metrics read is reached, and its workloads give the
ciphertext vectors its digests pin.  README names the container's current
format version, and every ``module.name`` or ``Class.attr`` that README
or a package docstring cites exists."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from random import Random

import mvphe
from mvphe import serialize
from mvphe.circuit import _walk
from mvphe.keys import _product_hint, _sum_hint

PACKAGE = Path(mvphe.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"
README = Path(__file__).parents[1] / "README.md"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Names read as variables or attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _exported_names(tree: ast.AST) -> set[str]:
    """Names listed in a module's __all__."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def test_no_unused_imports():
    unused = []
    for name, tree in TREES.items():
        # a re-export counts as a use of the import that binds it
        used = _used_names(tree) | _exported_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_payload_fields_go_through_the_layout():
    """In serialize, only ``_save`` writes a payload field (``_w_matrix``)
    and only ``_load`` reads one (``.matrix(``): both check each field
    against ``_layout``'s shape and range, so no field can skip them."""
    tree = TREES["serialize.py"]
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def calls(node: ast.AST, name: str) -> int:
        return sum(isinstance(call, ast.Call) and name in (
                       getattr(call.func, "id", None), getattr(call.func, "attr", None))
                   for call in ast.walk(node))
    for name, where in (("_w_matrix", "_save"), ("matrix", "_load")):
        assert calls(tree, name) == calls(functions[where], name) > 0, name


# keys's F2 helpers: the one place the package forms g as a polynomial,
# for the division that gives F2
F2_HELPERS = {"_reduction_map", "build_G", "_ideal_basis_2r"}


def _imports_mvpoly(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.ImportFrom) and (
                   node.module in ("mvpoly", "mvphe.mvpoly")
                   or "mvpoly" in (alias.name for alias in node.names))
               or isinstance(node, ast.Import)
               and any(alias.name == "mvphe.mvpoly" for alias in node.names)
               for node in ast.walk(tree))


def test_polynomial_stays_in_the_division():
    """The secret key holds g as its coefficient list, so ``Polynomial`` is
    named in the package only in mvpoly and in keys's F2 helpers (and the
    import that brings it there); serialize and cli import nothing from
    mvpoly; and mvphe exports neither ``Polynomial`` nor
    ``reduce_by_set``."""
    named = []
    for name, tree in TREES.items():
        if name == "mvpoly.py":
            continue
        for top in tree.body:
            if name == "keys.py" and (getattr(top, "name", None) in F2_HELPERS
                                      or isinstance(top, ast.ImportFrom)
                                      and top.module == "mvpoly"):
                continue
            named += [f"{name}:{node.lineno}" for node in ast.walk(top)
                      if "Polynomial" in (getattr(node, "id", None),
                                          getattr(node, "attr", None),
                                          getattr(node, "name", None))]
    assert named == []
    assert _imports_mvpoly(TREES["keys.py"])
    assert [name for name in ("serialize.py", "cli.py")
            if _imports_mvpoly(TREES[name])] == []
    assert {"Polynomial", "reduce_by_set"} & set(mvphe.__all__) == set()
    assert not hasattr(mvphe, "Polynomial") and not hasattr(mvphe, "reduce_by_set")


# User entry points that the package never calls itself.  Exporting a name
# is not a use: a helper that only tests call belongs in tests/oracles.py.
ENTRY_POINTS = {
    "eval_plain",  # plaintext reference evaluation of a netlist
}


def _package_names() -> set[str]:
    used = set(ENTRY_POINTS)
    for tree in TREES.values():
        used |= _used_names(tree)
    return used


def test_every_top_level_definition_is_used():
    used = _package_names()
    unused = [f"{name}: {node.name}"
              for name, tree in TREES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == []


def test_every_method_is_used():
    """Dunders are called by the language; any other method or property must
    be named somewhere in the package.  The scan goes by name, so a member
    whose name other code happens to use escapes it."""
    used = _package_names()
    unused = [f"{name}: {cls.name}.{node.name}"
              for name, tree in TREES.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []


def _init_false(node: ast.AST) -> bool:
    """True for an annotated class field declared ``field(init=False)``."""
    call = getattr(node, "value", None)
    return (isinstance(node, ast.AnnAssign) and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in call.keywords))


def test_every_derived_field_is_read():
    """A dataclass field derived by __post_init__ (``field(init=False)``) is
    computed on every construction, so the package must read it somewhere;
    the store that derives it does not count."""
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    derived = [(f"{name}: {cls.name}.{node.target.id}", node.target.id)
               for name, tree in TREES.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if _init_false(node)]
    assert derived
    assert [where for where, attr in derived if attr not in read] == []


def test_no_dataclass_field_has_a_default():
    """A field that can be left out makes a second kind of object, one the
    code must then check for everywhere; every field of a package dataclass
    is required, except those derived by __post_init__."""
    defaulted = [f"{name}: {cls.name}.{node.target.id}"
                 for name, tree in TREES.items()
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                 for node in cls.body
                 if isinstance(node, ast.AnnAssign) and node.value is not None
                 and not _init_false(node) and _has_default(node.value)]
    assert defaulted == []


def _has_default(value: ast.expr) -> bool:
    """True unless ``value`` is a ``field(...)`` call without a default."""
    return not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "field"
                and not any(k.arg in ("default", "default_factory")
                            for k in value.keywords))


def test_draws_use_getrandbits_only():
    """Every draw of the package goes through ``arith.randbelow`` or
    ``getrandbits``: randbelow reduces raw bits itself, so seeded outputs
    do not rest on how one Python version's ``randrange`` reduces them.
    The package names every generator ``rng`` (or ``self.rng``), so a call
    of any other Random method on such a name, or on the ``random``
    module, is flagged."""
    methods = {name for name in dir(Random) if not name.startswith("_")}
    methods -= {"getrandbits"}
    generator = re.compile(r"(^|\.)(rng|random)$")
    calls = [f"{name}: {ast.unparse(node)}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in methods
             and generator.search(ast.unparse(node.func.value))]
    assert calls == []
    receivers = {ast.unparse(node.func.value)
                 for tree in TREES.values() for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "getrandbits"}
    assert receivers == {"rng"}


def test_only_arith_calls_getrandbits():
    """``arith.randbelow`` is the package's one bounded-draw rule, and
    ``arith.random_prime`` its one other reader of raw bits: no other
    module calls ``getrandbits``, so no draw rule can be inlined
    elsewhere."""
    callers = {name for name, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "getrandbits"}
    assert callers == {"arith.py"}


def _unbounded_caches(name: str, tree: ast.AST) -> list[str]:
    """Each ``functools.cache``, ``lru_cache`` not called with a maxsize,
    or ``lru_cache`` with maxsize=None in ``tree``, imported or dotted."""
    nodes = list(ast.walk(tree))
    lru = {"lru_cache", "functools.lru_cache"}
    calls = [node for node in nodes if isinstance(node, ast.Call)
             and ast.unparse(node.func) in lru]
    found = [f"{name}: imports cache" for node in nodes
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name == "cache"]
    found += [f"{name}: {ast.unparse(node)}" for node in nodes
              if isinstance(node, ast.Attribute) and node.attr == "cache"
              and ast.unparse(node.value) == "functools"]
    found += [f"{name}: {ast.unparse(node)} names no maxsize" for node in nodes
              if isinstance(node, (ast.Name, ast.Attribute))
              and ast.unparse(node) in lru
              and not any(call.func is node for call in calls)]
    for call in calls:
        size = [*call.args[:1],
                *(k.value for k in call.keywords if k.arg == "maxsize")]
        if not size or (isinstance(size[0], ast.Constant) and size[0].value is None):
            found.append(f"{name}: {ast.unparse(call)}")
    return found


def test_every_functools_cache_is_bounded():
    """A process-wide cache keeps whatever a long-running caller passes
    through it, so every ``functools`` cache of the package names its
    maxsize: no ``cache``, no bare ``lru_cache`` and no maxsize=None.
    ``cached_property`` lives and dies with its object and is not one."""
    assert [hit for name, tree in TREES.items()
            for hit in _unbounded_caches(name, tree)] == []
    rules = {"from functools import cache": ["m.py: imports cache"],
             "@functools.cache\ndef f(): pass": ["m.py: functools.cache"],
             "@lru_cache\ndef f(): pass": ["m.py: lru_cache names no maxsize"],
             "@functools.lru_cache()\ndef f(): pass":
                 ["m.py: functools.lru_cache()"],
             "@lru_cache(None)\ndef f(): pass": ["m.py: lru_cache(None)"],
             "@lru_cache(maxsize=None)\ndef f(): pass":
                 ["m.py: lru_cache(maxsize=None)"],
             "@lru_cache(maxsize=8)\ndef f(): pass": [],
             "@functools.lru_cache(1)\ndef f(): pass": []}
    for source, want in rules.items():
        assert _unbounded_caches("m.py", ast.parse(source)) == want, source


def _load_perfbench(name: str):
    """A perfbench module, loaded from its file and left as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    """The benchmark's tracer wraps package functions by module attribute
    and fails on a missing one; a renamed or deleted target fails here."""
    tracing = _load_perfbench("tracing")
    assert tracing.TARGETS
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracing.TARGETS
               if not callable(getattr(mod, attr, None))]
    assert missing == []


def test_benchmark_digests_hold(tmp_path, monkeypatch):
    """The benchmark's digest check: the first ops of each workload at its
    fixed seed all pass their own check, and their output ciphertext
    vectors hash to the workload's ``EXPECTED_DIGESTS`` entry."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports netlist
    workloads = _load_perfbench("workloads")
    assert set(workloads.EXPECTED_DIGESTS) == set(workloads.WORKLOADS)
    for name, digest in workloads.EXPECTED_DIGESTS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        ops = workloads.WORKLOADS[name].golden_ops
        assert workloads.golden_digest(name, str(workdir)) == (digest, ops, 0), name


def test_every_traced_layer_is_reached(tmp_path, monkeypatch):
    """Each span the benchmark's per-layer metrics read on a workload
    (``run.LAYER_METRICS``) is called in one op of that workload, traced by
    the benchmark's own ``Tracer``: so moving work between layers cannot
    leave a metric reading zero unnoticed.  The keyring op reaches
    ``keys.mat_mul_exact`` through its one AND, whose first call on a key
    builds the carry tables."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run imports hostspeed
    run = _load_perfbench("run")
    tracing = _load_perfbench("tracing")
    workloads = _load_perfbench("workloads")
    missing = []
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        w = cls(workloads.DEFAULT_SEED, str(workdir))
        w.setup()
        tracer = tracing.Tracer()
        ok, _ = tracer.op(0, w.op, 0)
        assert ok, name
        called = {span[0] for span in tracer.spans}
        missing += [metric for metric, where in run.LAYER_METRICS.items()
                    if where == name and metric.rsplit(".", 1)[0] not in called]
    assert missing == []


# make_netlist's arguments in the benchmark's workloads: circuit-toy's and
# cli-eval's netlists, both evaluated under the toy preset
BENCHMARK_NETLISTS = ((8, 12, 20, 2, 4), (2, 2, 2, 2, 3))


def test_benchmark_netlists_stay_far_below_the_noise_limit():
    """Every AND of the netlists the benchmark draws, from fresh inputs,
    has a hint below 1/16 of the decryption limit floor(q/2)/2 of any
    40-bit toy modulus (cli-eval's keygen draws q from its seed), over 200
    seeds, under the package's own hint rules: so a change to those rules
    cannot start refusing a workload op unnoticed."""
    netlist = _load_perfbench("netlist")
    p = mvphe.preset_params("toy")
    ands = []

    def AND(a, b):
        ands.append(_product_hint(max(a, b), p.ell, p.u, p.q))
        return ands[-1]
    for seed in range(200):
        rng = Random(seed)
        for shape in BENCHMARK_NETLISTS:
            circ = mvphe.parse_circuit(netlist.make_netlist(rng, *shape))
            _walk(circ.gates, dict.fromkeys(circ.inputs, p.B), AND, _sum_hint)
    assert len(ands) == 200 * sum(shape[1] for shape in BENCHMARK_NETLISTS)
    assert 32 * max(ands) < (1 << (p.q_bits - 1)) // 2


def test_readme_names_the_format_version():
    """README's "format version (N)" and the last bullet of its version
    history both name serialize.VERSION, so a bump cannot leave it behind."""
    text = README.read_text(encoding="utf-8")
    version = str(serialize.VERSION)
    assert re.findall(r"format version \((\d+)\)", text) == [version]
    history = re.findall(r"^- Version (\d+) ", text, flags=re.MULTILINE)
    assert history and history[-1] == version


def test_cited_names_exist():
    """Every `module.name` or `Class.attr` that README cites, and every
    ``module.name`` or ``Class.attr`` in a package docstring, resolves to
    an attribute or a dataclass field, module and class both the
    package's: so a rename or a deletion cannot leave a citation behind.
    Other dotted names (``sk.packed``, `fractions.Fraction`) are not
    checked."""
    modules = {name[:-3]: importlib.import_module(f"mvphe.{name[:-3]}")
               for name in TREES if name != "__init__.py"}
    heads = dict(modules)
    for module in modules.values():
        heads.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__)
    docstrings = [ast.get_docstring(node) or "" for tree in TREES.values()
                  for node in ast.walk(tree) if isinstance(node, (
                      ast.Module, ast.ClassDef, ast.FunctionDef))]
    cited = re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    cited += re.findall(r"``(\w+)\.(\w+)``", "\n".join(docstrings))
    checked = [(head, name) for head, name in cited if head in heads]
    assert len(checked) > 30
    missing = [f"{head}.{name}" for head, name in checked
               if not hasattr(heads[head], name) and not (
                   is_dataclass(heads[head])
                   and name in {f.name for f in fields(heads[head])})]
    assert missing == []


# ---------------------------------------------------------------------------
# statement reach
# ---------------------------------------------------------------------------

FLOWS = Path(__file__).with_name("public_flows.py")

# Statements no public flow runs that the package keeps, keyed by module,
# function and the statement's first line, each with its reason.
_RARE = "a redraw after a draw of probability about 1/q, which no seed of the flows makes"
_REFERENCE = ("the to_bytes path packs entries of 2^64 or more, which "
              "oracles.carry_table_from_P and test_linalg's wide-entry "
              "products pack through it as the reference")
ALLOWED = {
    ("keys", "_sample_generator", "g[0] = 1 + randbelow(rng, q - 1)"): _RARE,
    ("keys", "keygen", "continue"): _RARE,
    ("arith", "is_probable_prime", "return False"):
        "n < 2: random_prime's candidates have 8 bits or more, and Params refuses q < 3 first",
    ("linalg", "pack_rows", 'widths, order = repeat(width), repeat("little")'):
        _REFERENCE,
    ("linalg", "pack_rows", "try:"): _REFERENCE,
    ("linalg", "pack_rows",
     'return [int.from_bytes(b"".join(map(int.to_bytes, row, widths, order)),'):
        _REFERENCE,
}


def _refuses(stmt: ast.stmt, raisers: set[str]) -> bool:
    """A ``raise``, or a call of a helper whose body is one ``raise``."""
    return isinstance(stmt, ast.Raise) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        and getattr(stmt.value.func, "id", None) in raisers)


def _is_main_guard(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'"


def _is_constant(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _statement_misses(module: str, source: str, hits: set[int],
                      allowed: dict) -> list[str]:
    """``module.py:line: statement`` for each statement of ``source`` that
    no line in ``hits`` reached, unless it only refuses or ``allowed``
    names it, and a line for each ``allowed`` entry of ``module`` that
    names no statement, so the list cannot go stale.

    A statement is reached when a line it spans ran: any line of it runs
    only after it has started.  Exempt: a ``raise``; a call of a helper
    whose body is one ``raise``; every statement of an ``except`` handler
    or of a block that ends by refusing (a definition's body is no such
    block); the body of the ``__main__`` guard; and a bare constant, such
    as a docstring, which compiles to nothing.  ``allowed`` is keyed by
    module, function (dotted for a method) and the statement's first
    line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    raisers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and [type(s) for s in node.body
                    if not _is_constant(s)] == [ast.Raise]}
    misses, present = [], set()

    def visit(block: list[ast.stmt], where: str, exempt: bool) -> None:
        for stmt in block:
            text = lines[stmt.lineno - 1].strip()
            present.add((where, text))
            if not (exempt or _refuses(stmt, raisers) or _is_constant(stmt)
                    or hits.intersection(range(stmt.lineno, stmt.end_lineno + 1))
                    or (module, where, text) in allowed):
                misses.append(f"{module}.py:{stmt.lineno}: {text}")
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                # a definition's body runs whole, whatever its last statement
                visit(stmt.body, f"{where}.{stmt.name}".lstrip("."), exempt)
                continue
            for name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, name, None)
                if inner:
                    visit(inner, where, exempt or _refuses(inner[-1], raisers)
                          or name == "body" and _is_main_guard(stmt))
            for handler in getattr(stmt, "handlers", ()):
                visit(handler.body, where, True)

    visit(tree.body, "", False)
    misses += [f"{module}.py: ALLOWED names no statement {where}: {text}"
               for mod, where, text in allowed
               if mod == module and (where, text) not in present]
    return misses


def test_every_statement_runs(tmp_path):
    """Every statement of the package runs on a public flow
    (``tests/public_flows.py``: each preset through the library, sums past
    the decryption limit, a sigma = 0 key, and every CLI verb), traced in
    a fresh interpreter, unless it only refuses or ``ALLOWED`` names it
    (``_statement_misses``).  A branch that nothing public reaches is
    dead code, and code a later change adds must bring the flow that
    reaches it."""
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    hits_path = tmp_path / "hits.json"
    run = subprocess.run([sys.executable, str(FLOWS), str(hits_path), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    hits = json.loads(hits_path.read_text(encoding="utf-8"))
    assert {module for module, _, _ in ALLOWED} <= {name[:-3] for name in TREES}
    misses = [miss for name in TREES for miss in _statement_misses(
                  name[:-3], (PACKAGE / name).read_text(encoding="utf-8"),
                  set(hits[name]), ALLOWED)]
    assert misses == [], "\n".join(misses)


# A module for the guard's rules; lines marked "# hit" are the ones run.
SYNTHETIC = '''\
"""A docstring."""  # hit


def err(msg):  # hit
    """Refuse."""
    raise ValueError(msg)


def f(x):  # hit
    """Not run as code."""
    if x:  # hit
        y = 1  # hit
    else:
        y = 2
    if x < 0:  # hit
        raise ValueError(x)
    try:  # hit
        y += 1  # hit
    except ValueError:
        y = 3
    if x > 9:  # hit
        note = "big"
        err(note)
    return y  # hit


def g(xs):  # hit
    for x in xs:  # hit
        if x:  # hit
            continue
        return x  # hit
    raise LookupError(xs)


if __name__ == "__main__":  # hit
    f(1)
'''


def test_statement_guard_rules():
    """Of the unreached statements only ``y = 2`` and the ``continue`` are
    misses: a ``raise``, an ``except`` body, a block that ends in a call
    of a one-``raise`` helper, the ``__main__`` body and docstrings are
    exempt, while a function whose body ends by raising is not.  An
    ``ALLOWED`` entry covers a miss by module, function and text, and one
    that names no statement is itself reported."""
    hits = {i for i, line in enumerate(SYNTHETIC.splitlines(), start=1)
            if line.endswith("# hit")}
    misses = ["m.py:14: y = 2", "m.py:30: continue"]
    assert _statement_misses("m", SYNTHETIC, hits, {}) == misses
    assert _statement_misses("m", SYNTHETIC, hits | {14, 30}, {}) == []
    allowed = {("m", "f", "y = 2"): "why", ("m", "g", "continue"): "why"}
    assert _statement_misses("m", SYNTHETIC, hits, allowed) == []
    assert _statement_misses("other", SYNTHETIC, hits, allowed) == [
        "other.py:14: y = 2", "other.py:30: continue"]
    stale = {("m", "f", "y = 4"): "why", ("m", "g", "y = 2"): "why"}
    assert _statement_misses("m", SYNTHETIC, hits, stale) == misses + [
        "m.py: ALLOWED names no statement f: y = 4",
        "m.py: ALLOWED names no statement g: y = 2"]
