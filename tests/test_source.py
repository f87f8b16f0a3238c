"""Static checks of the package source, written with the standard library."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ergokit").glob("*.py"))


def _imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    """The strings listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    """Imported names that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree)
                  if name not in used)


def test_unused_import_check_flags_only_unused_names():
    source = (
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "from .a import b\n__all__ = ['b']\nx = np.pi + tau\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree):
    """(node, name) of every private function, class or constant a module
    defines at top level; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def _referenced_names(nodes):
    """Names read, attributes accessed and names imported anywhere in nodes."""
    found = set()
    for node in (n for root in nodes for n in ast.walk(root)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreferenced_private_names(sources):
    """(module, name) of each private top-level name in `sources` (module
    name -> source text) that no code outside its own definition refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for definition, name in _private_definitions(tree):
            elsewhere = [n for t in trees.values() for n in t.body if n is not definition]
            if name not in _referenced_names(elsewhere):
                unused.append((module, name))
    return sorted(unused)


def test_private_name_check_flags_only_unreferenced_names():
    sources = {
        "a": "_LIMIT = 3\n_SPARE = 4\n\ndef _helper(n):\n    return _helper(n - 1)\n\n"
             "def _used():\n    return _LIMIT\n",
        "b": "from .a import _used\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_SPARE"), ("a", "_helper")]


def test_no_unreferenced_private_names():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unreferenced_private_names(sources) == []


def private_package_imports(source):
    """(line, name) of each underscore name, or underscore module, that a
    module imports from the package (a relative or `ergokit` import)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = (node.module or "").split(".")
        if node.level == 0 and module[0] != "ergokit":
            continue
        for name in [*module, *(alias.name for alias in node.names)]:
            if name.startswith("_") and not name.startswith("__"):
                found.append((node.lineno, name))
    return sorted(found)


def test_private_import_check_flags_only_private_package_names():
    source = (
        "from os import _exit\nfrom . import __version__, _helpers\n"
        "from .noise import _box_rejection, sample\nfrom ergokit.models import _Spec\n"
        "from ._impl import run\nfrom numpy.random import _pickle\n"
    )
    assert private_package_imports(source) == [
        (2, "_helpers"), (3, "_box_rejection"), (4, "_Spec"), (5, "_impl")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_package_imports(path.read_text()) == []


def linalg_references(source):
    """Lines of the code (not the docstrings or comments) of a module that
    name `linalg`: an import of it or from it, a name or an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [*(node.module or "").split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            names = [getattr(node, "attr", None), getattr(node, "id", None)]
        if "linalg" in names:
            found.add(node.lineno)
    return sorted(found)


def test_linalg_check_flags_only_code_naming_linalg():
    source = (
        '"""Uses numpy.linalg nowhere."""\nimport numpy.linalg\n'
        "from numpy.linalg import eigh\nfrom numpy import linalg as la\n"
        "x = np.linalg.svd  # linalg\nlinalg = la\ny = np.sum\n"
    )
    assert linalg_references(source) == [2, 3, 4, 5, 6]


# LAPACK stays behind norms.py: no other module may reach numpy.linalg.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "norms.py"],
                         ids=lambda p: p.name)
def test_only_norms_names_linalg(path):
    assert linalg_references(path.read_text()) == []


def name_aliases(source):
    """(line, name) of each top-level statement that binds a name to another
    bare name (`x = y`), a second name for one concept."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Name):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def test_alias_check_flags_only_bare_name_bindings():
    source = (
        "from .models import step\nadvance = step\n_LIMIT = 3\nx: int = _LIMIT\n"
        "y = step(1)\nz = np.pi\nu = v = step\na, b = pair\n\ndef f():\n    w = step\n"
    )
    assert name_aliases(source) == [(2, "advance"), (4, "x"), (7, "u"), (7, "v")]


# One name per concept: no module re-exports a name under a second one.
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_top_level_aliases(path):
    assert name_aliases(path.read_text()) == []


def forwarders(source):
    """(line, name) of each top-level function whose body, after any
    docstring, is only `return p.attr(q, r, ...)` with p its first parameter
    and q, r, ... its other parameters in order: a second spelling of a
    method."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if len(body) != 1 or not isinstance(body[0], ast.Return) or not params:
            continue
        call = body[0].value
        if (isinstance(call, ast.Call) and not call.keywords
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == params[0]
                and [getattr(a, "id", None) for a in call.args] == params[1:]):
            found.append((node.lineno, node.name))
    return sorted(found)


def test_forwarder_check_flags_only_bare_method_calls():
    source = (
        'def eval_f(model, x):\n    """f(x)."""\n    return model.eval_f(x)\n\n'
        "def det(model):\n    return model.det()\n\n"
        "def density(spec, x):\n    return spec.density(np.asarray(x))\n\n"
        "def swap(model, x, y):\n    return model.f(y, x)\n\n"
        "def other(model, x):\n    return x.f(model)\n\n"
        "def twice(model, x):\n    y = model.f(x)\n    return y\n\n"
        "class A:\n    def f(self, x):\n        return self.g(x)\n"
    )
    assert forwarders(source) == [(1, "eval_f"), (5, "det")]


# One spelling per operation: a module-level function that only calls the
# method of the same object is a second name for that method.
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_method_forwarders(path):
    assert forwarders(path.read_text()) == []


def family_dispatch(source):
    """(line, what) of each import from the models module and each call of
    `isinstance` in a module: the means of branching on the model family."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "models" and (node.level or module[0] == "ergokit"):
                found.append((node.lineno, "models"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "models") for alias in node.names
                      if alias.name == "ergokit.models"]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance"):
            found.append((node.lineno, "isinstance"))
    return sorted(found)


def test_family_dispatch_check_flags_only_models_imports_and_isinstance():
    source = (
        "from .models import BekkArch\nfrom ergokit.models import step\n"
        "import ergokit.models\nfrom .ergodicity import check_model\n"
        "from numpy import models\nok = isinstance(m, BekkArch)\n"
        "x = m.isinstance\nfrom . import config\n"
    )
    assert family_dispatch(source) == [
        (1, "models"), (2, "models"), (3, "models"), (6, "isinstance")]


# The model family is decided in ergodicity.check_model: the CLI holds no
# model class and tests no type.
def test_cli_does_not_dispatch_on_the_model_family():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert family_dispatch(cli.read_text()) == []


def modules_containing(sources, text):
    """Sorted names of the modules in `sources` (module name -> source text)
    whose text contains `text`, in code, a docstring or a comment."""
    return sorted(module for module, source in sources.items() if text in source)


def test_text_check_flags_only_modules_holding_the_text():
    sources = {
        "models": 'raise ValueError(f"x has shape {s} but the model has dim {d}")\n',
        "simulate": 'x = model.require_state(x0, "x0")\n',
        "config": "# the noise has dim 3 but the model has dim 2\n",
        "noise": "# but the model's dim\n",
    }
    assert modules_containing(sources, "but the model has dim") == ["config", "models"]


# The state rule and the noise rule are written once, as methods of the
# model family; every other module calls them and never restates them.
def test_input_rules_are_written_only_in_models():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert modules_containing(sources, "but the model has dim") == ["models"]


# The exponent and integer rules live in norms (require_exponent,
# require_int) and the seed rule in simulate (require_seed); every entry
# point calls them.  psd_sqrt alone checks that its matrix is square.
@pytest.mark.parametrize("text, homes", [
    ("must be positive and finite", ["norms"]),
    ("must be an integer", ["norms"]),
    ("[0, 2^64)", ["simulate"]),
], ids=["exponent", "integer", "seed"])
def test_exponent_and_seed_rules_are_written_only_in_their_homes(text, homes):
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert modules_containing(sources, text) == homes


def test_square_matrix_rule_is_written_once():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert modules_containing(sources, "expected a square matrix") == ["norms"]
    assert sources["norms"].count("expected a square matrix") == 1


# BLAS entry points of numpy, and the `@` operator, which reaches them.
_BLAS_NAMES = {"matmul", "dot", "vdot", "tensordot", "einsum"}


def blas_calls(source):
    """Lines of the code of a module (not its docstrings or comments) that
    use `@` or name a BLAS entry point of numpy."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add(node.lineno)
        elif name in _BLAS_NAMES or isinstance(node, ast.ImportFrom) and any(
                alias.name in _BLAS_NAMES for alias in node.names):
            found.add(node.lineno)
    return sorted(found)


def test_blas_check_flags_only_code_reaching_blas():
    source = (
        '"""Computes g @ u with no matmul."""\ny = g @ u\ny @= g\n'
        "z = np.dot(x, x)\nfrom numpy import einsum\nw = np.sum(x * x)  # dot\n"
        "v = np.matmul\nt = x.dot(y)\n"
    )
    assert blas_calls(source) == [2, 3, 4, 5, 7, 8]


# The step and every command path round in elementwise numpy operations, so
# their bits do not depend on the BLAS build or the CPU.  norms.psd_sqrt, the
# library code of acceptance criterion 4, is not on any command path.
@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name in ("models.py", "simulate.py", "ergodicity.py")],
                         ids=lambda p: p.name)
def test_simulation_and_checker_do_not_call_blas(path):
    assert blas_calls(path.read_text()) == []


def method_homes(source, name):
    """Sorted (line, class) of each definition of `name` in a module: the
    class whose body defines it, or "<module>" for any other definition."""
    tree = ast.parse(source)
    in_class = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for node in cls.body}
    return sorted((node.lineno, in_class.get(id(node), "<module>")) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name == name)


def test_method_home_check_flags_every_definition():
    source = (
        "class A:\n    def step(self):\n        def step(x):\n            return x\n"
        "        return step\n\nclass B(A):\n    def step(self):\n        pass\n\n"
        "def step():\n    pass\n"
    )
    assert method_homes(source, "step") == [(2, "A"), (3, "<module>"), (8, "B"), (11, "<module>")]


# One kernel: every family gives its f and g as columns, and the base class
# alone turns them into the step and the stacked blocks.
@pytest.mark.parametrize("name", ["lane_kernel", "lane_terms"])
def test_lane_forms_are_defined_once_on_the_base_class(name):
    models = next(p for p in SOURCES if p.name == "models.py")
    assert [home for _, home in method_homes(models.read_text(), name)] == ["_ModelSpec"]


def generator_jumps(source):
    """(line, what) of each call of a method named `advance` or `jumped` and
    each assignment to `<expr>.bit_generator.state` in a module: the means
    of moving a generator other than by drawing from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("advance", "jumped")):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, "state") for target in targets
                      for t in ast.walk(target)
                      if isinstance(t, ast.Attribute) and t.attr == "state"
                      and isinstance(t.value, ast.Attribute)
                      and t.value.attr == "bit_generator"]
    return sorted(found)


def test_generator_jump_check_flags_only_jumps():
    source = (
        "rng.bit_generator.advance(5)\nb = bits.jumped()\n"
        "g.bit_generator.state = s\na, rng.bit_generator.state = 1, s\n"
        "state = rng.bit_generator.state\nself.state = 3\n"
        "advance(4)\nx = rng.random(out=u)  # .advance(\n"
    )
    assert generator_jumps(source) == [(1, "advance"), (2, "jumped"), (3, "state"),
                                       (4, "state")]


# Every lane's draws read its generator forward only: fills equal the
# sample because each fill reads the next values, not by moving a copy.
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_generator_is_moved_but_by_drawing(path):
    assert generator_jumps(path.read_text()) == []
