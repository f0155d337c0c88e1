"""Source hygiene: every name a module of minis2s imports is used in it,
and every private top-level name it defines is referenced in it.

The scans are syntactic: an import binds a name, and the name must
appear elsewhere in the module as a load (a bare name or the root of an
attribute chain) or inside a string annotation. `__init__.py` is exempt
from the import scan, because its imports are the package's re-exports.
A top-level function, class or assignment whose name starts with one
underscore is private to its module, so it must be loaded there too.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "minis2s"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module):
    """(name, line) of every binding made by a top-level or nested import,
    __future__ imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def used_names(tree: ast.Module):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations, e.g. "Optional[Tensor]"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return used


def private_names(tree: ast.Module):
    """(name, line) of every top-level function, class or assigned name
    that starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_scan_finds_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Optional\n"
                     "x: 'Optional[int]' = None\n")
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == [
        "os", "List"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in private_names(tree) if name not in used]
    assert not unused, f"private but never used: {unused}"


def test_scan_flags_an_unused_private_name():
    tree = ast.parse("_KEEP = 1\n_DROP = 2\n__all__ = []\n"
                     "def _used(): return _KEEP\n"
                     "def _unused(): pass\n"
                     "class _Hint: pass\n"
                     "def public(x: '_Hint'): return _used()\n")
    used = used_names(tree)
    assert [n for n, _ in private_names(tree) if n not in used] == [
        "_DROP", "_unused"]


def one_input_results(tree: ast.Module):
    """(function, line) of every call `_result(data, (x,), ...)` outside
    `from_op`: a one-input op recorded past its one recorder."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "from_op":
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_result" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Tuple)
                    and len(node.args[1].elts) == 1):
                yield fn.name, node.lineno


def test_one_input_ops_record_through_from_op():
    path = SRC / "tensor.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"tensor.py:{line} {name}"
             for name, line in one_input_results(tree)]
    assert not found, f"one-input ops recorded outside from_op: {found}"


def test_scan_flags_a_one_input_result():
    tree = ast.parse("def from_op(a, d, g): return _result(d, (a,), g)\n"
                     "def relu(a): return _result(a, (a,), None)\n"
                     "def add(a, b): return _result(a, (a, b), None)\n")
    assert list(one_input_results(tree)) == [("relu", 2)]


MODEL_CLASSES = {"S2SModel", "TtsModel", "RnnLm"}


def model_class_uses(tree: ast.Module):
    """(name, line) of every mention of a model class, bare or as an
    attribute, as a call or as a value handed on."""
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in MODEL_CLASSES:
            yield name, getattr(node, "lineno", None)


def test_cli_builds_models_through_build_model():
    # every model the command line makes comes from its config, as
    # build_model reads it, so each task's run directory loads one way
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"cli.py:{line} {name}" for name, line in model_class_uses(tree)]
    assert not found, f"model classes named in cli.py: {found}"


def test_scan_flags_a_model_class():
    tree = ast.parse("from .models import RnnLm, build_model\n"
                     "import minis2s.models as M\n"
                     "a = build_model(cfg)\n"
                     "b = make(M.TtsModel, cfg)\n"
                     "c = S2SModel(cfg)\n")
    assert [n for n, _ in model_class_uses(tree)] == [
        "RnnLm", "TtsModel", "S2SModel"]


def scoped_nodes(tree: ast.Module):
    """(scope, node) of every node of a module, the scope being the
    top-level function (`f`) or class method (`C.m`) that holds it,
    nested functions included, and `<module>` for anything else."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                scope = (f"{top.name}.{item.name}"
                         if isinstance(item, ast.FunctionDef) else "<module>")
                yield from ((scope, node) for node in ast.walk(item))
        else:
            scope = (top.name if isinstance(top, ast.FunctionDef)
                     else "<module>")
            yield from ((scope, node) for node in ast.walk(top))


def accumulate_calls(tree: ast.Module):
    """(scope, line) of every call of a `._accumulate` method."""
    for scope, node in scoped_nodes(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_accumulate"):
            yield scope, node.lineno


def requires_grad_reads(tree: ast.Module):
    """(scope, line) of every read of a `.requires_grad` attribute."""
    for scope, node in scoped_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "requires_grad"
                and isinstance(node.ctx, ast.Load)):
            yield scope, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_backward_accumulates_gradients(path):
    # an op hands the tape one gradient function per input, and backward
    # alone adds the results into tensors
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line} {scope}"
             for scope, line in accumulate_calls(tree)
             if (path.name, scope) != ("tensor.py", "backward")]
    assert not found, f"_accumulate called outside tensor.backward: {found}"


@pytest.mark.parametrize("name", ["tensor.py", "losses.py"])
def test_no_op_asks_which_inputs_need_a_gradient(name):
    # whether an input needs a gradient is backward's question (and
    # _result's, whether to record at all), never an op's
    path = SRC / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{name}:{line} {scope}"
             for scope, line in requires_grad_reads(tree)
             if not (name == "tensor.py" and (scope.startswith("Tensor.")
                                              or scope in ("_result",
                                                           "backward")))]
    assert not found, f"ops reading requires_grad: {found}"


def test_scan_flags_accumulate_calls_and_requires_grad_reads():
    tree = ast.parse("class Tensor:\n"
                     "    def __repr__(self): return str(self.requires_grad)\n"
                     "def backward(t): t._accumulate(1)\n"
                     "def mul(a, b):\n"
                     "    def bwd(g):\n"
                     "        if a.requires_grad:\n"
                     "            a._accumulate(g)\n"
                     "    b.requires_grad = True\n"
                     "    return bwd\n")
    assert list(accumulate_calls(tree)) == [("backward", 3), ("mul", 7)]
    assert list(requires_grad_reads(tree)) == [("Tensor.__repr__", 2),
                                               ("mul", 6)]


def trainable_tensors(tree: ast.Module):
    """(scope, line) of every call of Tensor, bare or as an attribute,
    that passes requires_grad, by keyword or as its second argument."""
    for scope, node in scoped_nodes(tree):
        if (isinstance(node, ast.Call)
                and "Tensor" in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))
                and (len(node.args) > 1
                     or any(k.arg == "requires_grad" for k in node.keywords))):
            yield scope, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_nn_parameter_makes_trainable_tensors(path):
    # one point fills or draws every parameter, and charges it against
    # the checkpoint a model is built for
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line} {scope}"
             for scope, line in trainable_tensors(tree)
             if (path.name, scope) != ("nn.py", "parameter")]
    assert not found, f"trainable tensors made outside nn.parameter: {found}"


def test_scan_flags_trainable_tensors():
    tree = ast.parse("def parameter(shape, init):\n"
                     "    return Tensor(init(shape), requires_grad=True)\n"
                     "class Linear:\n"
                     "    def __init__(self):\n"
                     "        self.b = T.Tensor(np.zeros(3), True)\n"
                     "        self.c = Tensor(np.zeros(3))\n"
                     "alpha = Tensor(1.0, requires_grad=True)\n")
    assert list(trainable_tensors(tree)) == [
        ("parameter", 2), ("Linear.__init__", 5), ("<module>", 7)]


def numpy_wrapper_calls(tree: ast.Module):
    """(scope, line) of every call of np.mean or any `.mean` method,
    np.prod or np.swapaxes."""
    for scope, node in scoped_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if f.attr == "mean" or (isinstance(f.value, ast.Name)
                                    and f.value.id == "np"
                                    and f.attr in ("prod", "swapaxes")):
                yield scope, node.lineno


def test_tensor_ops_call_no_python_level_numpy_wrappers():
    # np.mean (and ndarray.mean), np.prod and np.swapaxes run Python code
    # around their one C call, which at a decoder step's (1, d_att) rows
    # costs more than the arithmetic. Their stand-ins give the same bits:
    # a sum divided by the count, math.prod, the ndarray.swapaxes method.
    path = SRC / "tensor.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"tensor.py:{line} {scope}"
             for scope, line in numpy_wrapper_calls(tree)]
    assert not found, f"numpy's Python-level wrappers called: {found}"


def test_scan_flags_numpy_wrapper_calls():
    tree = ast.parse("import math\n"
                     "def f(x):\n"
                     "    a = np.mean(x)\n"
                     "    b = x.data.mean(axis=-1)\n"
                     "    c = int(np.prod(x.shape))\n"
                     "    d = np.swapaxes(x, 0, 1)\n"
                     "    return x.swapaxes(0, 1), math.prod(x.shape), x.sum()\n"
                     "class Tensor:\n"
                     "    def mean(self): return tmean(self)\n")
    assert sorted(numpy_wrapper_calls(tree)) == [("f", 3), ("f", 4), ("f", 5),
                                                 ("f", 6)]


def select_methods(tree: ast.Module):
    """(class, line) of every method named `select`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == "select"):
                    yield node.name, item.lineno


def test_one_search_state_selects_rows():
    # every stepper's state is a SearchState, whose select is the one
    # way to keep, reorder or repeat rows; _RowGroups.select lays the
    # kept rows out by utterance for it
    path = SRC / "models.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(name for name, _ in select_methods(tree)) == [
        "SearchState", "_RowGroups"]


def test_scan_flags_select_methods():
    tree = ast.parse("class SearchState:\n"
                     "    def select(self, rows): pass\n"
                     "class Cache:\n"
                     "    def grow(self): pass\n"
                     "    def select(self, rows): pass\n"
                     "def select(rows): pass\n")
    assert list(select_methods(tree)) == [("SearchState", 2), ("Cache", 5)]


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def arange_orderings(tree: ast.Module):
    """(scope, line) of every ordering comparison (<, <=, >, >=) with an
    operand that holds an np.arange(...) call."""
    for scope, node in scoped_nodes(tree):
        if not (isinstance(node, ast.Compare)
                and any(isinstance(op, ORDERINGS) for op in node.ops)):
            continue
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "arange"
               and getattr(n.func.value, "id", None) == "np"
               for operand in [node.left] + node.comparators
               for n in ast.walk(operand)):
            yield scope, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_length_mask_compares_positions_with_lengths(path):
    # row b of a padded batch holds lens[b] real entries: one function,
    # tensor.length_mask, turns that into a mask, and every other mask of
    # real entries is built from it
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line} {scope}"
             for scope, line in arange_orderings(tree)
             if (path.name, scope) != ("tensor.py", "length_mask")]
    assert not found, f"positions compared outside length_mask: {found}"


def test_scan_flags_arange_orderings():
    tree = ast.parse("def length_mask(lens, n):\n"
                     "    return np.arange(n) < lens[:, None]\n"
                     "def pad(u, lens):\n"
                     "    return np.arange(u.shape[0])[:, None] >= lens\n"
                     "def last(n, lens, x):\n"
                     "    return np.arange(n) == lens - 1, lens > 2, x < n\n"
                     "class Scorer:\n"
                     "    def f(self, n): return 0 <= np.arange(n) + 1\n")
    assert list(arange_orderings(tree)) == [
        ("length_mask", 2), ("pad", 4), ("Scorer.f", 8)]


def window_views(tree: ast.Module):
    """(scope, line) of every reference to numpy's sliding_window_view:
    an attribute, a bare name or an import of it."""
    for scope, node in scoped_nodes(tree):
        if ((isinstance(node, ast.Attribute)
             and node.attr == "sliding_window_view")
                or (isinstance(node, ast.Name)
                    and node.id == "sliding_window_view")
                or (isinstance(node, ast.alias)
                    and node.name.endswith("sliding_window_view"))):
            yield scope, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_conv_builds_windows(path):
    # im2col has one home: tensor.conv builds the input windows of every
    # convolution, whatever its number of spatial axes
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line} {scope}"
             for scope, line in window_views(tree)
             if (path.name, scope) != ("tensor.py", "conv")]
    assert not found, f"sliding_window_view outside tensor.conv: {found}"


def test_scan_flags_window_views():
    tree = ast.parse("from numpy.lib.stride_tricks import sliding_window_view\n"
                     "def conv(x, k):\n"
                     "    return np.lib.stride_tricks.sliding_window_view(x, k)\n"
                     "def pool(x):\n"
                     "    return sliding_window_view(x, 2)\n"
                     "class Im2col:\n"
                     "    def cols(self, x): return swv(x, 3)\n"
                     "    def rows(self, x): return np.lib.stride_tricks"
                     ".sliding_window_view(x, 3)\n")
    assert list(window_views(tree)) == [
        ("<module>", 1), ("conv", 3), ("pool", 5), ("Im2col.rows", 8)]
