"""One home each: config.py for the lab's thresholds, a model's bracket
table for its float product, and ``exactify`` for turning floats exact."""

import ast
import dis
from pathlib import Path

import numpy as np

import dilatation_lab
from dilatation_lab.models import (
    CarnotModel, EuclideanModel, HeisenbergModel, heisenberg_structure_constants)
from dilatation_lab.models.base import columns, stack
from dilatation_lab.models.carnot import _compiled_product

from conftest import STEP3_HALF
from test_capabilities import CASES

# the five point kernels a model compiles from its table, beside _scales, its layer factors
KERNELS = {"_product", "_inverse_product", "_dilate_point", "_exact_product", "_exact_dilate"}

PACKAGE = Path(dilatation_lab.__file__).parent


def _small_float_literals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-3]


def test_no_threshold_literal_outside_config():
    # tolerances, floors and slacks are small floats; outside config.py
    # a module names them instead of spelling them out
    found = {str(path.relative_to(PACKAGE)): lits
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "config.py"
             for lits in [_small_float_literals(path)] if lits}
    assert found == {}


def test_config_holds_the_thresholds():
    assert _small_float_literals(PACKAGE / "config.py")


def test_every_threshold_is_read():
    # no setting that does nothing: each name config.py binds, its thresholds
    # and default_ks, is imported by some module of the package
    tree = ast.parse((PACKAGE / "config.py").read_text())
    assigned = {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assigned |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {alias.name for path in PACKAGE.rglob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "dilatation_lab.config"
                for alias in node.names}
    assert len(assigned) == 21  # 20 thresholds and default_ks
    assert assigned - imported == set()


def _code(f):
    c = f.__code__
    return c.co_code, c.co_consts, c.co_names, c.co_varnames


def _nested(code):
    """A code object and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _nested(const)


def _operators(code):
    """The binary operators of a code object and of the code nested in it."""
    return [i.argrepr for c in _nested(code) for i in dis.get_instructions(c)
            if i.opname == "BINARY_OP"]


def _names(code):
    """The names a code object and the code nested in it read."""
    return {name for c in _nested(code) for name in c.co_names}


def _library_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("dilatation_lab."):
            yield sub
        yield from _library_subclasses(sub)


def test_no_second_copy_of_a_models_algebra():
    # every Carnot model of the capability table, and each one a structure
    # there is built on, and H(n) for every n, holds the kernels generated from
    # its bracket table and its step: on floats the product, (-p) . q, the
    # single-point dilate and the layer factors that _dilate reads, and on exact
    # points the integer product and dilate; none writes a zero term the table
    # does not have, nor a product by a constant 1, nor calls a power
    structures = [make() for make, *_ in CASES.values()]
    models = [m for s in structures for m in (s, getattr(s, "base", None))
              if isinstance(m, CarnotModel)]
    models += [HeisenbergModel(2), HeisenbergModel(3),
               CarnotModel(2, *heisenberg_structure_constants(2)), CarnotModel(3, *STEP3_HALF)]
    assert any(isinstance(m, EuclideanModel) for m in models)
    for model in models:
        fresh = _compiled_product(model.dim, model.step, model._entries, model._bracket_den,
                                  model._layer_index)
        assert set(fresh) == KERNELS | {"_scales"}, model.name
        for name, compiled in fresh.items():
            assert _code(getattr(model, name)) == _code(compiled), (model.name, name)
            consts = compiled.__code__.co_consts
            assert 0.0 not in consts and 1.0 not in consts, (model.name, name)
            assert not {"pow", "power"} & _names(compiled.__code__), (model.name, name)
            assert not {"**", "**="} & set(_operators(compiled.__code__)), (model.name, name)
    # the generated kernels are the only BCH formulas: exact points reach them
    # through dilate and group_product, which compute nothing themselves, and
    # outside the generator only the Jacobi check reads the table, with a bracket
    # of its own for basis vectors
    for method, kernel in ((CarnotModel.dilate, "_exact_dilate"),
                           (CarnotModel.group_product, "_exact_product")):
        assert kernel in method.__code__.co_names
        assert "_exact_bracket" not in method.__code__.co_names
        assert not set(_operators(method.__code__)), method.__name__
    readers = {(cls.__name__, name) for cls in (CarnotModel, *_library_subclasses(CarnotModel))
               for name, f in vars(cls).items() if hasattr(f, "__code__")
               if {"_entries", "_bracket_den", "_exact_bracket"} & _names(f.__code__)}
    assert readers == {("CarnotModel", "__init__"), ("CarnotModel", "_check_jacobi")}
    # the layer factors are written once, by the generator from the step, and
    # _dilate reads them through the generated _scales: no class declares its
    # own, and no _dilate raises to a power or calls one
    assert "_scales" in CarnotModel._dilate.__code__.co_names
    carnot_classes = (CarnotModel, *_library_subclasses(CarnotModel))
    assert not [cls.__name__ for cls in carnot_classes if "LAYER_SCALES" in vars(cls)]
    for dilate in (vars(cls)["_dilate"] for cls in carnot_classes if "_dilate" in vars(cls)):
        assert not {"pow", "power"} & _names(dilate.__code__), dilate.__qualname__
        assert not {"**", "**="} & set(_operators(dilate.__code__)), dilate.__qualname__
    # only C x R keeps a _dilate, for its complex scales, and only Euclidean space
    # writes float primitives itself, as whole rows
    hooks = {"group_product", "ambient_dilate", "dilate", "distance", "_dilate", "_rows_dilate"}
    own = {cls.__name__: hooks & set(vars(cls)) for cls in _library_subclasses(CarnotModel)}
    assert own == {"HeisenbergModel": set(), "ComplexHeisenbergModel": {"_dilate"},
                   "EuclideanModel": {"group_product", "ambient_dilate", "_rows_dilate"}}
    # and its whole-row sum is the compiled product's, bit for bit, signed zeros too
    rng = np.random.default_rng(5)
    for n in (1, 2, 5):
        euclid = EuclideanModel(n)
        A, B = rng.choice([0.0, -0.0, 1.0, -1.0, 0.3, -2.5], (2, 64, n))
        for a, b in [(A, B), *zip(A, B)]:
            want = stack(euclid._product(columns(a), columns(b)))
            assert euclid.group_product(a, b).tobytes() == want.tobytes(), euclid.name


CONVERSIONS = {"to_exact", "to_exact_scale", "from_floats"}
# outside the models, floats turn exact in exactify alone, and in AnchoredStructure,
# the base of induced structures and tangent spaces, whose exact arithmetic is their base's
CONVERTERS = {("core/structure.py", "exactify"), ("emergent.py", "AnchoredStructure")}


def _conversion_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(getattr(top, "name", None), node.lineno) for top in tree.body
            for node in ast.walk(top) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in CONVERSIONS]


def test_floats_turn_exact_only_through_exactify():
    found = [(rel, name, line) for path in sorted(PACKAGE.rglob("*.py"))
             for rel in [path.relative_to(PACKAGE).as_posix()] if not rel.startswith("models/")
             for name, line in _conversion_calls(path) if (rel, name) not in CONVERTERS]
    assert found == []
