"""The package boundary: integer arguments are checked as ints, and every
name perfbench's tracer replaces still exists where the tracer looks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import f2
from raaglcs import (Dissection, GroupWord, TruncatedSeries, commutator_witness,
                     depth_function, enumerate_elements, in_dimension_subgroup,
                     lcs_depth, mu, standard_dissection, verify_depth_bound)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

WORD = GroupWord(f2(), [("a", 1), ("b", 1)])

CALLS = {
    "mu": (lambda n: mu(WORD, n), "cap must be a positive integer"),
    "lcs_depth": (lambda n: lcs_depth(WORD, n), "cap must be a positive integer"),
    "lcs_depth.identity": (lambda n: lcs_depth(GroupWord(f2()), n),
                           "cap must be a positive integer"),
    "TruncatedSeries": (lambda n: TruncatedSeries(f2(), n), "cap must be a positive integer"),
    "in_dimension_subgroup": (lambda n: in_dimension_subgroup(WORD, n), "k must be >= 1"),
    "depth_function.k": (lambda n: depth_function(f2(), n, 4), "k must be >= 1"),
    "depth_function.max_norm": (lambda n: depth_function(f2(), 2, n), "max_norm must be >= 0"),
    "commutator_witness": (lambda n: commutator_witness(f2(), n), "k must be >= 1"),
    "enumerate_elements": (lambda n: enumerate_elements(f2(), n), "max_norm must be >= 0"),
    "verify_depth_bound": (lambda n: verify_depth_bound(f2(), n), "max_norm must be >= 0"),
    "Dissection": (lambda n: Dissection(n, ["x"], (), {"a1": (), "b1": ()}),
                   "genus must be a positive integer"),
    "standard_dissection": (lambda n: standard_dissection(n), "genus must be an integer >= 2"),
}


@pytest.mark.parametrize("value", [True, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_int_arguments_rejected(name, value):
    call, message = CALLS[name]
    with pytest.raises(ValueError, match=message):
        call(value)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    """Each (module, path) resolves as `Tracer._replace` needs it to: a module
    attribute, or a name in the class's own __dict__ for Class.attr."""
    tracer = load_tracer()
    targets = [target for paths, _ in tracer.SPAN_LAYERS.values() for target in paths]
    targets += tracer.COUNT_ONLY.values()
    for module_name, path in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{module_name}.{path}"
        else:
            assert hasattr(module, path), f"{module_name}.{path}"
