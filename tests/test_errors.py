import inspect
import pickle

import pytest

from kgschema import errors
from kgschema.validation import Violation


def _duplicate_with_path():
    error = errors.DuplicateNameError("class", "Gene", 4, 3)
    error.path = ("classes",)
    return error


# One instance of each exception class in errors.py, with every attribute set.
INSTANCES = [
    errors.KgschemaError("something failed"),
    errors.ParseError("bad row", 3, 7),
    errors.ParseError("no position"),
    errors.DuplicateNameError("class", "Gene", 4, 3),
    _duplicate_with_path(),
    errors.OverlappingCliquesError("HGNC:1 is in two cliques", 2),
    errors.MalformedCurieError("not a prefix:local_id pair: 'x'"),
    errors.UndeclaredPrefixError("undeclared prefix 'FOO'"),
    errors.NoMatchingBaseError("no base for 'http://x/1'"),
    errors.UnknownClassError("Nope"),
    errors.UnknownPredicateError("no_such"),
    errors.EmptyCliqueError("empty clique"),
    errors.EmptyCategorySetError("no categories"),
    errors.SchemaNotValidError("schema has errors", [Violation("IS_A_CYCLE", "error", "A", "A -> A")]),
    errors.DanglingEdgeError("1 edge(s) reference absent nodes"),
    errors.DisconnectedQueryError("query graph is not connected"),
    errors.IncomparableCategoriesWarning("Gene and Disease are unrelated"),
    errors.SchemaFormatWarning("ignoring unknown key 'colour'"),
]


def test_every_exception_class_has_an_instance_here():
    classes = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
    }
    assert classes - {errors._UnknownNameError} <= {type(error) for error in INSTANCES}


@pytest.mark.parametrize("error", INSTANCES, ids=lambda error: type(error).__name__)
def test_exception_survives_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
