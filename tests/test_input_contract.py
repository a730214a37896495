"""The input contract of the public API, as a table.

Every public callable of ``isomlab`` is enumerated from the package, so a
new function is covered without editing this file.  Each parameter
annotated as an array is given ten malformed arrays, and each parameter
annotated as an ``int`` (a size, a count or a norm parameter) seven
malformed values, the other arguments staying valid.  The only allowed
outcomes are a typed :class:`isomlab.IsomlabError` or a finite result: a
bare ``ValueError``, ``TypeError`` or warning (``RuntimeWarning`` is an
error in tier-1) is an escape, and so is a result with a NaN or an inf.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import isomlab as il

#: callables whose arguments live on the skew space (n = 4 there, so that
#: the n = 4 entry swap and Pfaffian take them); every other callable gets
#: traceless Hermitian arguments at n = 3
SKEW = {
    "char_poly_skew",
    "decompose_skew_isometry",
    "pfaffian4",
    "psi_apply",
    "recover_orthogonal_from_adso",
    "skew_isometry_algebra_dimension",
    "youla_decompose",
}


def _public():
    """(name, callable) of every public function of the package, a cached
    one included."""
    return [
        (name, fn)
        for name, fn in sorted(vars(il).items())
        if not name.startswith("_") and callable(fn) and not inspect.isclass(fn)
    ]


def _kind(parameter) -> str | None:
    """'array' for a parameter annotated as an array, 'size' for one
    annotated as an int, else None (not probed)."""
    annotation = str(parameter.annotation)
    if "ndarray" in annotation:
        return "array"
    if annotation in ("int", "int | None"):
        return "size"
    return None


PROBES = [
    (name, parameter.name, _kind(parameter))
    for name, fn in _public()
    for parameter in inspect.signature(fn).parameters.values()
    if _kind(parameter)
]


def _good(name: str) -> dict:
    """Valid arguments by parameter name for the callable ``name``."""
    if name in SKEW:
        rotation = il.haar_orthogonal(4, 0, special=True)
        return {
            "A": il.random_element(il.SKEW_REAL, 4, 0),
            "M": il.so_adjoint_matrix(rotation),
            "spec": il.frobenius(il.SKEW_REAL),
            "n": 4,
            "seed": 0,
        }
    U = il.haar_unitary(3, 0)
    Q = il.haar_orthogonal(3, 0, special=True)
    basis = il.gell_mann_basis(3)
    H = il.random_element(il.HERMITIAN_TRACELESS, 3, 0)
    return {
        "A": H,
        "C": il.random_element(il.HERMITIAN_TRACELESS, 3, 1),
        "U": U,
        "V": U,
        "Q": Q,
        "P": Q,
        "M": il.ad_matrix(U),
        "v": il.vectorize(H, basis),
        "offset": np.zeros(basis.d),
        "tol": 1e-12,
        "basis": basis,
        "spec": il.frobenius(),
        "space": il.HERMITIAN_TRACELESS,
        "n": 3,
        "k": 2,
        "trials": 2,
        "count": 2,
        "seed": 0,
    }


def _arguments(name: str, fn) -> dict:
    """The valid keyword arguments of ``fn``: each parameter without a
    default, and each probed one."""
    good = _good(name)
    return {
        p.name: good[p.name]
        for p in inspect.signature(fn).parameters.values()
        if p.default is inspect.Parameter.empty or _kind(p)
    }


def _malformed_arrays(good) -> dict:
    shape = np.shape(good)
    nan = np.array(good, dtype=complex if np.iscomplexobj(good) else float)
    nan.flat[0] = np.nan
    return {
        "ragged": [[1.0, 2.0], [3.0]],
        "string": np.full(shape, "a"),
        "object": np.array(good, dtype=object),
        "bool": np.ones(shape, dtype=bool),
        "None": None,
        "scalar": 1.0,
        "1-d": np.ones(3),
        "4-d": np.zeros((2, 2, 3, 3)),
        "empty": np.zeros((0, 0)),
        "NaN": nan,
    }


MALFORMED_SIZES = {
    "float": 2.5,
    "negative": -1,
    "string": "3",
    "None": None,
    "bool": True,
    "array": np.array([3, 3]),
    "NaN": float("nan"),
}


def _finite(result) -> bool:
    """Whether every number in ``result`` (an array, a number, a tuple, a
    dict or a dataclass of them; strings and None pass) is finite."""
    if result is None or isinstance(result, str):
        return True
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, dict):
        return all(_finite(value) for value in result.values())
    if isinstance(result, (tuple, list)):
        return all(_finite(item) for item in result)
    result = np.asarray(result)
    return result.dtype.kind in "biufc" and bool(np.isfinite(result).all())


def _outcome(fn, arguments) -> str | None:
    """None when ``fn(**arguments)`` raises a typed IsomlabError or returns
    a finite result, else what escaped."""
    try:
        result = fn(**arguments)
    except il.IsomlabError:
        return None
    except Exception as exc:  # noqa: BLE001 -- the escape under test
        return f"{type(exc).__name__}: {exc}"
    return None if _finite(result) else f"non-finite result {result!r}"


def test_the_table_covers_the_public_api():
    names = {name for name, _, _ in PROBES}
    assert {kind for _, _, kind in PROBES} == {"array", "size"}
    assert {"norm_value", "decompose_isometry", "gell_mann_basis", "haar_unitary"} <= names
    assert SKEW <= names


@pytest.mark.parametrize("name", sorted({name for name, _, _ in PROBES}))
def test_valid_arguments_give_a_finite_result(name):
    fn = getattr(il, name)
    assert _finite(fn(**_arguments(name, fn)))


@pytest.mark.parametrize("name, parameter, kind", PROBES)
def test_malformed_input_raises_a_typed_error(name, parameter, kind):
    fn = getattr(il, name)
    arguments = _arguments(name, fn)
    cases = _malformed_arrays(arguments[parameter]) if kind == "array" else MALFORMED_SIZES
    escapes = {}
    for case, value in cases.items():
        escape = _outcome(fn, {**arguments, parameter: value})
        if escape is not None:
            escapes[case] = escape
    assert escapes == {}


@pytest.mark.parametrize(
    "name, parameter",
    [(name, parameter) for name, parameter, _ in PROBES if parameter in ("n", "trials", "count")],
)
def test_a_bool_is_neither_a_size_nor_a_count(name, parameter):
    fn = getattr(il, name)
    with pytest.raises(il.InvalidDimension):
        fn(**{**_arguments(name, fn), parameter: True})


#: (callable, parameter, error) where a bool, which numpy reads as 0 or 1,
#: is refused: Ky Fan's k, and the seed of every public callable that draws
BOOL_REFUSALS = [("ky_fan", "k", il.InvalidNormSpec)] + [
    (name, "seed", il.InvalidSeed)
    for name, fn in _public()
    if "seed" in inspect.signature(fn).parameters
]


@pytest.mark.parametrize("name, parameter, error", BOOL_REFUSALS)
def test_a_bool_is_neither_a_norm_parameter_nor_a_seed(name, parameter, error):
    fn = getattr(il, name)
    for value in (True, False, [3, True]) if parameter == "seed" else (True, False):
        with pytest.raises(error):
            fn(**{**_arguments(name, fn), parameter: value})
