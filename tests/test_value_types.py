"""Contract shared by the immutable value types.

Every case builds its object from a caller-owned array (or from scalars
only), so the same table checks frozen attributes, read-only array
fields, pickle and deepcopy round trips and isolation from the caller's
array.
"""

import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiretap_exponents
from wiretap_exponents import ensemble_sim, figures
from wiretap_exponents import gaussian_wiretap as gw
from wiretap_exponents import poisson_wiretap as pw
from wiretap_exponents.channel_core import (
    PROB_TOL,
    CostedInput,
    DiscreteChannel,
    MoreCapableResult,
    WiretapPair,
    _Value,
    mutual_information,
    parse_wiretap_config,
)
from wiretap_exponents.exponent_engine import (
    CapacityResult,
    ExponentCurve,
    ExponentOptimum,
    ExponentQuery,
    TradeoffScenario,
    reliability_curve,
    secrecy_capacity,
    tradeoff_scenarios,
)
from wiretap_exponents.secrecy_metrics import OutputEnsemble

NAN = math.nan
INF = math.inf


def _pair():
    return WiretapPair(DiscreteChannel.bsc(0.1), DiscreteChannel.bsc(0.3))


def _ternary_pair():
    return WiretapPair(DiscreteChannel.identity(3), DiscreteChannel(np.full((3, 3), 1.0 / 3.0)))


# name -> (caller array or None, build(array) -> value)
CASES = {
    "DiscreteChannel": ([[0.9, 0.1], [0.2, 0.8]], DiscreteChannel),
    "CostedInput": ([0.6, 0.4], lambda a: CostedInput(a, a + 1.0, 2.0)),
    "WiretapPair": (None, lambda _: _pair()),
    "ExponentQuery": ([1.0, 2.0], lambda a: ExponentQuery(_pair(), [0.6, 0.4], a, 1.4, 0.1, 0.2)),
    "EnsembleSpec": ([0.5, 0.5], lambda a: ensemble_sim.EnsembleSpec(_pair(), 3, 2, 2, a)),
    "OutputEnsemble": ([[0.5, 0.5], [0.2, 0.8]], lambda a: OutputEnsemble(a, a[0])),
    "PoissonWiretapParams": (None, lambda _: pw.PoissonWiretapParams(12.0, 5.0, 0.5, 1.5, 0.5)),
    "GaussianWiretapParams": (None, lambda _: gw.GaussianWiretapParams(1.0, 0.5, 0.5, 0.8, 0.5)),
    "ConcatenationParams": (None, lambda _: pw.ConcatenationParams(0.98, 0.02)),
    "CapacityResult": ([0.6, 0.4], lambda a: CapacityResult(0.2, a, None, True, False, 0.01)),
    "DiscretizedPoisson": ([0.0, 1.0], lambda a: pw.DiscretizedPoisson(_pair(), a, 0.5, 1e-3)),
    "ExponentCurve": ([0.1, 0.2], lambda a: ExponentCurve(a, a + 0.5, {"function": "reliability"})),
    "MoreCapableResult": ([0.6, 0.4], lambda a: MoreCapableResult(True, a, 0.01)),
    "ExponentOptimum": (None, lambda _: ExponentOptimum(0.1, 0.1, 0.5, 0.2, 0.0)),
    "PoissonCapacity": (None, lambda _: pw.PoissonCapacity(2.5, 0.4, 0.4, 1e-13)),
    "TradeoffScenario": (
        [0.1, 0.2],
        lambda a: TradeoffScenario(
            "shift", ExponentCurve(a, a + 0.5), ExponentCurve(a, a), {"reliability_invariant": (False, -0.5)}
        ),
    ),
    "FigureData": (
        [0.1, 0.2],
        lambda a: figures.FigureData(
            3, {"delta": 0.05, "costs": (1.0, 2.0)}, [("reliability", ExponentCurve(a, a))], {"x/y": (True, 0.0)}
        ),
    ),
}


def _build(name):
    array, build = CASES[name]
    array = None if array is None else np.array(array, dtype=np.float64)
    return array, build(array)


def _field_values(value):
    return [getattr(value, f.name) for f in dataclasses.fields(value)]


def _content(value):
    """Field values all the way down, through tuples and mappings, with arrays as nested lists."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *map(_content, _field_values(value)))
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return tuple(map(_content, value))
    if isinstance(value, Mapping):
        return {k: _content(v) for k, v in value.items()}
    return value


def _array_fields(value):
    return [v for v in _field_values(value) if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("name", CASES)
class TestValueTypeContract:
    def test_attributes_cannot_be_assigned(self, name):
        _, value = _build(name)
        properties = [n for n, v in vars(type(value)).items() if isinstance(v, property)]
        for attr in [f.name for f in dataclasses.fields(value)] + properties + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(value, attr, 1)
            with pytest.raises(AttributeError):
                delattr(value, attr)

    def test_array_fields_are_read_only(self, name):
        _, value = _build(name)
        for a in _array_fields(value):
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0.5

    def test_pickle_and_deepcopy_round_trip(self, name):
        _, value = _build(name)
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(clone) is type(value)
            assert _content(clone) == _content(value)
            assert all(not a.flags.writeable for a in _array_fields(clone))
            assert value == value and isinstance(value == clone, bool)
            hash(value)

def test_curve_meta_cannot_be_changed_in_place():
    curve = reliability_curve(figures.bsc_query(), [0.1, 0.2])
    rhos = curve.meta["argmax_rho"]
    with pytest.raises(TypeError):
        curve.meta["argmax_rho"][0] = 99.0
    with pytest.raises(TypeError):
        curve.meta["argmax_rho"] = [99.0, 99.0]
    with pytest.raises(TypeError):
        del curve.meta["raw"]
    with pytest.raises(AttributeError):
        curve.meta["q"].append(0.5)
    assert curve.meta["argmax_rho"] == rhos and 99.0 not in rhos
    for clone in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)):
        assert dict(clone.meta) == dict(curve.meta)
        with pytest.raises(TypeError):
            clone.meta["argmax_rho"] = ()


def test_scenario_checks_cannot_be_changed_in_place():
    scenario = tradeoff_scenarios(figures.bsc_query(), "rate_shift", [0.05], points=3)[1]
    checks, ok = dict(scenario.checks), scenario.ok
    with pytest.raises(AttributeError):
        scenario.checks.clear()
    with pytest.raises(TypeError):
        scenario.checks["reliability_invariant"] = (not ok, 0.0)
    assert dict(scenario.checks) == checks and scenario.ok == ok


def test_figure_containers_cannot_be_changed_in_place():
    data = figures.figure_data(3, points=3)
    curves, params, checks = data.curves, dict(data.params), dict(data.checks)
    with pytest.raises(AttributeError):
        data.curves.append(data.curves[0])
    with pytest.raises(TypeError):
        data.params["delta"] = 1.0
    with pytest.raises(TypeError):
        data.checks["extra/check"] = (False, -1.0)
    assert data.curves == curves and dict(data.params) == params and dict(data.checks) == checks


def test_every_value_type_is_built_one_way():
    # Each dataclass of the package takes its construction and copy rules from _Value.
    names = [m.name for m in pkgutil.iter_modules(wiretap_exponents.__path__)]
    modules = [importlib.import_module(f"wiretap_exponents.{name}") for name in names]
    types = {
        cls for module in modules for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    }
    assert len(types) == len(CASES) == 17
    for cls in types:
        assert issubclass(cls, _Value) and cls.__name__ in CASES
        assert "__post_init__" not in vars(cls) and "__reduce__" not in vars(cls)


def test_curve_meta_does_not_alias_the_callers_dict():
    meta = {"function": "reliability", "argmax_rho": [0.5, 0.6]}
    curve = ExponentCurve([0.1, 0.2], [0.3, 0.2], meta)
    meta["argmax_rho"][0] = 99.0
    meta["function"] = "changed"
    assert dict(curve.meta) == {"function": "reliability", "argmax_rho": (0.5, 0.6)}


@pytest.mark.parametrize("name", [name for name, (array, _) in CASES.items() if array is not None])
def test_caller_array_is_not_aliased(name):
    array, value = _build(name)
    before = _content(value)
    array[...] = 0.25
    assert _content(value) == before


NON_FINITE = {
    "DiscreteChannel": lambda: DiscreteChannel([[NAN, 1.0], [0.5, 0.5]]),
    "CostedInput probs": lambda: CostedInput([0.5, NAN], [1.0, 2.0], 2.0),
    "CostedInput costs": lambda: CostedInput([0.5, 0.5], [1.0, INF], 2.0),
    "CostedInput gamma": lambda: CostedInput([0.5, 0.5], [1.0, 2.0], NAN),
    "ExponentQuery costs": lambda: ExponentQuery(_pair(), [0.5, 0.5], [1.0, NAN], 2.0),
    "ExponentQuery gamma": lambda: ExponentQuery(_pair(), [0.5, 0.5], [1.0, 2.0], INF),
    "EnsembleSpec": lambda: ensemble_sim.EnsembleSpec(_pair(), 3, 2, 2, [NAN, 0.5]),
    "OutputEnsemble members": lambda: OutputEnsemble([[NAN, 0.5]], [0.5, 0.5]),
    "OutputEnsemble target": lambda: OutputEnsemble([[0.5, 0.5]], [0.5, NAN]),
    "PoissonWiretapParams": lambda: pw.PoissonWiretapParams(12.0, 5.0, INF, INF, 0.5),
    "GaussianWiretapParams": lambda: gw.GaussianWiretapParams(NAN, 0.5, 0.5, 0.8, 0.5),
    "ConcatenationParams": lambda: pw.ConcatenationParams(NAN, 0.02),
    "secrecy_capacity costs": lambda: secrecy_capacity(_ternary_pair(), [1.0, NAN, 1.0], 2.0),
    "secrecy_capacity gamma": lambda: secrecy_capacity(_ternary_pair(), [1.0, 1.0, 1.0], INF),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_constructors_reject_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


CONFIG = {
    "bob": [[0.9, 0.1], [0.1, 0.9]],
    "eve": [[0.7, 0.3], [0.3, 0.7]],
    "costs": [1.0, 2.0],
    "gamma": 1.4,
    "q": [0.6, 0.4],
}


@pytest.mark.parametrize(
    "key, bad", [("gamma", NAN), ("gamma", INF), ("costs", [1.0, NAN]), ("q", [NAN, 0.4])]
)
def test_config_rejects_non_finite(key, bad):
    with pytest.raises(ValueError, match="finite"):
        parse_wiretap_config({**CONFIG, key: bad})


# name -> (valid arguments, build(*arguments)). The property test puts
# NaN, +inf or -inf in place of any one number of the arguments.
NUMERIC_ARGS = {
    "DiscreteChannel": ([[[0.9, 0.1], [0.2, 0.8]]], DiscreteChannel),
    "CostedInput": ([[0.6, 0.4], [1.0, 2.0], 2.0], CostedInput),
    "ExponentQuery": ([[0.6, 0.4], [1.0, 2.0], 1.4, 0.1, 0.2], lambda *a: ExponentQuery(_pair(), *a)),
    "EnsembleSpec": ([3, 2, 2, [0.5, 0.5]], lambda *a: ensemble_sim.EnsembleSpec(_pair(), *a)),
    "OutputEnsemble": ([[[0.5, 0.5], [0.2, 0.8]], [0.4, 0.6]], OutputEnsemble),
    "PoissonWiretapParams": ([12.0, 5.0, 0.5, 1.5, 0.5], pw.PoissonWiretapParams),
    "GaussianWiretapParams": ([1.0, 0.5, 0.5, 0.8, 0.5], gw.GaussianWiretapParams),
    "ConcatenationParams": ([0.98, 0.02], pw.ConcatenationParams),
    "CapacityResult": ([0.2, [0.6, 0.4], 0.01], lambda v, q, gap: CapacityResult(v, q, None, True, False, gap)),
    "DiscretizedPoisson": ([[0.0, 1.0], 0.5, 1e-3], lambda *a: pw.DiscretizedPoisson(_pair(), *a)),
    "ExponentCurve": ([[0.1, 0.2], [0.6, 0.7]], ExponentCurve),
    "MoreCapableResult": ([[0.6, 0.4], 0.01], lambda q, gap: MoreCapableResult(True, q, gap)),
    "PoissonCapacity": ([2.5, 0.4, 0.4, 1e-13], pw.PoissonCapacity),
    "parse_wiretap_config": (
        [CONFIG["bob"], CONFIG["eve"], CONFIG["costs"], CONFIG["gamma"], CONFIG["q"]],
        lambda bob, eve, costs, gamma, q: parse_wiretap_config(
            {"bob": bob, "eve": eve, "costs": costs, "gamma": gamma, "q": q}
        ),
    ),
}


def _number_paths(value, path=()):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _number_paths(item, path + (i,))
    else:
        yield path


def _replaced(value, path, new):
    if not path:
        return new
    return [_replaced(item, path[1:], new) if i == path[0] else item for i, item in enumerate(value)]


@pytest.mark.parametrize("name", NUMERIC_ARGS)
def test_numeric_arguments_build(name):
    args, build = NUMERIC_ARGS[name]
    build(*args)


@pytest.mark.parametrize("name", NUMERIC_ARGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_non_finite_number_is_rejected(name, data):
    args, build = NUMERIC_ARGS[name]
    path = data.draw(st.sampled_from(list(_number_paths(args))), label="position")
    bad = data.draw(st.sampled_from([NAN, INF, -INF]), label="value")
    with pytest.raises(ValueError):
        build(*_replaced(args, path, bad))


# name -> (a valid law or stack of laws, build(law)): every argument that
# must be a probability law.
LAW_ARGS = {
    "DiscreteChannel": ([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]], DiscreteChannel),
    "CostedInput": ([0.6, 0.4], lambda q: CostedInput(q, [1.0, 2.0], 2.0)),
    "ExponentQuery": ([0.6, 0.4], lambda q: ExponentQuery(_pair(), q, [1.0, 2.0], 2.0)),
    "EnsembleSpec": ([0.5, 0.5], lambda q: ensemble_sim.EnsembleSpec(_pair(), 3, 2, 2, q)),
    "OutputEnsemble members": ([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]], lambda m: OutputEnsemble(m, [0.4, 0.3, 0.3])),
    "OutputEnsemble target": ([0.4, 0.3, 0.3], lambda t: OutputEnsemble([[0.5, 0.3, 0.2]], t)),
    "mutual_information": ([0.6, 0.4], lambda q: mutual_information(q, DiscreteChannel.bsc(0.1))),
    "parse_wiretap_config q": (CONFIG["q"], lambda q: parse_wiretap_config({**CONFIG, "q": q})),
    "parse_wiretap_config eve": (CONFIG["eve"], lambda eve: parse_wiretap_config({**CONFIG, "eve": eve})),
}


@pytest.mark.parametrize("name", LAW_ARGS)
def test_valid_laws_build(name):
    law, build = LAW_ARGS[name]
    build(law)


def _broken_law(law, kind, data):
    a = np.array(law, dtype=np.float64)
    if kind == "shape":
        shapes = [a[None], a[..., 0], np.empty(a.shape[:-1] + (0,)), np.empty((0,) * a.ndim)]
        return data.draw(st.sampled_from(shapes), label="shape")
    row = a if a.ndim == 1 else a[data.draw(st.integers(0, len(a) - 1), label="row")]
    i, j = data.draw(st.permutations(range(row.size)), label="letters")[:2]
    if kind == "entry outside [0, 1]":
        # Mass moved from letter j to letter i, past all of j's: the sum stays 1.
        moved = row[j] + data.draw(st.floats(1e-9, 3.0), label="overshoot")
        row[i] += moved
        row[j] -= moved
    elif kind == "sum off":
        sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        row *= 1.0 + sign * data.draw(st.floats(100 * PROB_TOL, 0.1), label="off")
    else:
        row[i] = data.draw(st.sampled_from([NAN, INF, -INF]), label="value")
    return a


@pytest.mark.parametrize("name", LAW_ARGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_broken_law_is_rejected(name, data):
    law, build = LAW_ARGS[name]
    kind = data.draw(st.sampled_from(["entry outside [0, 1]", "sum off", "non-finite", "shape"]), label="kind")
    with pytest.raises(ValueError):
        build(_broken_law(law, kind, data))
