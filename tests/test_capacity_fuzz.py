"""A contract fuzz of the ``capacity`` command, called in-process.

Configs have at most 4 input letters, output alphabets of their own size
for bob and eve, zero channel entries, costs up to 1e300, and a cap at,
just below, just above or far above the cheapest cost (subnormal caps
included). Every config must exit 0 or 2 with no exception escaping and
no RuntimeWarning, and on exit 0 every number printed must be finite.
"""

import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from wiretap_exponents import cli

ENTRIES = st.one_of(st.just(0.0), st.sampled_from([1e-300, 1e-160]), st.floats(1e-3, 1.0))
COSTS = st.one_of(st.just(0.0), st.sampled_from([1e-310, 1e-300, 1.0, 1e300]), st.floats(0.0, 1e300))
CAP_OFFSETS = st.one_of(
    st.just(0.0),  # at the cheapest cost
    st.floats(5e-324, 2.2e-308),  # subnormal above it: a subnormal cap when the cheapest cost is 0
    st.floats(1e-12, 1e300),  # far above
)


def _channel(draw, k, m):
    rows = np.array(draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=k, max_size=k)))
    for row in rows:
        if row.sum() == 0.0:
            row[draw(st.integers(0, m - 1))] = 1.0
    return (rows / rows.sum(axis=1, keepdims=True)).tolist()


@st.composite
def capacity_configs(draw):
    k = draw(st.integers(1, 4))
    bob, eve = (_channel(draw, k, draw(st.integers(1, 4))) for _ in range(2))
    costs = draw(st.lists(COSTS, min_size=k, max_size=k))
    cheapest = min(costs)
    gamma = draw(
        st.builds(lambda offset: cheapest + offset, CAP_OFFSETS)
        | st.sampled_from([math.nextafter(cheapest, math.inf), math.nextafter(cheapest, -math.inf)])
    )
    return {"bob": bob, "eve": eve, "costs": costs, "gamma": gamma}


SUBNORMAL_CAP = {"bob": [[1, 0], [0.5, 0.5]], "eve": [[1, 0], [0.9, 0.1]], "costs": [0, 1], "gamma": 1e-310}
UNEQUAL_OUTPUTS = {
    "bob": [[0.012, 0.735, 0.253], [0.003, 0.945, 0.052], [0.129, 0.362, 0.509]],
    "eve": [[0.48, 0.52], [0.005, 0.995], [0.0, 1.0]],
    "costs": [0.92, 0.82, 1.46],
    "gamma": 1.07,
}
# Cost spreads past the float range once overflowed the feasible projection's bisection bound.
SPREAD_COSTS = {"bob": [[1.0, 0.0]] * 3, "eve": [[1.0]] * 3, "costs": [1e-310, 0.0, 0.0], "gamma": 5e-324}


@given(config=capacity_configs(), aux_dim=st.integers(1, 3))
@example(config=SUBNORMAL_CAP, aux_dim=2)
@example(config=UNEQUAL_OUTPUTS, aux_dim=2)
@example(config=SPREAD_COSTS, aux_dim=2)
@settings(max_examples=100, deadline=None)
def _fuzz(config, aux_dim, tmp_dir):
    path, out = tmp_dir / "config.json", tmp_dir / "out.json"
    path.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["capacity", "--config", str(path), "--aux-dim", str(aux_dim), "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_PRECONDITION)
    if code == cli.EXIT_OK:
        payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=float)
        numbers = [payload["value_nats"], payload["min_info_gap"], *payload["input_law"]]
        numbers += [x for row in payload.get("aux_channel", []) for x in row]
        assert all(math.isfinite(x) for x in numbers), payload


def test_capacity_exits_0_or_2_with_finite_numbers(tmp_path):
    with Budget("capacity fuzz: 100 configs and 3 examples", 20.0):
        _fuzz(tmp_dir=tmp_path)
