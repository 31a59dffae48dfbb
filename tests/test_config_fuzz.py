"""A contract fuzz of the ``exponents`` and ``tradeoff`` commands, called in-process.

Binary channel configs (two crossovers per channel, two costs, the cost
cap and the input law) and tradeoff sweeps are drawn from their domains,
and about half the runs have one value replaced by an edge (0, +-1,
5e-324, 1e-310, 1e-300, 1e300, 1e308, NaN or +-inf), for every tradeoff
mechanism. Each run must exit 0, 2 or 3 with no exception escaping and
no RuntimeWarning, and write finite numbers on exit 0 (see
test_ensemble_fuzz.run_cli). A type mutation replaces one value, row or
entry of a valid config with a JSON value of the wrong type; each such
run must exit 2 and name the key on stderr.
"""

import copy
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from test_ensemble_fuzz import run_cli, with_edge
from wiretap_exponents import cli
from wiretap_exponents.exponent_engine import MECHANISMS

# The cost cap is drawn as its slack over the expected cost.
RANGES = {"bob0": (0.0, 0.5), "bob1": (0.0, 0.5), "eve0": (0.0, 0.5), "eve1": (0.0, 0.5), "c0": (0.0, 10.0),
          "c1": (0.0, 10.0), "gamma": (-0.1, 2.0), "q1": (0.0, 1.0), "sweep0": (0.0, 0.5), "sweep1": (0.0, 0.5)}
BSC = dict(bob0=0.1, bob1=0.1, eve0=0.3, eve1=0.3, c0=0.0, c1=1.0, gamma=0.1, q1=0.4, sweep0=0.05, sweep1=0.1)


@given(
    command=st.sampled_from(["exponents", *MECHANISMS]),
    values=st.fixed_dictionaries({name: st.floats(lo, hi) for name, (lo, hi) in RANGES.items()}),
    edge=with_edge(sorted(RANGES)),
    sweep_size=st.sampled_from([1, 2]),
    points=st.sampled_from([2, 3]),
)
# A cost spread of 1e-310 gave an infinite tilt cap, printed as Infinity.
@example(command="exponents", values=dict(BSC, c1=1e-310, q1=0.5), edge=("gamma", 0.0), sweep_size=1, points=3)
@example(command="rate_shift", values=dict(BSC, c1=1e-310, q1=0.5), edge=("gamma", 0.0), sweep_size=1, points=3)
@example(command="concatenate", values=BSC, edge=None, sweep_size=2, points=3)
# A crossover-0.5 prefix divided by a - b = 0: ZeroDivisionError.
@example(command="concatenate", values=dict(BSC, sweep0=0.5), edge=None, sweep_size=1, points=2)
# q = [1, 0]: Bob's mutual information is 0, so every rate of the window is 0 (exit 2).
@example(command="exponents", values=dict(BSC, c0=1.0, c1=2.0, gamma=0.4, q1=0.0), edge=None, sweep_size=1, points=3)
@example(command="rate_shift", values=dict(BSC, c0=1.0, c1=2.0, gamma=0.4, q1=0.0), edge=None, sweep_size=1, points=3)
@settings(max_examples=400, deadline=None)
def _fuzz(command, values, edge, sweep_size, points, tmp_dir):
    v = dict(values, gamma=(1.0 - values["q1"]) * values["c0"] + values["q1"] * values["c1"] + values["gamma"])
    if edge is not None:
        v[edge[0]] = edge[1]
    config = tmp_dir / "config.json"
    config.write_text(json.dumps({
        "bob": [[1.0 - v["bob0"], v["bob0"]], [v["bob1"], 1.0 - v["bob1"]]],
        "eve": [[1.0 - v["eve0"], v["eve0"]], [v["eve1"], 1.0 - v["eve1"]]],
        "costs": [v["c0"], v["c1"]], "gamma": v["gamma"], "q": [1.0 - v["q1"], v["q1"]],
    }))
    argv = [f"--config={config}", f"--points={points}"]
    if command == "exponents":
        argv = ["exponents", *argv, "--format=json"]
    else:
        sweep = ",".join(repr(v[f"sweep{i}"]) for i in range(sweep_size))
        argv = ["tradeoff", *argv, f"--mechanism={command}", f"--sweep={sweep}"]
    run_cli(argv, tmp_dir / "out.json")


def test_exponents_and_tradeoff_exit_0_2_or_3_with_finite_numbers(tmp_path):
    with Budget("exponents and tradeoff fuzz: 400 configs and 6 examples", 10.0):
        _fuzz(tmp_dir=tmp_path)


VALID = {"bob": [[0.9, 0.1], [0.1, 0.9]], "eve": [[0.7, 0.3], [0.3, 0.7]], "costs": [1.0, 2.0], "gamma": 1.4,
         "q": [0.6, 0.4]}
COMMANDS = {"capacity": [], "exponents": [], "tradeoff": ["--mechanism=rate_shift", "--sweep=0.1"]}


@st.composite
def type_mutations(draw):
    """(key, config): VALID with one key's value, one of its rows or one entry replaced by a value of the wrong
    type, or by itself one list deeper."""
    doc = copy.deepcopy(VALID)
    key = draw(st.sampled_from(sorted(VALID)))
    parent, index = doc, key
    while isinstance(parent[index], list) and draw(st.booleans()):
        parent, index = parent[index], draw(st.integers(0, len(parent[index]) - 1))
    parent[index] = draw(st.sampled_from([True, False, None, "1", [], {}, [parent[index]]]))
    return key, doc


@given(command=st.sampled_from(sorted(COMMANDS)), mutation=type_mutations())
@settings(max_examples=150, deadline=None)
def _type_fuzz(command, mutation, tmp_dir, capsys):
    key, doc = mutation
    config = tmp_dir / "config.json"
    config.write_text(json.dumps(doc))
    code = run_cli([command, f"--config={config}", *COMMANDS[command]], tmp_dir / "out.json")
    assert code == cli.EXIT_PRECONDITION, doc
    assert f"precondition violation: {key}" in capsys.readouterr().err, doc


def test_a_config_value_of_the_wrong_type_exits_2_naming_its_key(tmp_path, capsys):
    with Budget("config type mutations: 150 configs", 4.0):
        _type_fuzz(tmp_dir=tmp_path, capsys=capsys)
