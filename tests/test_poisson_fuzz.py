"""A contract fuzz of the ``poisson`` command, called in-process.

Peaks, dark currents, duty caps, duty probabilities and prefix
parameters are drawn from their domains, and about half the flag sets
have one of them replaced by an edge (0, +-1, 5e-324, 1e-310, 1e-300,
1e300, 1e308, NaN or +-inf). Each action (capacity, curves, concat)
must exit 0, 2 or 3 with no exception escaping and no RuntimeWarning,
and write finite numbers on exit 0 (see test_ensemble_fuzz.run_cli).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from test_ensemble_fuzz import run_cli, with_edge

# Dark currents are drawn as dark-to-peak ratios.
RANGES = {"Ay": (1e-3, 1e6), "Az": (1e-3, 1e6), "ly": (0.0, 10.0), "lz": (0.0, 10.0), "gamma": (0.0, 1.0),
          "q": (0.0, 1.0), "a": (0.0, 1.0), "b": (0.0, 1.0)}


@given(
    action=st.sampled_from(["capacity", "curves", "concat"]),
    flags=st.fixed_dictionaries({name: st.floats(lo, hi) for name, (lo, hi) in RANGES.items()}),
    edge=with_edge(sorted(RANGES)),
    points=st.sampled_from([2, 5]),
)
@example(action="concat", flags=dict(Ay=12.0, Az=5.0, ly=0.5, lz=1.5, gamma=0.5, q=0.38, a=0.98, b=0.02), edge=None,
         points=5)  # figure 9
@example(action="capacity", flags=dict(Ay=1e6, Az=1e-3, ly=0.0, lz=10.0, gamma=1.0, q=0.5, a=1.0, b=0.0),
         edge=("Ay", 1e308), points=2)
# Rounding left the gap derivative negative at both ends of (0, 1): RuntimeError.
@example(action="concat", flags=dict(Ay=1.0, Az=1.0, ly=1.0, lz=2.0, gamma=0.0, q=0.0, a=1e-7, b=0.0), edge=None,
         points=2)
# Every point of a curve at q = 0 has rate 0: exit 2, naming the duty (it named the rate grid).
@example(action="curves", flags=dict(Ay=12.0, Az=5.0, ly=0.5 / 12.0, lz=0.3, gamma=0.5, q=0.0, a=1.0, b=0.0), edge=None,
         points=3)
@settings(max_examples=400, deadline=None)
def _fuzz(action, flags, edge, points, tmp_dir):
    # Mostly degraded pairs (the larger peak and the smaller dark-to-peak ratio to the receiver) and prefixes b <= a.
    (Az, Ay), (sy, sz), (b, a) = (sorted((flags[x], flags[y])) for x, y in (("Ay", "Az"), ("ly", "lz"), ("a", "b")))
    flags = dict(flags, Ay=Ay, Az=Az, ly=sy * Ay, lz=sz * Az, a=a, b=b, points=points)
    if edge is not None:
        flags[edge[0]] = edge[1]
    argv = ["poisson", action, "--format=json", *(f"--{flag}={value!r}" for flag, value in flags.items())]
    run_cli(argv, tmp_dir / "out.json")


def test_poisson_exits_0_2_or_3_with_finite_numbers(tmp_path):
    with Budget("poisson fuzz: 400 flag sets and 4 examples", 10.0):
        _fuzz(tmp_dir=tmp_path)
