"""A contract fuzz of the ``gaussian`` command, called in-process.

Gains, noise deviations and power caps are drawn from their domains, and
about half the flag sets have one of them replaced by an edge (0, +-1,
5e-324, 1e-310, 1e-300, 1e300, 1e308, NaN or +-inf), for every action
and variant. Each must exit 0, 2 or 3 with no exception escaping and no
RuntimeWarning, and write finite numbers on exit 0 (see
test_ensemble_fuzz.run_cli).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from test_ensemble_fuzz import run_cli, with_edge

NAMES = ("Ay", "Az", "sy", "sz", "gamma")
FIGURE = dict(Ay=1.0, Az=0.5, sy=0.5, sz=0.8, gamma=0.5)
REPRO = dict(Ay=1.0, Az=0.5, sy=1.0, sz=2.0, gamma=1.0)


@given(
    action=st.sampled_from(["capacity", "reliability", "secrecy"]),
    variant=st.sampled_from(["forward", "gallager"]),
    flags=st.fixed_dictionaries({name: st.floats(1e-3, 1e3) for name in NAMES}),
    edge=with_edge(NAMES) | st.tuples(st.just("gamma"), st.sampled_from([1e-160, 1e-20, 1e-16, 1e155])),
    points=st.sampled_from([2, 5]),
)
# The critical-rate square overflowed (Infinity in the JSON); u = exp(-2 rate) rounded to 1 (ZeroDivisionError).
@example(action="capacity", variant="forward", flags=REPRO, edge=("gamma", 1e300), points=2)
@example(action="capacity", variant="forward", flags=REPRO, edge=("gamma", 1e155), points=2)
@example(action="reliability", variant="gallager", flags=FIGURE, edge=("gamma", 1e-16), points=5)
@example(action="secrecy", variant="forward", flags=FIGURE, edge=("gamma", 1e-20), points=5)
@example(action="reliability", variant="gallager", flags=FIGURE, edge=("gamma", 1e-300), points=5)  # exit 2
# The linear branch took log(beta - snr/2), which rounds to log(0) at an SNR of 1e16: exit 2, now exit 0.
@example(action="reliability", variant="gallager", flags=FIGURE, edge=("gamma", 1e16), points=5)
@settings(max_examples=400, deadline=None)
def _fuzz(action, variant, flags, edge, points, tmp_dir):
    flags = dict(flags, points=points)
    if edge is not None:
        flags[edge[0]] = edge[1]
    argv = ["gaussian", action, f"--variant={variant}", "--format=json", *(f"--{k}={v!r}" for k, v in flags.items())]
    run_cli(argv, tmp_dir / "out.json")


def test_gaussian_exits_0_2_or_3_with_finite_numbers(tmp_path):
    with Budget("gaussian fuzz: 400 flag sets and 6 examples", 10.0):
        _fuzz(tmp_dir=tmp_path)
