"""A contract fuzz of the ``ensemble`` command, called in-process.

Counts, crossover probabilities, input laws, sample counts and seeds are
drawn in range and out of it (negative, zero, huge, subnormal, NaN and
infinite values). Every flag set must exit 0, 2 or 3 with no exception
escaping and no RuntimeWarning, and on exit 0 every number written must
be finite. Flags are passed as ``--flag=value``, since a bare ``-inf`` or
``-1`` parses as an option.
"""

import json
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from wiretap_exponents import cli

COUNTS = st.sampled_from([-1, 0, *range(1, 10), 10**20])
EDGES = [0.0, 1.0, 0.5, 1e-300, -0.1, 1.0000001, math.nan, math.inf, -math.inf]
PROBABILITIES = st.sampled_from(EDGES) | st.floats(0.0, 1.0)
SAMPLES = st.sampled_from([0, 1, 2, 500])
SEEDS = st.sampled_from([0, 1, -1, 2**70])


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in the JSON output")


def _numbers(payload):
    if isinstance(payload, dict):
        return [x for value in payload.values() for x in _numbers(value)]
    return [payload]


@given(
    n=COUNTS, M=COUNTS, L=COUNTS, eps_y=PROBABILITIES, eps_z=PROBABILITIES, q1=PROBABILITIES,
    samples=SAMPLES, seed=SEEDS,
)
@example(n=3, M=2, L=2, eps_y=0.1, eps_z=0.3, q1=0.5, samples=1, seed=0)  # too few samples: exit 2
@example(n=8, M=1, L=4, eps_y=0.1, eps_z=0.3, q1=0.5, samples=0, seed=0)  # the divergence work guard: exit 2
@example(n=3, M=2, L=2, eps_y=0.1, eps_z=0.0, q1=1.0, samples=2, seed=0)  # one codeword, a noiseless tap
@example(n=5, M=2, L=4, eps_y=0.1, eps_z=0.25, q1=0.45, samples=500, seed=1)  # enumerated by columns
@settings(max_examples=400, deadline=None)
def _fuzz(n, M, L, eps_y, eps_z, q1, samples, seed, tmp_dir):
    out = tmp_dir / "out.json"
    out.unlink(missing_ok=True)
    flags = {"n": n, "M": M, "L": L, "eps-y": eps_y, "eps-z": eps_z, "q1": q1, "mc-samples": samples, "seed": seed}
    argv = ["ensemble", *(f"--{flag}={value!r}" for flag, value in flags.items()), f"--out={out}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_PRECONDITION, cli.EXIT_PROPERTY), argv
    if code == cli.EXIT_OK:
        payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject)
        assert all(math.isfinite(x) for x in _numbers(payload)), (argv, payload)


def test_ensemble_exits_0_2_or_3_with_finite_numbers(tmp_path):
    with Budget("ensemble fuzz: 400 flag sets and 4 examples", 20.0):
        _fuzz(tmp_dir=tmp_path)
