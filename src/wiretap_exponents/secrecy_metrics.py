"""Secrecy measures on explicit finite output ensembles.

An ensemble is a finite family of output distributions (one per message)
together with a target distribution the eavesdropper should ideally see.
This module evaluates the standard secrecy metrics on such ensembles:

* divergence distance: mean KL divergence of members from the target,
* variational distance: mean L1 distance of members from the target,
* leakage: mean KL divergence of members from the ensemble average,
  together with the stealth term (divergence of the average from the
  target); leakage + stealth equals the divergence distance exactly,
* mean member distance to the ensemble average.

All divergences are in nats. Target masses below 1e-300 are treated as
zero for the absolute-continuity checks.
"""

from dataclasses import dataclass

import numpy as np

from .channel_core import _checked, _divergences, _laws, _Value

ZERO_MASS = 1e-300
IDENTITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OutputEnsemble(_Value):
    """M output distributions over a shared finite alphabet plus a target."""

    members: np.ndarray = _checked(_laws, "members", 2)
    target: np.ndarray = _checked(_laws, "target")

    def _validate(self):
        if self.target.shape[0] != self.members.shape[1]:
            raise ValueError("target alphabet does not match the members")

    @property
    def size(self):
        return self.members.shape[0]

    @property
    def average(self):
        return self.members.mean(axis=0)

    @classmethod
    def from_json(cls, doc):
        unknown = set(doc) - {"members", "target"}
        if unknown:
            raise ValueError(f"unknown ensemble keys: {sorted(unknown)}")
        return cls(doc["members"], doc["target"])


def _kl(rows, ref, what):
    """D(row || ref) in nats for one law or each member row; raises on an absolute-continuity breach."""
    bad = (ref <= ZERO_MASS) & (rows > 0.0)
    if bad.any():
        *member, z = np.argwhere(bad)[0].tolist()
        who = f"member {member[0]} vs {what}" if member else what
        raise ValueError(f"absolute continuity violated for {who} at symbol {z}")
    return _divergences(rows, ref)


def _tv(rows, ref):
    return np.abs(rows - ref).sum(axis=-1)


def divergence_distance(ensemble):
    """Mean KL divergence of the members from the target, in nats."""
    return float(_kl(ensemble.members, ensemble.target, "target").mean())


def variational_distance(ensemble):
    """Mean L1 distance of the members from the target."""
    return float(_tv(ensemble.members, ensemble.target).mean())


def _divergence_split(ensemble, avg):
    total = divergence_distance(ensemble)
    leakage = float(_kl(ensemble.members, avg, "ensemble average").mean())
    stealth = float(_kl(avg, ensemble.target, "ensemble average vs target"))
    if abs(total - (leakage + stealth)) > IDENTITY_TOL:
        raise AssertionError(f"divergence split broke: {total} != {leakage} + {stealth}")
    return total, leakage, stealth


def mutual_information_measure(ensemble):
    """Leakage / stealth split of the divergence distance.

    Returns (leakage, stealth): leakage is the mean divergence of members
    from the ensemble average, stealth the divergence of the average from
    the target. Their sum reproduces divergence_distance to 1e-10; the
    identity is verified here rather than assumed.
    """
    return _divergence_split(ensemble, ensemble.average)[1:]


def mean_distance_to_average(ensemble):
    """Mean L1 distance of the members from the ensemble average."""
    return float(_tv(ensemble.members, ensemble.average).mean())


def inequality_slacks(ensemble):
    """Slacks of the standard inequalities between the secrecy measures.

    Returns a dict with entries:

    * ``pinsker``: 2 * divergence - variational^2
    * ``triangle``: 2 * variational - mean distance to average
    * ``split_triangle``: 3 * variational - mean distance to average
      - d(average, target)
    * ``divergence_split_residual``: divergence - leakage - stealth
      (signed; zero up to float error)

    All inequality slacks are nonnegative for any valid ensemble, and the
    residual vanishes to 1e-10.
    """
    avg = ensemble.average
    div, leakage, stealth = _divergence_split(ensemble, avg)
    var = variational_distance(ensemble)
    dav = float(_tv(ensemble.members, avg).mean())
    avg_gap = float(_tv(avg, ensemble.target))
    return {
        "pinsker": 2.0 * div - var * var,
        "triangle": 2.0 * var - dav,
        "split_triangle": 3.0 * var - dav - avg_gap,
        "divergence_split_residual": div - leakage - stealth,
        "divergence": div,
        "variational": var,
        "distance_to_average": dav,
        "leakage": leakage,
        "stealth": stealth,
    }
