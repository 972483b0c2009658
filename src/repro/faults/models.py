"""Fault models: which links and switches are down, and how to draw them.

A fault configuration is a :class:`FaultSet` — an immutable set of failed
*cables* (bidirectional inter-level links, identified by their up-link
index, so both directions fail together) and failed switches.  Three ways
to obtain one:

* deterministic seeded sampling (:func:`random_link_faults`,
  :func:`random_switch_faults`) — the workhorse of failure-rate sweeps;
* adversarial selection (:func:`worst_link_faults`): kill the most loaded
  cables of a routed pattern, found via
  :func:`repro.contention.link_load.link_flow_counts` — the worst case an
  oblivious (reconfiguration-free) scheme must survive;
* a :class:`FaultSchedule` of cumulative fault steps, for studying
  progressive degradation.

The sweep engine names fault configurations with a small spec DSL
(:func:`parse_fault_spec`)::

    none                          pristine topology
    links:rate=0.05,seed=3        5% of cables, seeded draw
    links:count=2,seed=1          exactly two cables
    switches:rate=0.1,seed=2      10% of inner switches
    switches:count=1,level=2      one switch, restricted to level 2
    worst-links:count=4           the 4 most loaded cables (adversarial)

All draws are reproducible: the same spec (plus an optional
``seed_offset`` supplied by the sweep's seed axis) always yields the same
:class:`FaultSet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.base import RouteTable

from ..topology import XGFT

__all__ = [
    "FaultSet",
    "FaultSchedule",
    "FaultSpec",
    "parse_fault_spec",
    "random_link_faults",
    "random_switch_faults",
    "worst_link_faults",
]


@dataclass(frozen=True)
class FaultSet:
    """An immutable set of failed cables and switches.

    Attributes
    ----------
    links:
        Failed cables as up-link indices in
        ``[0, topo.num_links_per_direction)``; a failed cable takes both
        its up and its down direction with it.
    switches:
        Failed inner switches as ``(level, node)`` with ``level >= 1``; a
        failed switch takes every adjacent cable with it.
    """

    links: frozenset[int] = frozenset()
    switches: frozenset[tuple[int, int]] = frozenset()

    @staticmethod
    def none() -> "FaultSet":
        """The empty fault set (pristine topology)."""
        return FaultSet()

    @property
    def is_empty(self) -> bool:
        return not self.links and not self.switches

    def union(self, other: "FaultSet") -> "FaultSet":
        """Combine two fault sets (both sets of failures apply)."""
        return FaultSet(self.links | other.links, self.switches | other.switches)

    def validate(self, topo: XGFT) -> None:
        """Raise ``ValueError`` unless every failure names a real element."""
        for link in self.links:
            if not 0 <= link < topo.num_links_per_direction:
                raise ValueError(
                    f"cable {link} out of range [0, {topo.num_links_per_direction})"
                )
        for level, node in self.switches:
            if not 1 <= level <= topo.h:
                raise ValueError(f"switch level {level} out of range [1, {topo.h}]")
            if not 0 <= node < topo.num_nodes(level):
                raise ValueError(
                    f"switch {node} out of range [0, {topo.num_nodes(level)}) "
                    f"at level {level}"
                )

    def describe(self, topo: XGFT) -> list[str]:
        """Human-readable failure list (stable order)."""
        out = [
            "cable level={} node={} port={}".format(*topo.describe_link(link)[1:])
            for link in sorted(self.links)
        ]
        out += [f"switch level={lvl} node={node}" for lvl, node in sorted(self.switches)]
        return out

    def __len__(self) -> int:
        return len(self.links) + len(self.switches)


class FaultSchedule:
    """A sequence of fault steps applied cumulatively.

    ``schedule.at(k)`` is the union of the first ``k + 1`` steps — the
    topology after the ``k``-th failure event.  Useful for progressive
    degradation studies where each step repairs on top of the previous
    state.
    """

    def __init__(self, steps: Iterable[FaultSet]):
        self.steps = tuple(steps)
        if not self.steps:
            raise ValueError("a fault schedule needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    def at(self, step: int) -> FaultSet:
        """Cumulative fault set after step ``step`` (0-based)."""
        if not 0 <= step < len(self.steps):
            raise ValueError(f"step {step} out of range [0, {len(self.steps)})")
        merged = FaultSet.none()
        for s in self.steps[: step + 1]:
            merged = merged.union(s)
        return merged

    def __iter__(self):
        return (self.at(k) for k in range(len(self.steps)))


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------
def _draw_count(total: int, rate: float | None, count: int | None, what: str) -> int:
    if (rate is None) == (count is None):
        raise ValueError(f"specify exactly one of rate= or count= for {what} faults")
    if count is not None:
        if not 0 <= count <= total:
            raise ValueError(f"count {count} out of range [0, {total}] for {what} faults")
        return int(count)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate {rate} out of range [0, 1) for {what} faults")
    return min(total, math.ceil(rate * total)) if rate > 0 else 0


def random_link_faults(
    topo: XGFT,
    rate: float | None = None,
    count: int | None = None,
    seed: int = 0,
) -> FaultSet:
    """Fail a seeded uniform sample of cables.

    ``rate`` fails ``ceil(rate * num_cables)`` cables (at least one for
    any positive rate); ``count`` fails exactly that many.  The draw is a
    deterministic function of ``(topo, rate-or-count, seed)``.
    """
    total = topo.num_links_per_direction
    k = _draw_count(total, rate, count, "link")
    if k == 0:
        return FaultSet.none()
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total, size=k, replace=False)
    return FaultSet(links=frozenset(int(c) for c in chosen))


def random_switch_faults(
    topo: XGFT,
    rate: float | None = None,
    count: int | None = None,
    seed: int = 0,
    level: int | None = None,
) -> FaultSet:
    """Fail a seeded uniform sample of inner switches.

    ``level`` restricts the candidate pool to one switch level
    (``1 <= level <= h``); by default every inner switch is a candidate.
    """
    if level is not None and not 1 <= level <= topo.h:
        raise ValueError(f"switch level {level} out of range [1, {topo.h}]")
    levels = (level,) if level is not None else tuple(range(1, topo.h + 1))
    candidates = [(lvl, node) for lvl in levels for node in range(topo.num_nodes(lvl))]
    k = _draw_count(len(candidates), rate, count, "switch")
    if k == 0:
        return FaultSet.none()
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=k, replace=False)
    return FaultSet(switches=frozenset(candidates[int(c)] for c in chosen))


def worst_link_faults(table: "RouteTable", count: int) -> FaultSet:
    """Adversarially fail the ``count`` most loaded cables of a routed batch.

    The load of a cable is the flow count over both its directions (via
    :func:`repro.contention.link_load.link_flow_counts`); ties break
    towards the lower cable index, so the selection is deterministic.
    This models the worst case for an oblivious scheme: an adversary who
    watches the routes and cuts exactly where they concentrate.
    """
    from ..contention.link_load import link_flow_counts

    topo = table.topo
    total = topo.num_links_per_direction
    if not 0 <= count <= total:
        raise ValueError(f"count {count} out of range [0, {total}]")
    if count == 0:
        return FaultSet.none()
    directed = link_flow_counts(table)
    per_cable = directed[:total] + directed[total:]
    order = np.lexsort((np.arange(total), -per_cable))
    return FaultSet(links=frozenset(int(c) for c in order[:count]))


# ----------------------------------------------------------------------
# The fault spec DSL
# ----------------------------------------------------------------------
_KIND_PARAMS = {
    "none": frozenset(),
    "links": frozenset({"rate", "count", "seed"}),
    "switches": frozenset({"rate", "count", "seed", "level"}),
    "worst-links": frozenset({"count"}),
}


@dataclass(frozen=True)
class FaultSpec:
    """A parsed fault specification (see :func:`parse_fault_spec`)."""

    kind: str
    rate: float | None = None
    count: int | None = None
    seed: int = 0
    level: int | None = None

    @property
    def needs_traffic(self) -> bool:
        """True iff realizing the spec requires a routed table (adversarial)."""
        return self.kind == "worst-links"

    def realize(
        self,
        topo: XGFT,
        table: "RouteTable | None" = None,
        seed_offset: int = 0,
    ) -> FaultSet:
        """Draw the concrete :class:`FaultSet` on ``topo``.

        ``seed_offset`` shifts the sampling seed for callers that want
        several draws from one spec (the sweep engine keeps it at 0 so
        every algorithm of a grid row faces the same degraded fabric);
        ``table`` supplies the traffic for adversarial specs.
        """
        if self.kind == "none":
            return FaultSet.none()
        if self.kind == "links":
            return random_link_faults(topo, self.rate, self.count, self.seed + seed_offset)
        if self.kind == "switches":
            return random_switch_faults(
                topo, self.rate, self.count, self.seed + seed_offset, self.level
            )
        if self.kind == "worst-links":
            if table is None:
                raise ValueError(
                    "worst-links faults are adversarial and need a routed table"
                )
            return worst_link_faults(table, self.count or 0)
        raise AssertionError(f"unreachable kind {self.kind!r}")  # pragma: no cover

    def canonical(self) -> str:
        """The normalized spec string (parse/format round-trip)."""
        if self.kind == "none":
            return "none"
        params = []
        if self.rate is not None:
            params.append(f"rate={self.rate:g}")
        if self.count is not None:
            params.append(f"count={self.count}")
        if self.kind in ("links", "switches") and self.seed:
            params.append(f"seed={self.seed}")
        if self.level is not None:
            params.append(f"level={self.level}")
        return f"{self.kind}:{','.join(params)}"


def parse_fault_spec(spec: str) -> FaultSpec:
    """Parse a fault spec string (module docstring) into a :class:`FaultSpec`.

    Raises ``ValueError`` on unknown kinds, unknown or malformed
    parameters, and on specs that could never be realized (e.g. ``links``
    with neither ``rate`` nor ``count``), and ``TypeError`` on a
    non-string spec.
    """
    if not isinstance(spec, str):
        raise TypeError(f"a fault spec must be a string, got {type(spec).__name__}")
    text = spec.strip().lower()
    kind, _, arglist = text.partition(":")
    kind = kind.strip()
    if kind not in _KIND_PARAMS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {spec!r}; "
            f"known: {', '.join(sorted(_KIND_PARAMS))}"
        )
    allowed = _KIND_PARAMS[kind]
    params: dict[str, float | int] = {}
    for item in filter(None, (s.strip() for s in arglist.split(","))):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in allowed:
            raise ValueError(
                f"malformed or unsupported parameter {item!r} for fault kind "
                f"{kind!r} in {spec!r}"
            )
        try:
            params[key] = float(value) if key == "rate" else int(value)
        except ValueError:
            raise ValueError(f"non-numeric value in {item!r} of {spec!r}") from None
    if kind == "none":
        return FaultSpec(kind="none")
    if kind == "worst-links":
        if "count" not in params:
            raise ValueError(f"worst-links needs count= in {spec!r}")
    elif ("rate" in params) == ("count" in params):
        raise ValueError(f"{kind} faults need exactly one of rate=/count= in {spec!r}")
    # bounds that need no topology are checked here so a sweep spec
    # fails at construction, not mid-sweep inside a worker process
    if "rate" in params and not 0.0 <= params["rate"] < 1.0:
        raise ValueError(f"rate {params['rate']} out of range [0, 1) in {spec!r}")
    if "count" in params and params["count"] < 0:
        raise ValueError(f"count must be >= 0 in {spec!r}")
    return FaultSpec(
        kind=kind,
        rate=params.get("rate"),
        count=int(params["count"]) if "count" in params else None,
        seed=int(params.get("seed", 0)),
        level=int(params["level"]) if "level" in params else None,
    )
