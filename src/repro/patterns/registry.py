"""The traffic-pattern registry: every workload addressable by name.

Lifted out of the sweep engine's private ``resolve_pattern`` so that
patterns are a first-class component family like algorithms, topologies
and metrics: a builder ``(num_leaves, **params) -> Pattern`` registered
in :data:`PATTERNS` (a :class:`repro.registry.Registry`) and addressed
with the shared spec DSL::

    shift(d=3)              parameterized generator
    wrf(ranks=256)          application workload
    bit-reversal            bare name

The pre-registry hyphenated forms stay first-class aliases (``shift-3``,
``wrf-256``, ``tornado-4``, ``cg-transpose-128``) — sweep artifacts and
baselines keyed on them keep their identities verbatim.

Third parties extend the family by registration::

    @register_pattern("ring")
    def build_ring(num_leaves, hops=1):
        return Pattern.single_phase(
            [(i, (i + hops) % num_leaves) for i in range(num_leaves)],
            name=f"ring-{hops}", num_ranks=num_leaves,
        )

after which ``"ring"`` / ``"ring(hops=2)"`` work everywhere a pattern
name does: :class:`repro.api.Scenario`, sweep specs, the CLI.
"""

from __future__ import annotations

import numpy as np

from ..registry import Registry, parse_spec
from .applications import CG_PHASE_MESSAGE, cg_pattern, cg_transpose_exchange, wrf_pattern
from .base import Pattern, Phase
from .generators import (
    bit_complement,
    bit_reversal,
    neighbor_exchange,
    shift,
    tornado_groups,
    transpose,
)

__all__ = [
    "PATTERNS",
    "register_pattern",
    "resolve_pattern",
    "available_patterns",
]

#: the pattern registry: name -> ``builder(num_leaves, **params) -> Pattern``
PATTERNS: Registry = Registry("pattern")


def register_pattern(name: str, *, override: bool = False):
    """Decorator registering ``builder(num_leaves, **params) -> Pattern``."""
    return PATTERNS.register(name, override=override)


def available_patterns() -> tuple[str, ...]:
    """Registered pattern names."""
    return PATTERNS.names()


# ----------------------------------------------------------------------
# Built-in builders (the paper's synthetic + application workloads)
# ----------------------------------------------------------------------
@register_pattern("shift")
def _shift(num_leaves: int, d: int = 1) -> Pattern:
    return shift(num_leaves, d).pattern(name=f"shift-{d}")


@register_pattern("bit-reversal")
def _bit_reversal(num_leaves: int) -> Pattern:
    return bit_reversal(num_leaves).pattern(name="bit-reversal")


@register_pattern("bit-complement")
def _bit_complement(num_leaves: int) -> Pattern:
    return bit_complement(num_leaves).pattern(name="bit-complement")


@register_pattern("transpose")
def _transpose(num_leaves: int) -> Pattern:
    side = int(round(num_leaves**0.5))
    if side * side != num_leaves:
        raise ValueError(f"transpose needs a square leaf count, got {num_leaves}")
    return transpose(side, side).pattern(name="transpose")


@register_pattern("tornado")
def _tornado(num_leaves: int, groups: int | None = None) -> Pattern:
    if groups is None:
        raise ValueError(
            "tornado needs a group count: 'tornado(groups=4)' or 'tornado-4'"
        )
    return tornado_groups(num_leaves, groups).pattern(name=f"tornado-{groups}")


@register_pattern("neighbor")
def _neighbor(num_leaves: int, d: int = 1) -> Pattern:
    return Pattern.single_phase(
        neighbor_exchange(num_leaves, d), name=f"neighbor-{d}", num_ranks=num_leaves
    )


@register_pattern("all-pairs")
def _all_pairs(num_leaves: int) -> Pattern:
    src, dst = np.divmod(np.arange(num_leaves * num_leaves, dtype=np.int64), num_leaves)
    keep = src != dst
    phase = Phase(src[keep], dst[keep], np.ones(int(keep.sum()), dtype=np.int64), "all-pairs")
    return Pattern((phase,), name="all-pairs", num_ranks=num_leaves)


@register_pattern("wrf")
def _wrf(num_leaves: int, ranks: int = 256) -> Pattern:
    return wrf_pattern(ranks)


@register_pattern("cg")
def _cg(num_leaves: int, ranks: int = 128) -> Pattern:
    return cg_pattern(ranks)


@register_pattern("cg-transpose")
def _cg_transpose(num_leaves: int, ranks: int = 128) -> Pattern:
    return Pattern.single_phase(
        cg_transpose_exchange(ranks),
        size=CG_PHASE_MESSAGE,
        name=f"cg-transpose-{ranks}",
        num_ranks=ranks,
    )


# legacy hyphen-suffix aliases: ``head-N`` maps N onto this parameter
_LEGACY_SUFFIX_PARAM = {
    "shift": "d",
    "tornado": "groups",
    "neighbor": "d",
    "wrf": "ranks",
    "cg": "ranks",
    "cg-transpose": "ranks",
}


def _parse_pattern_spec(key: str) -> tuple[str, dict]:
    """Spec-DSL parse plus the pre-registry hyphenated aliases."""
    if "(" in key:
        return parse_spec(key)
    if key in PATTERNS:
        return key, {}
    # longest-registered-prefix match so ``cg-transpose-128`` resolves to
    # ``cg-transpose`` rather than ``cg``
    for head in sorted(_LEGACY_SUFFIX_PARAM, key=len, reverse=True):
        if key.startswith(head + "-") and key[len(head) + 1 :].isdigit():
            return head, {_LEGACY_SUFFIX_PARAM[head]: int(key[len(head) + 1 :])}
    return key, {}


def resolve_pattern(spec: str | Pattern, num_leaves: int) -> Pattern:
    """Instantiate a pattern by spec for a machine of ``num_leaves``.

    Accepts a live :class:`Pattern` (returned as-is after the fit
    check), a registered name, a parameterized spec (``shift(d=3)``) or
    a legacy hyphenated alias (``shift-3``, ``wrf-256``).  Application
    patterns carry their own rank count and must fit on the topology;
    synthetic generators scale with the machine.
    """
    if isinstance(spec, Pattern):
        pattern = spec
    else:
        key = str(spec).lower().strip()
        name, kwargs = _parse_pattern_spec(key)
        pattern = PATTERNS.get(name)(num_leaves, **kwargs)
    if pattern.num_ranks > num_leaves:
        raise ValueError(
            f"pattern {getattr(spec, 'name', spec)!r} needs {pattern.num_ranks} "
            f"ranks but the topology only has {num_leaves} leaves"
        )
    return pattern
