"""Protocol-variant shorthand grammar (registry kind ``"protocol"``).

The tournament harness and the bench grid name protocol
configurations with compact "+"-joined specs; this module owns the
grammar in both directions:

:func:`protocol_overrides`
    spec string -> :class:`~repro.core.config.WorkStealingConfig`
    override dict, e.g. ``"forward[3]+regions[8]"`` ->
    ``{"protocol": "forward", "forward_ttl": 3, "regions": 8}``.
:func:`protocol_tag`
    config -> canonical short tag (``"steal"``, ``"fwd2+reg8"``,
    ``"ll2:ring"``) — the stable row/label vocabulary of leaderboards.

Atoms (combine with ``+``; each may appear once):

======================  ==============================================
``steal``               baseline request/response stealing (no knobs)
``forward``             relay denied requests; ``forward[T]`` sets the
                        TTL (default 2)
``regions[R]``          R locality regions, region-first victim draws;
                        ``regions[R:A]`` also sets the per-session
                        intra-region attempt budget A
``lifelines[K]``        K lifeline partners; ``lifelines[K:G]`` also
                        picks graph G (``hypercube``, ``ring``,
                        ``regtree``)
======================  ==============================================

The grammar is registered under registry kind ``"protocol"`` (exact
name ``"steal"`` plus a pattern for everything else), so
``registry.available("protocol")`` documents it alongside the selector
and policy families.
"""

from __future__ import annotations

import re

from repro.core import registry
from repro.errors import RegistryError

__all__ = ["protocol_overrides", "protocol_tag"]

_FORWARD_RE = re.compile(r"^forward(?:\[(\d+)\])?$")
_REGIONS_RE = re.compile(r"^regions\[(\d+)(?::(\d+))?\]$")
_LIFELINES_RE = re.compile(r"^lifelines\[(\d+)(?::([a-z_]+))?\]$")


def _parse_atom(atom: str) -> dict:
    if atom == "steal":
        return {}
    m = _FORWARD_RE.match(atom)
    if m:
        out = {"protocol": "forward"}
        if m.group(1) is not None:
            out["forward_ttl"] = int(m.group(1))
        return out
    m = _REGIONS_RE.match(atom)
    if m:
        out = {"regions": int(m.group(1))}
        if m.group(2) is not None:
            out["region_attempts"] = int(m.group(2))
        return out
    m = _LIFELINES_RE.match(atom)
    if m:
        out = {"lifelines": int(m.group(1))}
        if m.group(2) is not None:
            out["lifeline_graph"] = m.group(2)
        return out
    raise RegistryError(
        f"unknown protocol atom {atom!r}; expected 'steal', 'forward[T]', "
        "'regions[R[:A]]' or 'lifelines[K[:G]]'"
    )


def protocol_overrides(spec: str) -> dict:
    """Parse a protocol spec into config override kwargs.

    ``"steal"`` is the identity (empty dict); atoms joined with ``+``
    merge, and repeating a config key (``"forward+forward[3]"``) is an
    error — specs stay canonical.
    """
    if not isinstance(spec, str) or not spec:
        raise RegistryError(f"protocol spec must be a non-empty string, got {spec!r}")
    overrides: dict = {}
    for atom in spec.split("+"):
        part = _parse_atom(atom)
        dup = overrides.keys() & part.keys()
        if dup:
            raise RegistryError(
                f"protocol spec {spec!r} sets {sorted(dup)} more than once"
            )
        overrides.update(part)
    return overrides


def protocol_tag(config) -> str:
    """Canonical short tag of ``config``'s protocol configuration.

    The empty (all-default) configuration tags as ``"steal"``; the tag
    mentions only non-default axes, so it is stable as new knobs grow.
    """
    parts = []
    if config.protocol == "forward":
        parts.append(f"fwd{config.forward_ttl}")
    if config.regions > 0:
        reg = f"reg{config.regions}"
        if config.region_attempts != 2:
            reg += f":{config.region_attempts}"
        parts.append(reg)
    if config.lifelines > 0:
        ll = f"ll{config.lifelines}"
        if config.lifeline_graph != "hypercube":
            ll += f":{config.lifeline_graph}"
        parts.append(ll)
    return "+".join(parts) if parts else "steal"


def _pattern_parser(spec: str):
    # Only specs shaped like the grammar resolve; anything else returns
    # None so other (future) patterns get a chance.
    if not re.match(r"^(steal|forward|regions|lifelines)", spec):
        return None
    return protocol_overrides(spec)


_PROTOCOLS = registry.registry_for("protocol")
_PROTOCOLS.register("steal", lambda: {})
_PROTOCOLS.register_pattern(
    "forward[T]+regions[R:A]+lifelines[K:G]", _pattern_parser
)
