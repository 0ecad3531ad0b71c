"""Central name -> strategy registry.

Every string shorthand the repro package accepts — victim selectors,
steal policies, process allocations, RNG backends, latency models,
topology factories — resolves through one mechanism defined here.  A
:class:`Registry` maps canonical names (and aliases) to factories, and
optionally *patterns* (``"skew[<alpha>]"``, ``"<base>@x<dilation>"``)
to parser functions for parameterised shorthands.

The strategy modules create one registry each at import time and keep
their historical ``*_by_name`` functions as thin wrappers; new code
and the serialization layer (:mod:`repro.exec`) go through
:func:`resolve` directly::

    from repro.core import registry

    selector = registry.resolve("selector", "tofu")
    registry.available("selector")       # all valid selector names
    registry.register("selector", "mine", MySelector)

:func:`resolve` (and its object-tolerant sibling :func:`resolve_spec`)
is the **single resolution path** of the package: the config layer
(``WorkStealingConfig.__post_init__``), the one-shot runner
(:func:`repro.ws.runner.run_uts` via the config), the bench harness
and the simulation service (:mod:`repro.service`) all funnel string
shorthands through it.  Unknown names always raise
:class:`~repro.errors.RegistryError` (a
:class:`~repro.errors.ConfigurationError` subclass) listing the valid
choices, never a bare ``KeyError``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.errors import RegistryError

__all__ = [
    "Registry",
    "registry_for",
    "register",
    "resolve",
    "resolve_spec",
    "available",
    "kinds",
]


class Registry:
    """One named family of strategies (e.g. all victim selectors).

    Parameters
    ----------
    kind:
        Human-readable family name used in error messages and as the
        key of the global registry table (``"selector"``,
        ``"steal_policy"``, ...).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, Callable[[], object]] = {}
        self._canonical: list[str] = []
        self._patterns: list[tuple[str, Callable[[str], object | None]]] = []

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Callable[[], object],
        *aliases: str,
        overwrite: bool = False,
    ) -> None:
        """Bind ``name`` (and ``aliases``) to a zero-argument factory.

        ``factory`` may be a class or any callable returning the
        strategy object.  Re-registering an existing name raises unless
        ``overwrite=True``.
        """
        for alias in (name, *aliases):
            if alias in self._entries and not overwrite:
                raise RegistryError(
                    f"{self.kind} {alias!r} is already registered"
                )
            self._entries[alias] = factory
        if name not in self._canonical:
            self._canonical.append(name)

    def register_pattern(
        self, template: str, parser: Callable[[str], object | None]
    ) -> None:
        """Bind a parameterised shorthand, e.g. ``"skew[<alpha>]"``.

        ``parser(name)`` returns the strategy object when ``name``
        matches the pattern, ``None`` when it does not, and raises
        :class:`~repro.errors.RegistryError` when it matches but carries bad
        parameters (``"skew[abc]"``).
        """
        self._patterns.append((template, parser))

    def register_bracket(
        self,
        prefix: str,
        param: str,
        constructor: Callable[[float], object],
        cast: type = float,
    ) -> None:
        """Bind ``"<prefix>[<param>]"`` to ``constructor(cast(value))``.

        The bracketed text must be one finite number — integral when
        ``cast`` is ``int`` (``"3"`` and ``"3.0"`` both are) — or the
        name is rejected with :class:`~repro.errors.RegistryError`;
        range checks stay with the constructor, which names its object
        with :meth:`bracket_name`.
        """

        def parser(name: str) -> object | None:
            if not (name.startswith(prefix + "[") and name.endswith("]")):
                return None
            try:
                value = float(name[len(prefix) + 1 : -1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value) or (cast is int and value % 1):
                raise RegistryError(
                    f"bad {param} in {self.kind} {name!r}: expected "
                    f"{'an integer' if cast is int else 'a finite number'}"
                )
            return constructor(cast(value))

        self.register_pattern(f"{prefix}[<{param}>]", parser)

    @staticmethod
    def bracket_name(prefix: str, value: float) -> str:
        """``"<prefix>[<value>]"``, which :meth:`register_bracket`
        parses back to exactly ``value``.

        The number is written ``:g`` when those six significant digits
        read back as ``value`` (so every name that already round-tripped
        keeps its bytes), else in full: ``d`` for an int, the shortest
        round-trip ``repr`` for a float — ``skew[1.23456789]``, not
        ``skew[1.23457]``, which would name a different selector.
        """
        text = f"{value:g}"
        if float(text) != value:
            text = f"{value:d}" if isinstance(value, int) else repr(float(value))
        return f"{prefix}[{text}]"

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def resolve(self, name: str, **kwargs) -> object:
        """Instantiate the strategy registered under ``name``.

        Exact names win over patterns.  ``kwargs`` are forwarded to the
        factory (used by parameterised families such as latency-model
        specs); most factories take none.  Unknown names raise
        :class:`~repro.errors.RegistryError` listing every valid choice.
        """
        if not isinstance(name, str):
            raise RegistryError(
                f"{self.kind} name must be a string, got {type(name).__name__}"
            )
        factory = self._entries.get(name)
        if factory is not None:
            try:
                return factory(**kwargs)
            except TypeError as exc:
                raise RegistryError(
                    f"bad parameters for {self.kind} {name!r}: {exc}"
                ) from None
        if not kwargs:
            for _, parser in self._patterns:
                obj = parser(name)
                if obj is not None:
                    return obj
        raise RegistryError(
            f"unknown {self.kind} {name!r}; valid choices: {self._choices()}"
        )

    def available(self) -> list[str]:
        """Canonical names in registration order, then pattern templates."""
        return [*self._canonical, *(t for t, _ in self._patterns)]

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except RegistryError:
            return False
        return True

    def _choices(self) -> str:
        names: Iterable[str] = sorted(set(self._entries))
        parts = [repr(n) for n in names]
        parts.extend(repr(t) for t, _ in self._patterns)
        return ", ".join(parts) if parts else "(none registered)"


# ----------------------------------------------------------------------
# Global registry-of-registries
# ----------------------------------------------------------------------

_REGISTRIES: dict[str, Registry] = {}


def registry_for(kind: str) -> Registry:
    """Return (creating on first use) the registry for ``kind``."""
    try:
        return _REGISTRIES[kind]
    except KeyError:
        reg = Registry(kind)
        _REGISTRIES[kind] = reg
        return reg


def register(
    kind: str,
    name: str,
    factory: Callable[[], object],
    *aliases: str,
    overwrite: bool = False,
) -> None:
    """Register ``factory`` under ``name`` in the ``kind`` registry."""
    registry_for(kind).register(name, factory, *aliases, overwrite=overwrite)


def resolve(kind: str, name: str, **kwargs) -> object:
    """Resolve ``name`` within ``kind``; raises ``RegistryError``."""
    if kind not in _REGISTRIES:
        raise RegistryError(
            f"unknown strategy kind {kind!r}; known kinds: {sorted(_REGISTRIES)}"
        )
    return _REGISTRIES[kind].resolve(name, **kwargs)


def resolve_spec(kind: str, spec: object, **kwargs) -> object:
    """Resolve ``spec`` when it is a string name, pass it through otherwise.

    This is the one entry point for every API that accepts
    "string-or-object" strategy specs (config fields, ``run_uts``
    keyword arguments, bench sweeps, service submissions): strings go
    through :func:`resolve` — raising :class:`~repro.errors.RegistryError`
    with the valid choices on a miss — and already-resolved strategy
    objects are returned unchanged.
    """
    if isinstance(spec, str):
        return resolve(kind, spec, **kwargs)
    return spec


def available(kind: str | None = None) -> list[str] | dict[str, list[str]]:
    """Valid names for ``kind``, or ``{kind: names}`` for all kinds."""
    if kind is None:
        return {k: reg.available() for k, reg in sorted(_REGISTRIES.items())}
    if kind not in _REGISTRIES:
        raise RegistryError(
            f"unknown strategy kind {kind!r}; known kinds: {sorted(_REGISTRIES)}"
        )
    return _REGISTRIES[kind].available()


def kinds() -> list[str]:
    """All registered strategy kinds."""
    return sorted(_REGISTRIES)
