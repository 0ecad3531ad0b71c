"""Deterministic config fingerprinting.

A fingerprint is the SHA-256 hash of the canonical JSON encoding of a
config's :meth:`~repro.core.config.WorkStealingConfig.to_dict` — keys
sorted, compact separators, UTF-8.  Two configs share a fingerprint iff
they describe the same simulation; because every seed lives inside the
config, a fingerprint also pins down the run's exact results.

The fingerprint is the key of batch deduplication in
:func:`repro.exec.run_many` and of the on-disk store
(:mod:`repro.exec.store`).  Invalidation on version bumps happens at
the store layer (results live under a per-version directory), so
fingerprints themselves stay stable across releases.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.config import (
    FINGERPRINT_DEFAULT_ELIDED,
    FINGERPRINT_EXCLUDED_FIELDS,
    WorkStealingConfig,
)
from repro.errors import ConfigurationError

__all__ = ["canonical_json", "config_fingerprint", "fingerprint_dict"]

_MISSING = object()


def canonical_json(data: dict) -> str:
    """Canonical (sorted-key, compact, ASCII-safe) JSON encoding."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint_dict(data: dict) -> str:
    """Hash an already-normalised ``to_dict()`` payload.

    Observability-only fields (``event_trace`` and friends — see
    :data:`~repro.core.config.FINGERPRINT_EXCLUDED_FIELDS`) are
    stripped before hashing, and protocol-physics fields holding their
    defaults (:data:`~repro.core.config.FINGERPRINT_DEFAULT_ELIDED`)
    are elided, so dict-built fingerprints agree with
    ``cfg.fingerprint()`` and with caches written before those fields
    existed.  Callers holding raw user dicts should use
    :func:`config_fingerprint`, which normalises through
    :class:`WorkStealingConfig` first.
    """
    data = {
        k: v for k, v in data.items()
        if k not in FINGERPRINT_EXCLUDED_FIELDS
        and FINGERPRINT_DEFAULT_ELIDED.get(k, _MISSING) != v
    }
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def config_fingerprint(config: WorkStealingConfig | dict) -> str:
    """Stable content hash of a run configuration.

    Accepts either a :class:`WorkStealingConfig` or an equivalent
    :meth:`to_dict` dictionary (what workers receive), and returns the
    same hash for both — ``cfg.fingerprint()`` is the method form.
    """
    if isinstance(config, WorkStealingConfig):
        data = config.to_dict()
    elif isinstance(config, dict):
        # Normalise through the config class so dict-built and
        # object-built fingerprints can never diverge.
        data = WorkStealingConfig.from_dict(config).to_dict()
    else:
        raise ConfigurationError(
            "config_fingerprint needs a WorkStealingConfig or dict, "
            f"got {type(config).__name__}"
        )
    return fingerprint_dict(data)
