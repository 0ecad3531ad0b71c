"""Protocol config knobs: validation, fingerprint physics, elision.

The four new knobs are *physics* — they participate in fingerprints —
but default values are elided from the hashed payload, so every
fingerprint (and cached result) minted before the knobs existed is
still byte-identical.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import (
    FINGERPRINT_DEFAULT_ELIDED,
    WorkStealingConfig,
    fingerprint_dict,
)
from repro.errors import ConfigurationError
from repro.uts.params import T3XS


def _config(**kw) -> WorkStealingConfig:
    kw.setdefault("tree", T3XS)
    kw.setdefault("nranks", 16)
    return WorkStealingConfig(**kw)


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(protocol="gossip")

    def test_negative_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(forward_ttl=-1)

    def test_negative_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(regions=-1)

    def test_zero_region_attempts_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(region_attempts=0)

    def test_unknown_lifeline_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(lifeline_graph="torus")

    def test_forward_without_relays_rejected(self):
        # Byte-identical to the baseline under another fingerprint.
        with pytest.raises(ConfigurationError, match='protocol="steal"'):
            _config(protocol="forward", forward_ttl=0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(regions=4, region_attempts=1),
            dict(lifeline_graph="regtree"),
        ],
    )
    def test_valid_corners_accepted(self, kw):
        _config(**kw)


class TestFingerprintStability:
    def test_default_knobs_are_elided(self):
        """The hashed payload of a default config has no protocol keys
        — the backward-compatibility contract with pre-knob caches."""
        cfg = _config()
        data = cfg.to_dict()
        stripped = {
            k: v for k, v in data.items()
            if k not in FINGERPRINT_DEFAULT_ELIDED
        }
        assert fingerprint_dict(stripped) == cfg.fingerprint()

    def test_dict_and_object_fingerprints_agree(self):
        cfg = _config(protocol="forward", regions=4)
        again = WorkStealingConfig.from_dict(cfg.to_dict())
        assert again.fingerprint() == cfg.fingerprint()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(protocol="forward"),
            dict(forward_ttl=3),
            dict(regions=4),
            dict(region_attempts=1),
            dict(lifeline_graph="ring"),
        ],
    )
    def test_non_default_knob_changes_fingerprint(self, kw):
        assert _config(**kw).fingerprint() != _config().fingerprint()

    def test_knobs_round_trip_through_dict(self):
        cfg = _config(
            protocol="forward", forward_ttl=3, regions=4,
            region_attempts=1, lifelines=2, lifeline_graph="ring",
        )
        back = WorkStealingConfig.from_dict(cfg.to_dict())
        assert back.protocol == "forward"
        assert back.forward_ttl == 3
        assert back.regions == 4
        assert back.region_attempts == 1
        assert back.lifeline_graph == "ring"
        assert back.fingerprint() == cfg.fingerprint()

    def test_inert_knob_values_still_distinguish(self):
        # forward_ttl=3 with protocol="steal" is inert physics-wise but
        # fingerprints distinctly: a cache miss, never a wrong hit.
        assert _config(forward_ttl=3).fingerprint() != (
            _config().fingerprint()
        )

    def test_engine_knobs_stay_excluded(self):
        cfg = _config(protocol="forward", regions=4)
        assert (
            replace(cfg, engine="sharded", shards=4).fingerprint()
            == cfg.fingerprint()
        )
