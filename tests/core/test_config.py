"""Tests for the work-stealing run configuration."""

from __future__ import annotations

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from repro.core import registry
from repro.core.config import WorkStealingConfig, fingerprint_dict
from repro.core.steal_policy import StealHalf, StealOne
from repro.core.victim import DistanceSkewedSelector, RoundRobinSelector
from repro.errors import ConfigurationError
from repro.net.allocation import GroupedPacked, OnePerNode
from repro.net.latency import KComputerLatency, UniformLatency
from repro.uts.params import T3XS
from repro.uts.rng import SplitMix64Backend
from repro.ws.runner import run_uts


def _cfg(**kw) -> WorkStealingConfig:
    return WorkStealingConfig(tree=T3XS, nranks=8, **kw)


class TestDefaults:
    def test_paper_defaults(self):
        cfg = _cfg()
        assert cfg.chunk_size == 20  # the paper's default chunk size
        assert isinstance(cfg.selector, RoundRobinSelector)
        assert isinstance(cfg.steal_policy, StealOne)
        assert isinstance(cfg.allocation, OnePerNode)
        assert isinstance(cfg.latency_model, KComputerLatency)
        assert isinstance(cfg.rng_backend, SplitMix64Backend)
        assert cfg.compute_rounds == 1

    def test_string_resolution(self):
        cfg = _cfg(
            allocation="8G",
            selector="tofu",
            steal_policy="half",
            rng_backend="sha1",
        )
        assert isinstance(cfg.allocation, GroupedPacked)
        assert isinstance(cfg.selector, DistanceSkewedSelector)
        assert isinstance(cfg.steal_policy, StealHalf)
        assert cfg.rng_backend.name == "sha1"

    def test_tree_name_resolves_at_construction(self):
        by_name = WorkStealingConfig(tree="T3XS", nranks=4)
        assert by_name.tree is T3XS
        assert by_name.fingerprint() == WorkStealingConfig(tree=T3XS, nranks=4).fingerprint()
        assert run_uts(by_name).to_json() == run_uts(tree=T3XS, nranks=4).to_json()

    def test_numpy_integers_become_ints(self):
        cfg = WorkStealingConfig(
            tree=T3XS, nranks=np.int64(4), seed=np.uint32(7), chunk_size=np.int16(5)
        )
        assert [type(v) for v in (cfg.nranks, cfg.seed, cfg.chunk_size)] == [int] * 3
        plain = WorkStealingConfig(tree=T3XS, nranks=4, seed=7, chunk_size=5)
        assert cfg.fingerprint() == plain.fingerprint()

    def test_object_passthrough(self):
        sel = DistanceSkewedSelector()
        cfg = _cfg(selector=sel, latency_model=UniformLatency(1e-6))
        assert cfg.selector is sel
        assert isinstance(cfg.latency_model, UniformLatency)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("nranks", 0),
            ("chunk_size", 0),
            ("poll_interval", 0),
            ("node_time", 0.0),
            ("node_time", -1.0),
            ("compute_rounds", 0),
            ("steal_service_time", -1e-9),
            ("transfer_time_per_node", -1e-9),
            ("nic_service_time", -1e-9),
            ("clock_skew_std", -1e-9),
            ("node_cap", 0),
            # Non-finite timings: NaN passes ``< 0`` and used to
            # livelock a run or switch the NIC model off; inf returned
            # an infinite total time.
            *(
                (field, value)
                for field in (
                    "node_time",
                    "steal_service_time",
                    "transfer_time_per_node",
                    "nic_service_time",
                    "clock_skew_std",
                )
                for value in (math.nan, math.inf)
            ),
            # A tree that is not a TreeParams or a known name, and an
            # integer field given a float, a bool or a string.
            ("tree", 5),
            ("tree", None),
            ("tree", {"name": "T3XS"}),
            ("tree", "T9"),
            ("nranks", 4.0),
            ("nranks", True),
            ("chunk_size", 2.5),
            ("seed", "0"),
            ("regions", False),
            ("node_cap", 1e6),
            # The default latency model is hierarchical: Tofu only.
            ("topology_factory", "flat"),
        ],
    )
    def test_bad_values(self, field, value):
        kwargs = {"tree": T3XS, "nranks": 8, field: value}
        kwargs["nranks"] = kwargs.get("nranks", 8)
        if field == "nranks":
            kwargs["nranks"] = value
        with pytest.raises(ConfigurationError):
            WorkStealingConfig(**kwargs)

    def test_hierarchical_latency_needs_tofu(self):
        with pytest.raises(ConfigurationError, match="'tofu' topology"):
            _cfg(topology_factory="flat", latency_model="hierarchical")

    def test_bad_selector_string(self):
        with pytest.raises(ConfigurationError):
            _cfg(selector="nonexistent")


    def test_bad_policy_string(self):
        with pytest.raises(ConfigurationError):
            _cfg(steal_policy="everything")


class TestDerived:
    def test_per_node_time_scales_with_rounds(self):
        assert _cfg(compute_rounds=4).per_node_time == pytest.approx(
            4 * _cfg().per_node_time
        )

    def test_label(self):
        cfg = _cfg(selector="tofu", steal_policy="half", allocation="8G")
        assert cfg.label() == "tofu/half 8G x8 [T3XS]"

    def test_replace(self):
        cfg = _cfg()
        derived = cfg.replace(nranks=16, selector="rand")
        assert derived.nranks == 16
        assert derived.selector.name == "rand"
        assert cfg.nranks == 8  # original untouched

    def test_replace_validates(self):
        with pytest.raises(ConfigurationError):
            _cfg().replace(nranks=-1)

    def test_replace_keeps_resolved_strategy_objects(self):
        # replace() re-runs validation; already-resolved parameterised
        # strategies must survive it untouched, not be re-parsed.
        cfg = _cfg(selector="skew[1.5]", steal_policy="frac[0.25]", allocation="8G")
        derived = cfg.replace(nranks=16)
        assert derived.selector is cfg.selector
        assert derived.steal_policy is cfg.steal_policy
        assert derived.allocation is cfg.allocation
        assert derived.selector.name == "skew[1.5]"
        assert derived.fingerprint() != cfg.fingerprint()
        assert derived.replace(nranks=8).fingerprint() == cfg.fingerprint()

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            _cfg().replace(warp_factor=9)

    def test_label_without_name_raises_configuration_error(self):
        class Anonymous:
            pass

        cfg = _cfg()
        object.__setattr__(cfg, "selector", Anonymous())
        with pytest.raises(ConfigurationError):
            cfg.label()


#: A value for each parameter placeholder of a pattern entry in the
#: registry (``skew[<alpha>]`` and the like).
_PLACEHOLDER_VALUES = {
    "alpha": "1.5",
    "p_near": "0.75",
    "eps": "0.1",
    "decay": "0.9",
    "fails": "3",
    "fraction": "0.25",
}


def _concrete(kind: str) -> list[str]:
    """Every spec the registry lists for ``kind``, patterns instantiated."""
    return [
        re.sub(r"<(\w+)>", lambda m: _PLACEHOLDER_VALUES[m.group(1)], name)
        for name in registry.available(kind)
    ]


class _Unregistered(RoundRobinSelector):
    """The reference ring walk under a name the registry does not know."""

    name = "unregistered"


class TestIdentity:
    """A config is a value: frozen fields, an identity computed once."""

    def test_assigning_a_field_raises(self):
        cfg = _cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nranks = 16  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.selector = "rand"  # type: ignore[misc]
        assert cfg.nranks == 8 and cfg.selector.name == "reference"

    def test_unhashable(self):
        # Equality compares strategy objects; sets and dicts of configs
        # key them by fingerprint().
        assert WorkStealingConfig.__hash__ is None
        with pytest.raises(TypeError):
            hash(_cfg())

    @pytest.mark.parametrize(
        "field,spec",
        [("selector", s) for s in _concrete("selector")]
        + [("steal_policy", p) for p in _concrete("steal_policy")],
    )
    def test_fingerprint_is_the_payload_hash(self, field, spec):
        cfg = _cfg(**{field: spec})
        assert cfg.fingerprint() == fingerprint_dict(cfg.to_dict())
        assert cfg.payload == cfg.to_dict()

    def test_identity_is_computed_once(self):
        cfg = _cfg(selector="tofu", steal_policy="half")
        assert cfg.payload is cfg.payload
        assert cfg.fingerprint() is cfg.fingerprint()
        assert cfg.label() is cfg.label()

    def test_to_dict_is_fresh_and_mutating_it_changes_nothing(self):
        cfg = _cfg()
        fp = cfg.fingerprint()
        first, second = cfg.to_dict(), cfg.to_dict()
        assert first == second == cfg.payload
        assert first is not second and first is not cfg.payload
        assert first["tree"] is not cfg.payload["tree"]
        first["nranks"] = 99
        first["tree"]["name"] = "edited"
        first["latency_model"]["kind"] = "edited"
        assert cfg.fingerprint() == fp
        assert cfg.payload == cfg.to_dict() == second
        assert fingerprint_dict(cfg.to_dict()) == fp

    def test_replace_gets_its_own_identity(self):
        cfg = _cfg()
        fp, payload = cfg.fingerprint(), cfg.payload
        derived = cfg.replace(seed=1)
        assert derived.fingerprint() != fp
        assert derived.payload["seed"] == 1 and payload["seed"] == 0
        assert derived.label() == cfg.label()
        assert derived.replace(seed=0).fingerprint() == fp
        assert cfg.fingerprint() == fp

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_pickle_round_trip_keeps_the_fingerprint(self, warm):
        cfg = _cfg(selector="skew[1.5]", steal_policy="half", allocation="8G")
        if warm:
            cfg.fingerprint()
        again = pickle.loads(pickle.dumps(cfg))
        assert again.fingerprint() == cfg.fingerprint()
        assert again.to_dict() == cfg.to_dict()
        assert again.label() == cfg.label()

    def test_unaddressable_strategy_runs_but_never_serializes(self):
        cfg = _cfg(selector=_Unregistered())
        assert cfg.label() == "unregistered/one 1/N x8 [T3XS]"
        assert run_uts(cfg).total_time == run_uts(_cfg()).total_time
        # The failure is not kept: every attempt raises.
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="not name-addressable"):
                cfg.to_dict()
            with pytest.raises(ConfigurationError, match="not name-addressable"):
                cfg.payload
            with pytest.raises(ConfigurationError, match="not name-addressable"):
                cfg.fingerprint()
