"""Round-trip and fingerprint tests for the serialization layer."""

from __future__ import annotations

import json

import pytest

from repro.core.config import WorkStealingConfig, canonical_json, fingerprint_dict
from repro.errors import ConfigurationError, ReproError
from repro.uts.params import T3XS
from repro.ws.runner import run_uts


def _cfg(**kw) -> WorkStealingConfig:
    return WorkStealingConfig(tree=T3XS, nranks=8, **kw)


class TestConfigRoundTrip:
    def test_dict_round_trip_default(self):
        cfg = _cfg()
        again = WorkStealingConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.fingerprint() == cfg.fingerprint()

    def test_dict_round_trip_parameterised_strategies(self):
        cfg = _cfg(
            selector="skew[1.5]",
            steal_policy="frac[0.25]",
            allocation="8G",
            rng_backend="sha1",
            latency_model="uniform",
            chunk_size=7,
            trace=True,
        )
        again = WorkStealingConfig.from_dict(cfg.to_dict())
        assert again.selector.name == "skew[1.5]"
        assert again.steal_policy.name == "frac[0.25]"
        assert again.allocation.name == "8G"
        assert again.fingerprint() == cfg.fingerprint()

    def test_to_dict_is_json_safe(self):
        payload = json.loads(json.dumps(_cfg().to_dict()))
        assert WorkStealingConfig.from_dict(payload).fingerprint() == _cfg().fingerprint()

    def test_fingerprint_distinguishes_configs(self):
        assert _cfg().fingerprint() != _cfg(chunk_size=21).fingerprint()
        assert _cfg().fingerprint() != _cfg(seed=_cfg().seed + 1).fingerprint()

    def test_fingerprint_of_dict_and_object_agree(self):
        cfg = _cfg(selector="tofu")
        again = WorkStealingConfig.from_dict(cfg.to_dict())
        assert again.fingerprint() == cfg.fingerprint()
        assert fingerprint_dict(cfg.to_dict()) == cfg.fingerprint()

    def test_from_dict_rejects_unknown_keys(self):
        # ``event_trace_capacity`` was a field once; a dict that still
        # carries it fails like any other unknown key.
        for key, value in (("warp_factor", 9), ("event_trace_capacity", 0)):
            data = _cfg().to_dict()
            data[key] = value
            with pytest.raises(ConfigurationError, match=key):
                WorkStealingConfig.from_dict(data)

    @pytest.mark.parametrize(
        "tree", [5, {"name": "x", "bogus": 1}, {"name": "x"}, "T9"],
        ids=["int", "unknown-key", "missing-keys", "unknown-name"],
    )
    def test_from_dict_rejects_bad_trees(self, tree):
        data = _cfg().to_dict()
        data["tree"] = tree
        with pytest.raises(ConfigurationError):
            WorkStealingConfig.from_dict(data)

    def test_bad_input_type(self):
        with pytest.raises(ConfigurationError):
            WorkStealingConfig.from_dict(42)  # type: ignore[arg-type]

    def test_canonical_json_is_stable(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestRunResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return run_uts(_cfg(trace=True))

    def test_json_round_trip_preserves_metrics(self, result):
        again = type(result).from_json(result.to_json())
        assert again.total_nodes == result.total_nodes
        assert again.total_time == result.total_time
        assert again.steal_requests == result.steal_requests
        assert again.failed_steals == result.failed_steals
        assert (again.per_rank_nodes == result.per_rank_nodes).all()
        assert (again.per_rank_search_time == result.per_rank_search_time).all()
        assert again.label == result.label

    def test_trace_survives_round_trip(self, result):
        again = type(result).from_json(result.to_json())
        assert again.trace is not None
        assert again.trace.nranks == result.trace.nranks
        times, states = again.trace.transitions[0]
        ref_times, ref_states = result.trace.transitions[0]
        assert (times == ref_times).all()
        assert (states == ref_states).all()

    def test_sessions_survive_round_trip(self, result):
        again = type(result).from_json(result.to_json())
        assert again.sessions == result.sessions

    def test_untraced_round_trip(self):
        result = run_uts(_cfg())
        again = type(result).from_json(result.to_json())
        assert again.trace is None
        assert again.total_time == result.total_time

    def test_bad_json_raises_repro_error(self, result):
        with pytest.raises(ReproError):
            type(result).from_json("{not json")
        with pytest.raises(ReproError):
            type(result).from_dict({"no": "fields"})
