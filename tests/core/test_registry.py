"""Tests for the strategy registry behind every string shorthand."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.config import WorkStealingConfig
from repro.core.registry import Registry
from repro.core.steal_policy import StealFraction, StealHalf
from repro.core.victim import (
    DistanceSkewedSelector,
    HierarchicalSelector,
    LatencySkewedSelector,
    PowerSkewedSelector,
    RoundRobinSelector,
)
from repro.errors import ConfigurationError
from repro.net.allocation import GroupedPacked, OnePerNode
from repro.select.adaptive import (
    AdaptiveStealPolicy,
    EpsilonGreedySelector,
    FailureBackoffSelector,
    SuccessRateSelector,
)
from repro.uts.params import T3XS
from repro.uts.rng import Sha1Backend


class TestRegistryClass:
    def test_register_and_resolve(self):
        reg = Registry("widget")
        reg.register("a", lambda: "made-a")
        assert reg.resolve("a") == "made-a"
        assert reg.available() == ["a"]

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("a", lambda: 1)
        with pytest.raises(ConfigurationError):
            reg.register("a", lambda: 2)
        assert reg.resolve("a") == 1

    def test_unknown_name_lists_valid_choices(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        reg.register("beta", lambda: 2)
        with pytest.raises(ConfigurationError) as exc:
            reg.resolve("gamma")
        message = str(exc.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message

    def test_pattern_fallback(self):
        reg = Registry("widget")
        reg.register_pattern(
            "x<n>", lambda name: int(name[1:]) if name.startswith("x") else None
        )
        assert reg.resolve("x42") == 42
        assert "x<n>" in reg.available()

    def test_bracket_pattern_casts_and_rejects(self):
        reg = Registry("widget")
        reg.register_bracket("w", "size", lambda v: ("w", v))
        reg.register_bracket("n", "count", lambda v: ("n", v), int)
        assert reg.available() == ["w[<size>]", "n[<count>]"]
        assert reg.resolve("w[1.5]") == ("w", 1.5)
        for text in ("n[3]", "n[3.0]"):
            value = reg.resolve(text)[1]
            assert value == 3 and type(value) is int
        for bad in ("w[]", "w[x]", "w[nan]", "w[-inf]", "n[2.5]", "n[inf]"):
            with pytest.raises(ConfigurationError, match="bad (size|count)"):
                reg.resolve(bad)
        with pytest.raises(ConfigurationError, match="unknown widget"):
            reg.resolve("w[1")

    def test_factory_kwargs_forwarded(self):
        reg = Registry("widget")
        reg.register("pair", lambda a, b=0: (a, b))
        assert reg.resolve("pair", a=1, b=2) == (1, 2)
        with pytest.raises(ConfigurationError):
            reg.resolve("pair", nope=3)


class TestGlobalRegistries:
    def test_all_strategy_kinds_registered(self):
        expected = {
            "allocation",
            "latency_model",
            "rng_backend",
            "selector",
            "steal_policy",
            "topology",
        }
        assert expected <= set(registry.available())

    def test_available_lists_paper_names(self):
        assert "reference" in registry.available("selector")
        assert "1/N" in registry.available("allocation")
        assert "one" in registry.available("steal_policy")
        assert "splitmix64" in registry.available("rng_backend")

    @pytest.mark.parametrize(
        "kind,name,cls",
        [
            ("selector", "reference", RoundRobinSelector),
            ("selector", "tofu", DistanceSkewedSelector),
            ("steal_policy", "half", StealHalf),
            ("steal_policy", "frac[0.25]", StealFraction),
            ("allocation", "1/N", OnePerNode),
            ("allocation", "8G", GroupedPacked),
            ("rng_backend", "sha1", Sha1Backend),
        ],
    )
    def test_resolve(self, kind, name, cls):
        obj = registry.resolve(kind, name)
        assert isinstance(obj, cls)
        assert registry.resolve(kind, obj.name).name == obj.name

    @pytest.mark.parametrize(
        "kind,name",
        [
            ("selector", "adapt-backoff[nan]"),  # was a bare ValueError
            ("steal_policy", "adaptive[inf]"),  # was a bare OverflowError
            ("selector", "skew[nan]"),  # was accepted: all-NaN weights
            ("selector", "latskew[nan]"),  # likewise
            ("steal_policy", "frac[nan]"),
            ("selector", "adapt-backoff[2.5]"),
        ],
    )
    def test_bad_bracket_parameter_is_a_configuration_error(self, kind, name):
        with pytest.raises(ConfigurationError):
            registry.resolve(kind, name)

    @pytest.mark.parametrize(
        "kind", ["selector", "steal_policy", "allocation", "rng_backend"]
    )
    def test_unknown_shorthand_names_choices(self, kind):
        with pytest.raises(ConfigurationError) as exc:
            registry.resolve(kind, "no-such-strategy")
        assert "valid choices" in str(exc.value)


class TestSingleResolutionPath:
    """``resolve``/``resolve_spec`` are the one documented way in."""

    def test_unknown_name_raises_registry_error(self):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError) as exc:
            registry.resolve("selector", "no-such-strategy")
        assert "valid choices" in str(exc.value)

    def test_registry_error_is_a_configuration_error(self):
        from repro.errors import RegistryError

        assert issubclass(RegistryError, ConfigurationError)

    def test_resolve_spec_passes_objects_through(self):
        selector = RoundRobinSelector()
        assert registry.resolve_spec("selector", selector) is selector

    def test_resolve_spec_resolves_strings(self):
        obj = registry.resolve_spec("steal_policy", "half")
        assert isinstance(obj, StealHalf)

    def test_config_resolution_goes_through_resolve_spec(self):
        from repro.core.config import WorkStealingConfig
        from repro.errors import RegistryError
        from repro.uts.params import T3XS

        cfg = WorkStealingConfig(tree=T3XS, nranks=4, selector="rand")
        assert not isinstance(cfg.selector, str)
        with pytest.raises(RegistryError):
            WorkStealingConfig(tree=T3XS, nranks=4, selector="bogus")


_FINITE = {"allow_nan": False, "allow_infinity": False}

#: Every bracket family: registry kind, constructor, the attribute the
#: parameter lands in, and the parameter's whole valid range (ints stop
#: at 2**53, past which the registry's float parse cannot be exact).
BRACKET_FAMILIES = {
    "skew": ("selector", PowerSkewedSelector, "alpha", st.floats(0, **_FINITE)),
    "latskew": ("selector", LatencySkewedSelector, "alpha", st.floats(0, **_FINITE)),
    "hier": ("selector", HierarchicalSelector, "p_near", st.floats(0, 1)),
    "adapt-eps": ("selector", EpsilonGreedySelector, "eps", st.floats(0, 1)),
    "adapt-sr": (
        "selector",
        SuccessRateSelector,
        "decay",
        st.floats(0, 1, exclude_min=True, exclude_max=True),
    ),
    "adapt-backoff": ("selector", FailureBackoffSelector, "fails", st.integers(1, 2**53)),
    "adaptive": (
        "steal_policy",
        AdaptiveStealPolicy,
        "escalate_after",
        st.integers(1, 2**53),
    ),
    "frac": ("steal_policy", StealFraction, "fraction", st.floats(0, 1, exclude_min=True)),
}


class TestBracketNames:
    """A parameterised name is the parameter, exactly: it is the
    fingerprint's and the store's key, and what ``run_many`` ships."""

    @pytest.mark.parametrize("prefix", sorted(BRACKET_FAMILIES))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_name_rebuilds_the_exact_parameter(self, prefix, data):
        kind, cls, attr, values = BRACKET_FAMILIES[prefix]
        value = data.draw(values)
        obj = cls(value)
        assert obj.name.startswith(f"{prefix}[")
        assert getattr(registry.resolve(kind, obj.name), attr) == value
        config = WorkStealingConfig(tree=T3XS, nranks=4, **{kind: obj})
        again = WorkStealingConfig.from_dict(config.to_dict())
        assert getattr(getattr(again, kind), attr) == value

    @pytest.mark.parametrize(
        "prefix,value,name",
        [
            ("skew", 2.0, "skew[2]"),
            ("hier", 0.9, "hier[0.9]"),
            ("frac", 0.25, "frac[0.25]"),
            ("adapt-backoff", 1_000_000, "adapt-backoff[1e+06]"),
            ("skew", 1.23456789, "skew[1.23456789]"),
            ("adapt-backoff", 1_234_567, "adapt-backoff[1234567]"),
        ],
    )
    def test_six_digits_when_they_suffice(self, prefix, value, name):
        assert Registry.bracket_name(prefix, value) == name

    def test_close_parameters_fingerprint_apart(self):
        a, b = (
            WorkStealingConfig(tree=T3XS, nranks=4, selector=PowerSkewedSelector(alpha))
            for alpha in (1.23456789, 1.2345701)
        )
        assert a.selector.name != b.selector.name
        assert a.fingerprint() != b.fingerprint()
