"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.uts.params import T3XS, TreeParams
from repro.uts.rng import Sha1Backend, SplitMix64Backend


@pytest.fixture(params=["sha1", "splitmix64"])
def backend(request):
    """Run a test under both RNG backends."""
    return {"sha1": Sha1Backend, "splitmix64": SplitMix64Backend}[request.param]()


@pytest.fixture
def tiny_tree() -> TreeParams:
    """A few-thousand-node binomial tree, cheap enough for heavy loops."""
    return T3XS


@pytest.fixture
def micro_tree() -> TreeParams:
    """A few-hundred-node tree for tests that enumerate every node."""
    return TreeParams(
        name="MICRO", tree_type="binomial", root_seed=1, b0=20, m=2, q=0.40
    )


# ``--hypothesis-profile deep``: the engine == oracle and time-rescaling
# properties of ``tests/test_integration_properties.py`` at ten times
# their budgets (500 and 50 examples).
settings.register_profile("deep", max_examples=1000)
