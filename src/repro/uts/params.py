"""Tree parameter sets for the UTS benchmark.

A :class:`TreeParams` value fully determines a tree: for a given RNG
backend, the same parameters always generate the same tree, node for
node.  The paper's evaluation uses two binomial trees, reproduced here
verbatim in :data:`T3XXL` and :data:`T3WL` (Table I of the paper) —
they are far too large to traverse in Python (2.8e9 and 1.57e11 nodes),
so the benchmark harness uses the *scaled* trees below, which keep the
binomial imbalance structure at 1e4—1e6 node sizes.

Binomial trees
--------------
The root has ``b0`` children.  Every other node has ``m`` children with
probability ``q`` and none with probability ``1 - q``.  With
``m * q < 1`` the process is subcritical: the expected size of the
subtree under each root child is ``1 / (1 - m*q)``, so the expected
tree size is ``1 + b0 / (1 - m*q)``.  The subtree-size distribution is
heavy-tailed, which is exactly what makes the workload unbalanced: some
root children die immediately, others expand into subtrees millions of
nodes deep.

Scaling strategy (documented in DESIGN.md): the paper's trees use
``q = 0.499995`` (expected subtree 1e5 nodes) and ``q = 0.4999995``
(1e6).  The scaled trees lower ``q`` so the expected subtree size — and
hence total work — shrinks while keeping ``m = 2`` and the same
root fan-out regime, preserving shape: imbalance, depth/size ratio, and
the need for load balancing during the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "TreeParams",
    "TREES",
    "tree_by_name",
    "T3XXL",
    "T3WL",
    "T3XS",
    "T3S",
    "T3M",
    "T3L",
    "T3XL",
    "T3H",
    "GEO_S",
    "GEO_M",
    "GEO_L",
    "HYB_S",
]

_TREE_TYPES = ("binomial", "geometric", "hybrid")
_GEO_SHAPES = ("linear", "fixed", "cyclic", "expdec")


@dataclass(frozen=True)
class TreeParams:
    """Complete description of a UTS tree.

    Parameters
    ----------
    name:
        Identifier used in reports and the experiment index.
    tree_type:
        ``"binomial"``, ``"geometric"`` or ``"hybrid"``.
    root_seed:
        Seed ``r`` of the root RNG state.
    b0:
        Root branching factor.  For geometric trees this is also the
        expected branching factor fed to the shape function.
    m, q:
        Binomial parameters: non-root nodes have ``m`` children with
        probability ``q``, else none.
    gen_mx:
        Depth limit for geometric (and the geometric phase of hybrid)
        trees; nodes at this depth are leaves.
    shape:
        Shape function of geometric trees: how the expected branching
        factor decays with depth (``linear``, ``fixed``, ``cyclic``,
        ``expdec``).
    shift:
        Hybrid trees: fraction of ``gen_mx`` below which generation is
        geometric, above which it is binomial.
    expected_size:
        Documented expected node count (for Table I style reporting);
        ``None`` when not published/derived.
    """

    name: str
    tree_type: str
    root_seed: int
    b0: int = 2000
    m: int = 2
    q: float = 0.2
    gen_mx: int = 6
    shape: str = "linear"
    shift: float = 0.5
    expected_size: float | None = None

    def __post_init__(self) -> None:
        if self.tree_type not in _TREE_TYPES:
            raise ConfigurationError(
                f"tree_type {self.tree_type!r} not in {_TREE_TYPES}"
            )
        if self.shape not in _GEO_SHAPES:
            raise ConfigurationError(f"shape {self.shape!r} not in {_GEO_SHAPES}")
        if self.b0 < 1:
            raise ConfigurationError(f"b0 must be >= 1, got {self.b0}")
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {self.q}")
        if self.tree_type == "binomial" and self.m * self.q >= 1.0:
            raise ConfigurationError(
                f"binomial tree must be subcritical: m*q = {self.m * self.q} >= 1"
            )
        if self.gen_mx < 1:
            raise ConfigurationError(f"gen_mx must be >= 1, got {self.gen_mx}")
        if not 0.0 < self.shift <= 1.0:
            raise ConfigurationError(f"shift must be in (0, 1], got {self.shift}")

    @property
    def expected_subtree_size(self) -> float:
        """Expected size of the subtree below one root child (binomial)."""
        if self.tree_type != "binomial":
            raise ConfigurationError(
                "expected_subtree_size is defined for binomial trees only"
            )
        return 1.0 / (1.0 - self.m * self.q)

    @property
    def analytic_expected_size(self) -> float:
        """Analytic expected total size for binomial trees."""
        return 1.0 + self.b0 * self.expected_subtree_size


# ----------------------------------------------------------------------
# Paper trees (Table I).  Kept for documentation and for Table I
# regeneration; never traversed by the test/bench suites.
# ----------------------------------------------------------------------

#: Paper Table I, small-scale experiments (Fig 2): 2 793 220 501 nodes.
T3XXL = TreeParams(
    name="T3XXL",
    tree_type="binomial",
    root_seed=316,
    b0=2000,
    m=2,
    q=0.499995,
    expected_size=2_793_220_501,
)

#: Paper Table I, large-scale experiments (Fig 3+): 157 063 495 159 nodes.
T3WL = TreeParams(
    name="T3WL",
    tree_type="binomial",
    root_seed=559,
    b0=2000,
    m=2,
    q=0.4999995,
    expected_size=157_063_495_159,
)

# ----------------------------------------------------------------------
# Scaled stand-ins used by the reproduction (see DESIGN.md §2).
# expected analytic sizes: 1 + b0 / (1 - 2q)
# ----------------------------------------------------------------------

#: Tiny tree for unit tests: ~4e3 nodes expected.
T3XS = TreeParams(
    name="T3XS",
    tree_type="binomial",
    root_seed=316,
    b0=200,
    m=2,
    q=0.475,
    expected_size=4_001,
)

#: Small-scale stand-in for T3XXL (Fig 2 band, 8—128 ranks): ~8e4 nodes.
T3S = TreeParams(
    name="T3S",
    tree_type="binomial",
    root_seed=316,
    b0=2000,
    m=2,
    q=0.4875,
    expected_size=80_001,
)

#: Mid-size tree: ~3.2e5 nodes expected.
T3M = TreeParams(
    name="T3M",
    tree_type="binomial",
    root_seed=42,
    b0=2000,
    m=2,
    q=0.496875,
    expected_size=320_001,
)

#: Large-scale stand-in for T3WL (Fig 3+ band, 64—512 ranks): ~6.4e5
#: nodes expected.  The root fan-out is doubled relative to T3XXL so
#: the tree's average width (total nodes / depth, the available
#: parallelism) stays well above the simulated rank counts, the same
#: regime the paper's 1.57e11-node tree gave its 1024—8192 processes.
T3L = TreeParams(
    name="T3L",
    tree_type="binomial",
    root_seed=559,
    b0=4000,
    m=2,
    q=0.496875,
    expected_size=640_001,
)

#: Extra-large stand-in for deep sweeps: ~1.28e6 nodes expected.
T3XL = TreeParams(
    name="T3XL",
    tree_type="binomial",
    root_seed=559,
    b0=8000,
    m=2,
    q=0.496875,
    expected_size=1_280_001,
)

#: Huge tree for the 4096+ rank band: ~2.56e7 nodes
#: expected, ~6e3 nodes per rank at 4096 — the work-per-rank regime the
#: 512-rank rungs could not reach (EXPERIMENTS.md "validity boundary").
T3H = TreeParams(
    name="T3H",
    tree_type="binomial",
    root_seed=559,
    b0=8000,
    m=2,
    q=0.49984375,
    expected_size=25_600_001,
)

#: Small geometric tree (UTS "GEO" family), linear shape.
GEO_S = TreeParams(
    name="GEO_S",
    tree_type="geometric",
    root_seed=29,
    b0=4,
    gen_mx=10,
    shape="linear",
)

#: Mid geometric tree, fixed shape.
GEO_M = TreeParams(
    name="GEO_M",
    tree_type="geometric",
    root_seed=7,
    b0=3,
    gen_mx=8,
    shape="fixed",
)

#: Large geometric tree (~1.3e5 nodes, depth 9): the shallow, wide
#: regime of the UTS GEO family — "billions of nodes with a depth in
#: the order of ten" at paper scale — the opposite balance profile of
#: the deep, spindly binomial trees the paper evaluates.
GEO_L = TreeParams(
    name="GEO_L",
    tree_type="geometric",
    root_seed=19,
    b0=4,
    gen_mx=9,
    shape="fixed",
)

#: Small hybrid tree: geometric top, binomial fringe.
HYB_S = TreeParams(
    name="HYB_S",
    tree_type="hybrid",
    root_seed=11,
    b0=4,
    m=2,
    q=0.45,
    gen_mx=8,
    shape="linear",
    shift=0.5,
)

#: Registry of all named trees.
TREES: dict[str, TreeParams] = {
    t.name: t
    for t in (
        T3XXL,
        T3WL,
        T3XS,
        T3S,
        T3M,
        T3L,
        T3XL,
        T3H,
        GEO_S,
        GEO_M,
        GEO_L,
        HYB_S,
    )
}


def tree_by_name(name: str) -> TreeParams:
    """Look up a named tree parameter set."""
    try:
        return TREES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown tree {name!r}; known: {sorted(TREES)}"
        ) from None
