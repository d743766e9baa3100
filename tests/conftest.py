"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from relbound.structures import ComponentRef, KOutOfN, Parallel, Series


def pytest_collection_modifyitems(items):
    """Run the acceptance suite after the module tests, keeping each group's order.

    The acceptance criteria take most of a full run's time, so the module
    tests report first, and a run cut short by a time limit still reports
    every one of them.
    """
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def random_tree(rng: np.random.Generator, s: int):
    """Random coherent tree in which each of the s components appears exactly once.

    The recursive evaluation of the structure function is exact only for
    single-occurrence trees, so the generators used by the equivalence tests
    partition the component set across children.
    """

    def build(ids):
        if len(ids) == 1:
            leaf = ComponentRef(ids[0])
            if rng.random() < 0.15:
                # occasional single-child wrapper to exercise those paths
                return Series((leaf,)) if rng.random() < 0.5 else Parallel((leaf,))
            return leaf
        n_groups = int(rng.integers(2, min(len(ids), 4) + 1))
        cuts = sorted(rng.choice(np.arange(1, len(ids)), size=n_groups - 1, replace=False))
        groups = np.split(np.array(ids), cuts)
        children = tuple(build(list(g)) for g in groups)
        kind = rng.integers(0, 3)
        if kind == 0:
            return Series(children)
        if kind == 1:
            return Parallel(children)
        k = int(rng.integers(1, len(children) + 1))
        return KOutOfN(k, children)

    ids = list(rng.permutation(s))
    node = build(ids)
    if isinstance(node, ComponentRef):
        node = Series((node,))
    return node
