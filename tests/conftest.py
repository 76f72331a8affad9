import numpy as np
import pytest

from groupoidalg import (
    FinitePrincipalBundle,
    Section,
    cyclic,
    gauge_groupoid,
    group_groupoid,
    lorentz_subgroupoid,
    pair_groupoid,
    prop1_equivalence,
    symmetric,
    translation_subgroupoid,
)
from groupoidalg.groups import group_from_table, group_to_table


def identity_translations(gauge, g1):
    """The identity matrix on each translation arrow: the unitary family of
    the identity section paired with the regular representation."""
    n = gauge.bundle.group.order
    return {a1: np.eye(n, dtype=complex) for a1 in g1.arrows}


def relabeled_group(G, rng):
    """G through a table file with its elements shuffled and the identity
    moved off index 0."""
    order = [int(i) for i in rng.permutation(G.order)]
    if order[0] == G.identity:
        order[0], order[-1] = order[-1], order[0]
    names = [G.elements[i] for i in order]
    table = group_to_table(G)
    mul = [[table["mul"][i][j] for j in order] for i in order]
    H = group_from_table({"elements": names, "mul": mul}, name=f"{G.name}-relabeled")
    assert H.order == 1 or H.identity != 0
    return H


@pytest.fixture(scope="session")
def fix_pair():
    return pair_groupoid(2)


@pytest.fixture(scope="session")
def fix_z3():
    return group_groupoid(cyclic(3))


@pytest.fixture(scope="session")
def bundle_2_z2():
    return FinitePrincipalBundle(2, cyclic(2))


@pytest.fixture(scope="session")
def bundle_3_s3():
    return FinitePrincipalBundle(3, symmetric(3))


@pytest.fixture(scope="session")
def fix_gauge_2_z2(bundle_2_z2):
    return gauge_groupoid(bundle_2_z2)


@pytest.fixture(scope="session")
def fix_gauge_3_s3(bundle_3_s3):
    return gauge_groupoid(bundle_3_s3)


@pytest.fixture(scope="session")
def decomposition_2_z2(bundle_2_z2, fix_gauge_2_z2):
    """Identity-section decomposition of the Z2 gauge fixture."""
    g0 = lorentz_subgroupoid(fix_gauge_2_z2)
    g1 = translation_subgroupoid(fix_gauge_2_z2, Section.identity(bundle_2_z2))
    return prop1_equivalence(fix_gauge_2_z2, g0, g1)


@pytest.fixture(scope="session")
def decomposition_3_s3(bundle_3_s3, fix_gauge_3_s3):
    g0 = lorentz_subgroupoid(fix_gauge_3_s3)
    g1 = translation_subgroupoid(fix_gauge_3_s3, Section.identity(bundle_3_s3))
    return prop1_equivalence(fix_gauge_3_s3, g0, g1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
