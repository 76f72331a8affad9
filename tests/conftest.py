import numpy as np
import pytest

from groupoidalg import (
    FiniteGroupoid,
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


# An order-5 loop, a quasigroup with identity 0 whose elements are their own
# inverses: its table is not associative, at 36 triples.
LOOP = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
Z5 = tuple(tuple((g + h) % 5 for h in range(5)) for g in range(5))  # a group of that order


def pair_times(n, mul):
    """The pair groupoid on n points times the table mul, a quasigroup with
    identity 0, with a dict compose table: arrow (y·k + g)·n + x is (y, g,
    x), and (y, g, z)∘(z, h, x) = (y, mul[g][h], x). A groupoid exactly
    when mul is a group's."""
    k = len(mul)
    triples = [(y, g, x) for y in range(n) for g in range(k) for x in range(n)]

    def at(y, g, x):
        return (y * k + g) * n + x

    comp = {(at(y, g, z), at(z, h, x)): at(y, mul[g][h], x)
            for y, g, z in triples for h in range(k) for x in range(n)}
    return FiniteGroupoid(
        n, tuple(x for _, _, x in triples), tuple(y for y, _, _ in triples), comp,
        tuple(at(x, mul[g].index(0), y) for y, g, x in triples),
        tuple(at(x, 0, x) for x in range(n)))


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
