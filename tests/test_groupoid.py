import ast
import dataclasses
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg import (
    FiniteGroupoid,
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    Section,
    cyclic,
    gauge_groupoid,
    group_groupoid,
    groupoid_convolve,
    isotropy_subgroupoid,
    pair_groupoid,
    quotient_by_isotropy,
    selection_to_groupoid,
    semidirect_product,
    subgroupoid_properties,
    symmetric,
    translation_subgroupoid,
    validate_groupoid,
)
from groupoidalg import gauge as gauge_mod
from groupoidalg import groupoid as groupoid_mod
from groupoidalg import io as gio
from groupoidalg.errors import PreconditionError
from groupoidalg.groupoid import (
    AXIOM_ASSOCIATIVITY,
    AXIOM_IDENTITY,
    AXIOM_INVERSE,
    AXIOM_SOURCE_TARGET,
    SubgroupoidSelection,
    check_structure,
)
from groupoidalg.morphism import find_isomorphism, verify_morphism
from conftest import LOOP, pair_times
from star_oracle import NO_STAR
from validation_oracle import oracle_check_structure, oracle_validate_groupoid


def with_fields(g, **kwargs):
    return dataclasses.replace(g, **kwargs)


def arrow_by_label(g, label):
    return g.arrow_labels.index(label)


class TestValidation:
    def test_fixtures_valid(self, fix_pair, fix_z3, fix_gauge_2_z2, fix_gauge_3_s3):
        for g in (fix_pair, fix_z3, fix_gauge_2_z2, fix_gauge_3_s3):
            assert validate_groupoid(g).ok

    def test_corrupt_inverse_cites_inverse_axiom(self, fix_pair):
        a = arrow_by_label(fix_pair, "(0,1)")
        inv = list(fix_pair.inv)
        inv[a] = a  # (0,1) is not its own inverse
        bad = with_fields(fix_pair, inv=tuple(inv))
        report = validate_groupoid(bad)
        assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert not report.ok
        assert AXIOM_INVERSE in report.axioms_cited()
        assert any(a in v.witness for v in report.violations)

    def test_corrupt_compose_cites_identity_axiom(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        # break eps(r(gamma)) ∘ gamma for one non-identity arrow
        gamma = next(a for a in g.arrows() if not g.is_identity(a))
        e = g.identity[g.tgt[gamma]]
        other = next(
            a
            for a in g.arrows()
            if a != gamma and g.src[a] == g.src[gamma] and g.tgt[a] == g.tgt[gamma]
        )
        comp = dict(g.compose_table)
        comp[(e, gamma)] = other
        bad = with_fields(g, compose_table=comp)
        report = validate_groupoid(bad)
        assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert not report.ok
        assert AXIOM_IDENTITY in report.axioms_cited()

    def test_corrupt_endpoints_cites_source_target(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        (a, b), c = next(
            ((p, q), r)
            for (p, q), r in g.compose_table.items()
            if not g.is_identity(p) and not g.is_identity(q)
        )
        wrong = next(
            r2
            for r2 in g.arrows()
            if g.src[r2] != g.src[c] or g.tgt[r2] != g.tgt[c]
        )
        comp = dict(g.compose_table)
        comp[(a, b)] = wrong
        bad = with_fields(g, compose_table=comp)
        report = validate_groupoid(bad)
        assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert not report.ok
        assert AXIOM_SOURCE_TARGET in report.axioms_cited()

    def test_corrupt_product_cites_associativity(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        # swap a non-identity product for a parallel arrow; endpoints stay
        # consistent so the defect is associativity (or the identity law)
        (a, b), c = next(
            ((p, q), r)
            for (p, q), r in g.compose_table.items()
            if not g.is_identity(p) and not g.is_identity(q) and not g.is_identity(r)
        )
        other = next(
            r2
            for r2 in g.arrows()
            if r2 != c and g.src[r2] == g.src[c] and g.tgt[r2] == g.tgt[c]
        )
        comp = dict(g.compose_table)
        comp[(a, b)] = other
        bad = with_fields(g, compose_table=comp)
        report = validate_groupoid(bad)
        assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert not report.ok
        assert report.axioms_cited() & {AXIOM_ASSOCIATIVITY, AXIOM_IDENTITY, AXIOM_INVERSE}

    def test_malformed_entry_is_not_axiom_violation(self, fix_pair):
        g = fix_pair
        a, b = next(
            (p, q)
            for p in g.arrows()
            for q in g.arrows()
            if not g.composable(p, q)
        )
        comp = dict(g.compose_table)
        comp[(a, b)] = 0
        bad = with_fields(g, compose_table=comp)
        report = validate_groupoid(bad)
        assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert not report.ok
        assert all(v.kind == "malformed" for v in report.violations)

    def test_inverse_involution_and_antihomomorphism(self, fix_gauge_3_s3):
        g = fix_gauge_3_s3
        for a in g.arrows():
            assert g.inv[g.inv[a]] == a
        for (a, b), c in g.compose_table.items():
            assert g.compose_table[(g.inv[b], g.inv[a])] == g.inv[c]


class TestSubgroupoids:
    def test_pair_isotropy_is_identities(self, fix_pair):
        iso = isotropy_subgroupoid(fix_pair)
        assert iso.arrows == frozenset(fix_pair.identity)

    def test_z3_isotropy_is_everything(self, fix_z3):
        assert isotropy_subgroupoid(fix_z3).arrows == frozenset(fix_z3.arrows())

    def test_gauge_isotropy(self, fix_gauge_2_z2):
        iso = isotropy_subgroupoid(fix_gauge_2_z2)
        assert len(iso.arrows) == 4
        assert all(
            fix_gauge_2_z2.src[a] == fix_gauge_2_z2.tgt[a] for a in iso.arrows
        )

    def test_isotropy_properties(self, fix_gauge_2_z2):
        iso = isotropy_subgroupoid(fix_gauge_2_z2)
        props = subgroupoid_properties(fix_gauge_2_z2, iso)
        assert props == {"is_wide": True, "is_transitive": False, "is_closed": True}

    def test_full_selection_properties(self, fix_pair):
        sel = SubgroupoidSelection(fix_pair, frozenset(fix_pair.arrows()))
        props = subgroupoid_properties(fix_pair, sel)
        assert props == {"is_wide": True, "is_transitive": True, "is_closed": True}

    def test_selection_must_be_subset(self, fix_pair, fix_z3):
        sel = SubgroupoidSelection(fix_pair, frozenset({99}))
        with pytest.raises(PreconditionError):
            subgroupoid_properties(fix_pair, sel)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["pair", "S3", "gauge-2Z2", "gauge-3S3"]), data=st.data())
    def test_properties_equal_loops(self, family, data):
        """subgroupoid_properties against loops over the definitions, on
        random selections closed under inverses and identities, so that
        closure under composition decides is_closed."""
        g = {
            "pair": lambda: pair_groupoid(3),
            "S3": lambda: group_groupoid(symmetric(3)),
            "gauge-2Z2": lambda: gauge_groupoid(FinitePrincipalBundle(2, cyclic(2))),
            "gauge-3S3": lambda: gauge_groupoid(FinitePrincipalBundle(3, symmetric(3))),
        }[family]()
        picked = data.draw(st.sets(st.sampled_from(list(g.arrows())), max_size=12))
        arrows = set(picked) | {g.inv[a] for a in picked}
        base = {g.src[a] for a in arrows} | {g.tgt[a] for a in arrows}
        arrows |= {g.identity[x] for x in base}
        pairs = [(a, b) for a in arrows for b in arrows if g.src[a] == g.tgt[b]]
        closed = all(g.compose_table[p] in arrows for p in pairs)
        ends = {(g.tgt[a], g.src[a]) for a in arrows}
        assert subgroupoid_properties(g, SubgroupoidSelection(g, frozenset(arrows))) == {
            "is_wide": base == set(g.base()),
            "is_transitive": len(ends) == g.n_base**2,
            "is_closed": closed,
        }

    def test_selection_to_groupoid_valid(self, fix_gauge_2_z2):
        iso = isotropy_subgroupoid(fix_gauge_2_z2)
        sub, incl = selection_to_groupoid(iso)
        assert validate_groupoid(sub).ok
        assert verify_morphism(incl).ok

    def test_non_closed_selection_rejected(self, fix_z3):
        gen = next(a for a in fix_z3.arrows() if not fix_z3.is_identity(a))
        sel = SubgroupoidSelection(fix_z3, frozenset({gen}))
        with pytest.raises(PreconditionError):
            selection_to_groupoid(sel)


def assert_unstable_witness(g, sel, exc):
    """exc names a pair (γ, a) with a in sel at src γ and γ∘a∘γ⁻¹ not in sel."""
    head = "selection is not conjugation-stable: witness arrows "
    assert str(exc).startswith(head)
    named = {f"({g.arrow_label(c)}, {g.arrow_label(a)})": (c, a)
             for c in g.arrows() for a in g.arrows()}
    gamma, a = named[str(exc)[len(head):]]
    assert a in sel.arrows and g.src[a] == g.tgt[a] == g.src[gamma]
    table = g.compose_table
    assert table[(table[(gamma, a)], g.inv[gamma])] not in sel.arrows


class TestQuotient:
    def test_gauge_quotient_is_pair_groupoid(self, fix_gauge_2_z2):
        iso = isotropy_subgroupoid(fix_gauge_2_z2)
        q, rho = quotient_by_isotropy(fix_gauge_2_z2, iso)
        assert q.n_arrows == 4
        assert validate_groupoid(q).ok
        assert verify_morphism(rho).ok
        assert find_isomorphism(q, pair_groupoid(2)) is not None

    def test_pair_quotient_is_identity(self, fix_pair):
        iso = isotropy_subgroupoid(fix_pair)
        q, rho = quotient_by_isotropy(fix_pair, iso)
        assert q.n_arrows == fix_pair.n_arrows
        assert find_isomorphism(q, fix_pair) is not None

    def test_z3_quotient_collapses(self, fix_z3):
        iso = isotropy_subgroupoid(fix_z3)
        q, rho = quotient_by_isotropy(fix_z3, iso)
        assert q.n_arrows == 1
        assert validate_groupoid(q).ok

    def test_s3_gauge_quotient(self, fix_gauge_3_s3):
        iso = isotropy_subgroupoid(fix_gauge_3_s3)
        q, rho = quotient_by_isotropy(fix_gauge_3_s3, iso)
        assert q.n_arrows == 9
        assert validate_groupoid(q).ok
        assert verify_morphism(rho).ok
        assert find_isomorphism(q, pair_groupoid(3)) is not None

    def test_projection_surjective(self, fix_gauge_2_z2):
        iso = isotropy_subgroupoid(fix_gauge_2_z2)
        q, rho = quotient_by_isotropy(fix_gauge_2_z2, iso)
        assert set(rho.arrow_map) == set(q.arrows())

    def test_non_normal_selection_rejected(self):
        s3 = group_groupoid(symmetric(3))
        # subgroup generated by one transposition is not normal in S3
        swap = next(
            a
            for a in s3.arrows()
            if not s3.is_identity(a) and s3.compose_table[(a, a)] == s3.identity[0]
        )
        sel = SubgroupoidSelection(s3, frozenset({s3.identity[0], swap}))
        with pytest.raises(PreconditionError):
            quotient_by_isotropy(s3, sel)

    def test_arrow_in_no_orbit(self, fix_gauge_2_z2):
        """With e∘(0,e,1) redirected to (0,a,1), the orbit of (0,e,1) misses
        (0,e,1) itself: the table is no groupoid's, and the star coordinates
        the quotient reads its classes off do not exist."""
        g = fix_gauge_2_z2
        e0, gamma, other = (arrow_by_label(g, s) for s in ("(0,e,0)", "(0,e,1)", "(0,a,1)"))
        comp = dict(g.compose_table)
        comp[(e0, gamma)] = other
        bad = with_fields(g, compose_table=comp)
        with pytest.raises(PreconditionError, match=f"^{re.escape(NO_STAR)}$"):
            quotient_by_isotropy(bad, isotropy_subgroupoid(bad))

    def test_orbit_structure_inconsistent(self, fix_gauge_2_z2):
        """With (0,a,0)∘(0,e,1) redirected to (0,e,1), the orbit of (0,a,1)
        holds (0,e,1) twice: the table is no groupoid's, and it has no star
        coordinates."""
        g = fix_gauge_2_z2
        a0, gamma = (arrow_by_label(g, s) for s in ("(0,a,0)", "(0,e,1)"))
        comp = dict(g.compose_table)
        comp[(a0, gamma)] = gamma
        bad = with_fields(g, compose_table=comp)
        with pytest.raises(PreconditionError, match=f"^{re.escape(NO_STAR)}$"):
            quotient_by_isotropy(bad, isotropy_subgroupoid(bad))

    def test_incomplete_table(self, fix_gauge_2_z2):
        """Without its first compose entry the table fails the structure
        check with the missing pair, not with a KeyError."""
        g = fix_gauge_2_z2
        comp = dict(g.compose_table)
        del comp[next(iter(comp))]
        bad = with_fields(g, compose_table=comp)
        message = r"^compose table missing composable pair \(\(0,e,0\), \(0,e,0\)\)$"
        with pytest.raises(PreconditionError, match=message):
            quotient_by_isotropy(bad, isotropy_subgroupoid(bad))

    def test_ambiguous_composition(self):
        """With (0,e,1)∘(1,e,2) sent to (0,e,1) on the (3,Z2) gauge groupoid,
        the orbits and conjugations are unchanged, but the classes
        [(0,e,1)] and [(1,e,2)] would compose to two classes: the plan
        names that pair as the product off its star coordinates."""
        g = gauge_groupoid(FinitePrincipalBundle(3, cyclic(2)))
        a, b = arrow_by_label(g, "(0,e,1)"), arrow_by_label(g, "(1,e,2)")
        comp = dict(g.compose_table)
        comp[(a, b)] = a
        bad = with_fields(g, compose_table=comp)
        message = ("the compose table is not a groupoid's: (0,e,1)∘(1,e,2) is not the arrow "
                   "its star coordinates give")
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            quotient_by_isotropy(bad, isotropy_subgroupoid(bad))

    def test_non_isotropy_witness_is_the_lowest(self):
        """The witness is the lowest non-isotropy arrow of the selection,
        whatever order the frozenset iterates in: (1,3) = 8, not (3,1) = 16."""
        g = pair_groupoid(5)
        sel = SubgroupoidSelection(g, frozenset(g.identity) | {8, 16})
        with pytest.raises(PreconditionError,
                           match=r"^quotient selection contains non-isotropy arrow \(1,3\)$"):
            quotient_by_isotropy(g, sel)

    @pytest.mark.parametrize("kept", [(("e", "a^2"), ("e",)), (("e",), ("e", "a^2"))],
                             ids=["N0-larger", "N1-larger"])
    def test_untransported_selection_rejected(self, kept):
        """On the (2,Z4) gauge groupoid, N at each point is normal in its
        isotropy group, but N at 0 and N at 1 are not conjugate: refused,
        with a witness that really fails."""
        g = gauge_groupoid(FinitePrincipalBundle(2, cyclic(4)))
        arrows = [arrow_by_label(g, f"({x},{m},{x})") for x, ms in enumerate(kept) for m in ms]
        sel = SubgroupoidSelection(g, frozenset(arrows))
        with pytest.raises(PreconditionError) as exc:
            quotient_by_isotropy(g, sel)
        assert_unstable_witness(g, sel, exc.value)

    @pytest.mark.parametrize("n", [1, 2])
    def test_non_normal_witness_fails(self, n):
        """A transposition of S3 at every point, in the group groupoid and
        in the (2,S3) gauge groupoid, is refused with a witness that
        really fails."""
        g = (group_groupoid(symmetric(3)) if n == 1
             else gauge_groupoid(FinitePrincipalBundle(2, symmetric(3))))
        kept = ("012", "102")  # the identity and a transposition
        labels = kept if n == 1 else [f"({x},{h},{x})" for x in range(n) for h in kept]
        sel = SubgroupoidSelection(g, frozenset(arrow_by_label(g, label) for label in labels))
        with pytest.raises(PreconditionError) as exc:
            quotient_by_isotropy(g, sel)
        assert_unstable_witness(g, sel, exc.value)

    def test_empty_groupoid(self):
        """No base point: the quotient is empty too (an IndexError before)."""
        g = FiniteGroupoid(0, (), (), {}, (), ())
        q, rho = quotient_by_isotropy(g, isotropy_subgroupoid(g))
        assert (q.n_base, q.n_arrows, rho.arrow_map) == (0, 0, ())

    def test_non_wide_selection_rejected(self, fix_pair):
        sel = SubgroupoidSelection(fix_pair, frozenset({fix_pair.identity[0]}))
        with pytest.raises(PreconditionError):
            quotient_by_isotropy(fix_pair, sel)

    def test_non_isotropy_selection_rejected(self, fix_pair):
        sel = SubgroupoidSelection(fix_pair, frozenset(fix_pair.arrows()))
        with pytest.raises(PreconditionError):
            quotient_by_isotropy(fix_pair, sel)


def test_one_structure_pass(monkeypatch, fix_gauge_2_z2, bundle_2_z2):
    """validate_groupoid keeps the slot table it builds: the builders and
    kernels that follow on the same groupoid read it. Built groupoids carry
    the slot table their builder filled."""
    passes = []
    real = groupoid_mod._structure
    monkeypatch.setattr(groupoid_mod, "_structure", lambda g: passes.append(g) or real(g))
    g = with_fields(fix_gauge_2_z2)  # a fresh copy without products
    assert g._tables.prod is None
    assert validate_groupoid(g).ok
    g1 = translation_subgroupoid(g, Section.identity(bundle_2_z2))
    sd = semidirect_product(g, isotropy_subgroupoid(g), g1)
    q, _ = quotient_by_isotropy(g, isotropy_subgroupoid(g))
    f = GroupoidFunction.delta(g, 1)
    # weights that are not all equal, so that the Haar checks read the slot table
    groupoid_convolve(f, f, HaarWeights(g, [1.0 + (g.src[a] != g.tgt[a]) for a in g.arrows()]))
    for built in (sd, q, group_groupoid(symmetric(3)), pair_groupoid(3)):
        f = GroupoidFunction.delta(built, 0)
        groupoid_convolve(f, f, HaarWeights.counting(built))
    assert passes == [g]


def test_validation_keeps_the_products(fix_gauge_2_z2):
    """validate_groupoid fills a product array only where there is none:
    a built groupoid, and one checked before, keep the array they hold."""
    checked = with_fields(fix_gauge_2_z2, compose_table=dict(fix_gauge_2_z2.compose_table))
    assert checked._tables.prod is None and validate_groupoid(checked).ok
    for g in (fix_gauge_2_z2, gauge_groupoid(FinitePrincipalBundle(3, symmetric(3))), checked):
        prod = g._tables.prod
        assert prod is not None and validate_groupoid(g).ok
        assert g._tables.prod is prod and g._product_slots().prod is prod


def test_held_products_walk_no_pairs(monkeypatch, bundle_2_z2, bundle_3_s3):
    """A table object that holds its products, a builder's or an earlier
    clean parse's, passes the structure pass by one compare over them:
    check_structure and validate_groupoid walk no compose entry."""
    built = []
    for bundle in (bundle_2_z2, bundle_3_s3):
        g = gauge_groupoid(bundle)
        iso = isotropy_subgroupoid(g)
        g1 = translation_subgroupoid(g, Section.identity(bundle))
        built += [g, semidirect_product(g, iso, g1), quotient_by_isotropy(g, iso)[0],
                  selection_to_groupoid(iso)[0]]
    built += [pair_groupoid(3), group_groupoid(symmetric(3))]
    loaded = gio.groupoid_from_dict(gio.groupoid_to_dict(built[1]))  # a carrier file
    checked = with_fields(built[0], compose_table=dict(built[0].compose_table))
    for parsed in (loaded, checked):
        assert parsed._tables.prod is None and validate_groupoid(parsed).ok
    walks = []
    for cls in (groupoid_mod._Tables, groupoid_mod._ComposeTable):
        monkeypatch.setattr(cls, "entries",
                            lambda self, real=cls.entries: walks.append(self) or real(self))
    for g in (*built, loaded, checked):
        assert check_structure(g).ok and validate_groupoid(g).ok
    assert walks == []


@pytest.mark.parametrize("value", ["n_arrows", -1])
@pytest.mark.parametrize("build", ["pair", "gauge"])
def test_a_product_off_the_arrows_is_parsed(monkeypatch, bundle_2_z2, build, value):
    """A closed form that writes a product outside the arrows into one slot
    gets the parse's report: the one entry, named by its pair, refers to an
    unknown arrow. The builder's products stay."""
    real = groupoid_mod._build

    def corrupted(cls, n_base, src, *args, rows, **fields):
        def bad_rows(out):
            rows(out)
            out[1, 0] = len(src) if value == "n_arrows" else value
        return real(cls, n_base, src, *args, rows=bad_rows, **fields)

    monkeypatch.setattr(groupoid_mod, "_build", corrupted)
    monkeypatch.setattr(gauge_mod, "_build", corrupted)
    g = pair_groupoid(3) if build == "pair" else gauge_groupoid(bundle_2_z2)
    prod = g._tables.prod
    b = g.arrows_into(g.src[1])[0]  # slot row 1, column 0
    want = [{"kind": "malformed", "axiom": "tables", "witness": [1, b],
             "message": "compose entry refers to unknown arrow"}]
    for check, oracle in ((check_structure, oracle_check_structure),
                          (validate_groupoid, oracle_validate_groupoid)):
        report = check(g).to_dict()
        assert report == {"ok": False, "violations": want}
        if value == "n_arrows":  # a lookup of -1 raises KeyError: the oracle also names it missing
            assert report == oracle(g).to_dict()
    assert g._tables.prod is prod


def _reversed_with_wrong_ends(g):
    """g with its compose entries in reverse order, and two products moved
    to arrows with other endpoints: a dict table the plan refuses."""
    comp = dict(reversed(list(g.compose_table.items())))
    keys = list(comp)
    for key in (keys[3], keys[-5]):
        comp[key] = next(c for c in g.arrows() if g.tgt[c] != g.tgt[comp[key]])
    return with_fields(g, compose_table=comp)


@pytest.mark.parametrize("make", [lambda: pair_times(2, LOOP),
                                  lambda: _reversed_with_wrong_ends(gauge_groupoid(
                                      FinitePrincipalBundle(2, symmetric(3))))],
                         ids=["loop", "wrong-ends"])
def test_a_refused_table_reports_twice_alike(make):
    """A dict table the plan refuses: its first validation parses it and
    keeps the products, and the second reads its entries only for the
    witnesses, in the table's order. Both reports are the oracle's."""
    g = make()
    first = validate_groupoid(g).to_dict()
    assert g._tables.prod is not None
    assert first == validate_groupoid(g).to_dict() == oracle_validate_groupoid(g).to_dict()
    assert not first["ok"]


LAYOUT_FIELDS = {"prod", "off", "pos", "n_slots"}


def test_only_the_groupoid_module_reads_the_slot_layout():
    """The slot layout of the table object is private to groupoid.py: no
    other module of the package reads an attribute of that name."""
    package = pathlib.Path(groupoid_mod.__file__).parent
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(package.glob("*.py")) if path.name != "groupoid.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_FIELDS
    ]
    assert reads == []
