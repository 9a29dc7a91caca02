"""F-structure parsing, path resolution, and the sigma projection."""

from __future__ import annotations

import pytest

from gluesem.errors import MissingAttributeError, SyntaxErrorAt
from gluesem.fstruct import (
    SemStructure,
    format_fstructure,
    parse_fstructure,
    resolve_path,
    sigma,
)

BAH = "f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']]"
SCOPED = "f:[PRED 'appoint'; SUBJ g:[SPEC every; PRED 'candidate']; OBJ h:[SPEC a; PRED 'manager']]"


def same_structure(a, b, mapping=None) -> bool:
    """Label-preserving isomorphism check, independent of the printer."""
    if mapping is None:
        mapping = {}
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, tuple) or isinstance(b, tuple):
        if not (isinstance(a, tuple) and isinstance(b, tuple)) or len(a) != len(b):
            return False
        by_label = {m.label: m for m in b}
        return all(
            m.label in by_label and same_structure(m, by_label[m.label], mapping)
            for m in a
        )
    if a.label != b.label:
        return False
    if id(a) in mapping:
        return mapping[id(a)] is b
    mapping[id(a)] = b
    if set(a.attrs) != set(b.attrs):
        return False
    return all(same_structure(a.attrs[k], b.attrs[k], mapping) for k in a.attrs)


def test_parse_three_node_transitive():
    root = parse_fstructure(BAH)
    assert root.label == "f"
    assert root.attrs["PRED"] == "appoint"
    assert root.attrs["SUBJ"].label == "g"
    assert root.attrs["SUBJ"].attrs["PRED"] == "Bill"
    assert root.attrs["OBJ"].attrs["PRED"] == "Hillary"
    assert len(root.nodes()) == 3


def test_parse_single_node():
    root = parse_fstructure("g:[PRED 'Bill']")
    assert root.label == "g"
    assert root.nodes() == [root]


def test_parse_quantified_structure():
    root = parse_fstructure(SCOPED)
    subj = root.attrs["SUBJ"]
    assert subj.attrs["SPEC"] == "every"
    assert subj.attrs["PRED"] == "candidate"
    assert root.attrs["OBJ"].attrs["SPEC"] == "a"


def test_attribute_names_canonicalize_to_upper_case():
    root = parse_fstructure("f:[pred 'arrive'; subj g:[Pred 'John']]")
    assert set(root.attrs) == {"PRED", "SUBJ"}
    assert root.attrs["SUBJ"].attrs["PRED"] == "John"


def test_parse_mods_set_and_container_links():
    root = parse_fstructure(
        "f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary'];"
        " MODS { m:[PRED 'obviously'] }]"
    )
    mods = root.attrs["MODS"]
    assert isinstance(mods, tuple) and len(mods) == 1
    assert mods[0].label == "m"
    assert mods[0].mod_container is root
    assert len(root.nodes()) == 4


def test_parse_empty_mods_set():
    root = parse_fstructure("f:[PRED 'arrive'; MODS { }]")
    assert root.attrs["MODS"] == ()


def test_set_member_label_reference_resolves_to_its_node():
    root = parse_fstructure("f:[PRED 'arrive'; XADJ m:[PRED 'obviously']; MODS { m }]")
    member = root.attrs["XADJ"]
    assert root.attrs["MODS"] == (member,) and root.attrs["MODS"][0] is member
    assert member.mod_container is root


def test_undefined_set_member_is_reported_at_its_position():
    with pytest.raises(SyntaxErrorAt) as err:
        parse_fstructure("f:[PRED 'x'; MODS { nowhere }]")
    assert str(err.value) == "1:21: set member 'nowhere' is not a defined label"


def test_parse_errors_carry_position():
    with pytest.raises(SyntaxErrorAt) as err:
        parse_fstructure("f:[PRED 'appoint'; SUBJ [PRED 'Bill']]")
    assert err.value.line == 1


def test_duplicate_label_rejected():
    with pytest.raises(SyntaxErrorAt) as err:
        parse_fstructure("f:[SUBJ f:[PRED 'Bill']]")
    assert "duplicate label" in str(err.value)


def test_reentrancy_by_label_reference():
    root = parse_fstructure("f:[SUBJ g:[PRED 'Bill']; TOPIC g]")
    assert root.attrs["TOPIC"] is root.attrs["SUBJ"]
    assert len(root.nodes()) == 2


def test_bare_identifier_not_a_label_is_atomic():
    root = parse_fstructure("f:[SPEC every; PRED 'candidate']")
    assert root.attrs["SPEC"] == "every"


def test_resolve_path_subject():
    root = parse_fstructure(BAH)
    assert resolve_path(root, ["SUBJ"]).label == "g"


def test_resolve_path_rejects_empty_path():
    root = parse_fstructure(BAH)
    with pytest.raises(ValueError):
        resolve_path(root, [])


def test_resolve_path_through_to_atom():
    root = parse_fstructure(BAH)
    assert resolve_path(root, ["OBJ", "PRED"]) == "Hillary"


def test_resolve_path_missing_attribute():
    root = parse_fstructure(BAH)
    with pytest.raises(MissingAttributeError) as err:
        resolve_path(root, ["COMP"])
    assert err.value.attribute == "COMP"


def test_resolve_path_is_compositional():
    root = parse_fstructure(BAH)
    assert resolve_path(root, ["OBJ", "PRED"]) == resolve_path(
        resolve_path(root, ["OBJ"]), ["PRED"]
    )


def test_sigma_naming_and_identity():
    root = parse_fstructure(BAH)
    h = root.attrs["OBJ"]
    assert str(sigma(h)) == "h_σ"
    assert sigma(h) == SemStructure("h")


def test_sigma_distinct_per_node():
    root = parse_fstructure(BAH)
    sems = {sigma(n) for n in root.nodes()}
    assert len(sems) == 3


def test_round_trip_is_isomorphic():
    for text in (
        BAH,
        SCOPED,
        "g:[PRED 'Bill']",
        "f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary'];"
        " MODS { m:[PRED 'obviously']; n:[PRED 'yesterday'] }]",
        "f:[SUBJ g:[PRED 'Bill']; TOPIC g]",
    ):
        root = parse_fstructure(text)
        again = parse_fstructure(format_fstructure(root))
        assert same_structure(root, again)


def test_multiline_input_reports_line_numbers():
    text = "f:[\n  PRED 'appoint';\n  SUBJ g:[PRED 'Bill'\n]"
    with pytest.raises(SyntaxErrorAt) as err:
        parse_fstructure(text)
    assert err.value.line == 4


def test_nodes_document_order():
    root = parse_fstructure(BAH)
    assert [n.label for n in root.nodes()] == ["f", "g", "h"]


# Forward references (SUBJ s, the set member k), a node shared by two set
# members (h) and a node reached again (TOPIC m): each node comes, and is
# printed whole, where a depth-first walk in attribute order first meets it.
SHARED = (
    "f:[PRED 'see'; SUBJ s; MODS { k; m:[PRED 'a'; ARG h:[PRED 'y']]; n:[PRED 'b'; ARG h] }; "
    "OBJ s:[PRED 'z'; POSS p:[PRED 'q'; SPEC every]]; TOPIC m; ADJ { k:[PRED 'c'] }; XS { }]"
)


def test_nodes_document_order_with_sets_shared_nodes_and_forward_references():
    root = parse_fstructure(SHARED)
    assert [n.label for n in root.nodes()] == ["f", "s", "p", "k", "m", "h", "n"]
    assert format_fstructure(root) == (
        "f:[PRED 'see'; SUBJ s:[PRED 'z'; POSS p:[PRED 'q'; SPEC every]]; "
        "MODS { k:[PRED 'c']; m:[PRED 'a'; ARG h:[PRED 'y']]; n:[PRED 'b'; ARG h] }; "
        "OBJ s; TOPIC m; ADJ { k }; XS { }]"
    )


def reference_chain(length: int) -> str:
    """Nesting depth 2, but each `g<i>` holds the next: a chain of `length`
    re-entrant references, forward from the root's SUBJ to its last node."""
    links = "; ".join(f"A{i} g{i}:[N g{i + 1}]" for i in range(length))
    return f"f:[PRED 'arrive'; SUBJ g{length}; {links}; Z g{length}:[PRED 'Bill']]"


def test_a_long_reference_chain_is_walked_and_printed_without_recursion():
    root = parse_fstructure(reference_chain(3000))
    labels = [n.label for n in root.nodes()]
    assert labels == ["f", "g3000"] + [f"g{i}" for i in range(3000)]
    nested = "".join(f"g{i}:[N " for i in range(3000)) + "g3000" + "]" * 3000
    again = "".join(f"; A{i} g{i}" for i in range(1, 3000))
    assert format_fstructure(root) == (
        f"f:[PRED 'arrive'; SUBJ g3000:[PRED 'Bill']; A0 {nested}{again}; Z g3000]"
    )


def test_trailing_semicolon_is_allowed_before_a_closing_bracket_or_brace():
    root = parse_fstructure("f:[PRED 'arrive'; MODS { m:[PRED 'obviously']; }; ]")
    assert format_fstructure(root) == "f:[PRED 'arrive'; MODS { m:[PRED 'obviously'] }]"


@pytest.mark.parametrize(
    "text,error",
    [
        ("f:[PRED 'x'; pred 'y']", "1:14: duplicate attribute PRED in 'f'"),
        ("f:[MODS { 'x' }]", "1:11: set members must be f-structures or label references"),
        ("f:[MODS { m:[PRED 'y']; ; }]", "1:25: set members must be f-structures or label references"),
        ("f:[PRED 'x';;]", "1:13: expected an attribute name, found ';'"),
        ("f:[PRED ]", "1:9: expected a value for attribute PRED"),
        ("f:[PRED 'x'] g", "1:14: unexpected 'g' after f-structure"),
    ],
    ids=["duplicate-attribute", "quoted-member", "empty-member", "empty-attribute",
         "missing-value", "trailing-input"],
)
def test_parse_errors_name_the_offending_token(text, error):
    with pytest.raises(SyntaxErrorAt) as err:
        parse_fstructure(text)
    assert str(err.value) == error
