import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgschema import (
    Curie,
    EmptyCliqueError,
    MalformedCurieError,
    NoMatchingBaseError,
    OverlappingCliquesError,
    ParseError,
    UndeclaredPrefixError,
    UnknownClassError,
    contract_iri,
    expand_iri,
    load_equivalences,
    normalize_curie,
    parse_curie,
    preferred_identifier,
)
from kgschema.identifiers import NO_PREFERENCE_MATCH, is_curie
from generators import random_cliques
from oracles import scan_preferred

_prefix = st.text(alphabet="ABCdef123.", min_size=1, max_size=10)
_local = st.text(alphabet="ABCdef123.:_-", min_size=1, max_size=12)


def test_parse_curie_examples():
    assert parse_curie("NCBIGene:23221") == Curie("NCBIGene", "23221")
    assert parse_curie("CHEMBL.COMPOUND:CHEMBL3989516") == Curie(
        "CHEMBL.COMPOUND", "CHEMBL3989516"
    )


@pytest.mark.parametrize("text", [":x", "x:", "x", "", "a b:c", "a:b c", " a:b", "a:b ", "a:\tb"])
def test_parse_curie_rejects_degenerate_forms(text):
    with pytest.raises(MalformedCurieError):
        parse_curie(text)


def test_parse_curie_splits_on_first_colon():
    assert parse_curie("a:b:c") == Curie("a", "b:c")


# Colons, ASCII and Unicode whitespace (which ``\s`` matches), and text.
_curie_like = st.text(
    st.sampled_from(":ab")
    | st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000")
    | st.characters(),
    max_size=8,
)


@given(_curie_like)
def test_is_curie_accepts_exactly_what_parse_curie_accepts(text):
    # Both against the rule read naively: nonempty parts around the first
    # colon, no whitespace anywhere.
    prefix, sep, local_id = text.partition(":")
    paired = bool(sep and prefix and local_id)
    try:
        curie = parse_curie(text)
    except MalformedCurieError as exc:
        accepted = False
        reason = "whitespace in identifier" if paired else "not a prefix:local_id pair"
        assert str(exc) == f"{reason}: {text!r}"
    else:
        accepted = True
        assert curie == Curie(prefix, local_id)
    assert is_curie(text) == accepted == (paired and not any(ch.isspace() for ch in text))


@given(_prefix, _local)
def test_curie_text_round_trip(prefix, local):
    curie = Curie(prefix, local)
    assert parse_curie(curie.text) == curie


def test_expand_and_contract_mondo():
    prefixes = {"MONDO": "http://purl.obolibrary.org/obo/MONDO_"}
    curie = Curie("MONDO", "0005737")
    iri = expand_iri(curie, prefixes)
    assert iri == "http://purl.obolibrary.org/obo/MONDO_0005737"
    assert contract_iri(iri, prefixes) == curie


def test_contract_longest_base_wins():
    prefixes = {"A": "http://x/", "AB": "http://x/y"}
    assert contract_iri("http://x/yz", prefixes) == Curie("AB", "z")
    assert contract_iri("http://x/q", prefixes) == Curie("A", "q")


def test_expand_contract_errors():
    with pytest.raises(UndeclaredPrefixError):
        expand_iri(Curie("NOPE", "1"), {})
    with pytest.raises(NoMatchingBaseError):
        contract_iri("http://elsewhere/1", {"A": "http://x/"})


@given(_local)
def test_contract_inverts_expand_over_seed_prefixes(seed_doc, local):
    # No seed base is a prefix of another, so the round trip is exact for
    # arbitrary local ids.
    for prefix in seed_doc.prefixes:
        curie = Curie(prefix, local)
        assert contract_iri(expand_iri(curie, seed_doc.prefixes), seed_doc.prefixes) == curie


def test_seed_prefix_bases_do_not_nest(seed_doc):
    bases = list(seed_doc.prefixes.values())
    for i, a in enumerate(bases):
        for j, b in enumerate(bases):
            assert i == j or not a.startswith(b)


@given(_local)
def test_nested_bases_still_preserve_the_iri(local):
    # With one base nested inside another, the longest-base rule may pick a
    # different prefix, but expanding the result reproduces the same IRI.
    prefixes = {"A": "http://x/a/", "LONG": "http://x/a/nested/"}
    for prefix in prefixes:
        iri = expand_iri(Curie(prefix, local), prefixes)
        assert expand_iri(contract_iri(iri, prefixes), prefixes) == iri


def test_preferred_identifier_mondo_over_doid(seed_doc, seed_index):
    members = {Curie("MONDO", "0005737"), Curie("DOID", "4325")}
    chosen, note = preferred_identifier(members, "Disease", seed_doc, seed_index)
    assert chosen == Curie("MONDO", "0005737")
    assert note == "PREFERENCE_MATCH:Disease:MONDO"


def test_preferred_identifier_singleton(seed_doc, seed_index):
    only = Curie("HGNC", "18756")
    chosen, _ = preferred_identifier({only}, "Gene", seed_doc, seed_index)
    assert chosen == only


def test_preferred_identifier_ncbigene_first(seed_doc, seed_index):
    members = {Curie("HGNC", "668"), Curie("NCBIGene", "23221")}
    chosen, _ = preferred_identifier(members, "Gene", seed_doc, seed_index)
    assert chosen == Curie("NCBIGene", "23221")


def test_preferred_identifier_walks_ancestors(seed_doc, seed_index):
    # MolecularEntity has no id_prefixes; ChemicalEntity contributes CHEBI.
    members = {Curie("PUBCHEM.COMPOUND", "5"), Curie("CHEBI", "10")}
    chosen, note = preferred_identifier(members, "MolecularEntity", seed_doc, seed_index)
    assert chosen == Curie("CHEBI", "10")
    assert note == "PREFERENCE_MATCH:ChemicalEntity:CHEBI"


def test_preferred_identifier_no_match_falls_back_lexicographic(seed_doc, seed_index):
    members = {Curie("ZZZ", "9"), Curie("AAA", "1")}
    chosen, note = preferred_identifier(members, "Gene", seed_doc, seed_index)
    assert chosen == Curie("AAA", "1")
    assert note == NO_PREFERENCE_MATCH


def test_preferred_identifier_local_id_tiebreak(seed_doc, seed_index):
    members = {Curie("NCBIGene", "9"), Curie("NCBIGene", "10")}
    chosen, _ = preferred_identifier(members, "Gene", seed_doc, seed_index)
    assert chosen == Curie("NCBIGene", "10")  # bytewise: "10" < "9"


def test_preferred_identifier_errors(seed_doc, seed_index):
    with pytest.raises(EmptyCliqueError):
        preferred_identifier(set(), "Gene", seed_doc, seed_index)
    with pytest.raises(UnknownClassError):
        preferred_identifier({Curie("A", "1")}, "Nope", seed_doc, seed_index)


def test_preference_respected_against_scan_oracle(seed_doc, seed_index):
    rng = random.Random(41)
    categories = [n for n, c in seed_doc.classes.items() if not c.is_mixin]
    for _ in range(200):
        members = {
            Curie(rng.choice(("NCBIGene", "HGNC", "MONDO", "DOID", "CHEBI", "ZZZ")), str(i))
            for i in range(rng.randint(1, 5))
        }
        category = rng.choice(categories)
        chosen, note = preferred_identifier(members, category, seed_doc, seed_index)
        expected, prefix = scan_preferred(members, category, seed_doc)
        assert chosen == expected
        assert (note == NO_PREFERENCE_MATCH) == (prefix is None)


def test_load_equivalences_parses_comments_and_cliques(demo_equivalences):
    assert len(demo_equivalences.cliques) == 4
    clique = demo_equivalences.clique_of(Curie("HGNC", "18756"))
    assert clique is not None
    assert Curie("NCBIGene", "23221") in clique.members
    assert clique.categories == {"Gene"}


def test_load_equivalences_ignores_a_leading_bom(demo_equivalences):
    text = (Path(__file__).parent / "data" / "equivalences.tsv").read_text(encoding="utf-8")
    assert text.startswith("#")
    assert load_equivalences("\ufeff" + text) == demo_equivalences


def test_load_equivalences_rejects_overlap():
    text = "Gene\tA:1|B:2\nGene\tB:2|C:3\n"
    with pytest.raises(OverlappingCliquesError):
        load_equivalences(text)


@pytest.mark.parametrize(
    "line",
    ["Gene A:1", "Gene\tA:1\textra", "\tA:1", "Gene\t", "Gene\tnot a curie"],
)
def test_load_equivalences_rejects_bad_lines(line):
    with pytest.raises(ParseError):
        load_equivalences(line + "\n")


def test_normalize_identity_on_unknown(seed_doc, seed_index, demo_equivalences):
    stranger = Curie("FOO", "1")
    assert normalize_curie(demo_equivalences, stranger, seed_doc, seed_index) == stranger


def test_normalize_gene_clique(seed_doc, seed_index, demo_equivalences):
    assert normalize_curie(
        demo_equivalences, Curie("HGNC", "18756"), seed_doc, seed_index
    ) == Curie("NCBIGene", "23221")


@pytest.mark.filterwarnings("ignore::kgschema.errors.IncomparableCategoriesWarning")
def test_normalize_idempotent_and_clique_coherent(seed_doc, seed_index):
    rng = random.Random(4242)
    categories = [n for n, c in seed_doc.classes.items() if not c.is_mixin]
    lines = random_cliques(rng, categories, count=300)
    table = load_equivalences("\n".join(lines) + "\n")
    for clique in table.cliques:
        normalized = {
            normalize_curie(table, member, seed_doc, seed_index) for member in clique.members
        }
        assert len(normalized) == 1  # coherence
        target = normalized.pop()
        assert normalize_curie(table, target, seed_doc, seed_index) == target  # idempotence


def test_contract_duplicate_base_first_declared_wins():
    prefixes = {"FIRST": "http://same/", "SECOND": "http://same/"}
    assert contract_iri("http://same/1", prefixes) == Curie("FIRST", "1")
