"""Differential test: the lazy-DFA ``Regex.search`` against the NFA walk it replaced.

``_reference_search`` keeps the old engine verbatim: an anchored
lock-step walk of the NFA state set (``match_here``), restarted at every
offset of the text.  Hypothesis builds patterns from the whole grammar
the parser accepts (literals, ``\\`` escapes, ``.``, ``[...]`` classes
with ranges and ``^``, ``|``, groups and ``* + ?``) and runs each
compiled ``Regex`` over many random texts from a small alphabet, so
both freshly built and cached DFA transitions are compared.
"""

from typing import Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rta import PatternFilter, Regex
from repro.apps.rta.filter import EPSILON, _State

# a small alphabet that includes the metacharacters, so escapes, ``.``
# and negated classes all meet characters they must (not) match
_texts = st.text(alphabet="abc.*-", max_size=24)


def _class_item():
    char = st.sampled_from("abc")
    return st.one_of(char, st.tuples(char, char).map(lambda r: f"{r[0]}-{r[1]}"))


_char_class = st.tuples(st.booleans(), st.lists(_class_item(), max_size=3)).map(
    lambda c: "[" + ("^" if c[0] else "") + "".join(c[1]) + "]")

_leaves = st.one_of(
    st.sampled_from("abc"),
    st.sampled_from("abc.*|()[]\\-").map(lambda c: "\\" + c),
    st.just("."),
    _char_class,
)


def _extend(inner):
    quantified = st.tuples(
        st.one_of(_leaves, inner.map(lambda p: f"({p})")),
        st.sampled_from(["", "", "*", "+", "?"]),
    ).map("".join)
    concat = st.lists(quantified, max_size=4).map("".join)
    return st.lists(concat, min_size=1, max_size=3).map("|".join)


_patterns = st.recursive(_leaves, _extend, max_leaves=8)


# -- the replaced engine, verbatim but for the accept test --------------------

def _reference_match_here(regex: Regex, text: str) -> bool:
    """Anchored match: does a prefix of ``text`` match the pattern?"""
    current = regex._closure({regex.start})
    if any(s is regex._accept for s in current):
        return True
    for ch in text:
        nxt: Set[_State] = set()
        for state in current:
            for predicate, target in state.edges:
                if predicate is not EPSILON and predicate(ch):
                    nxt.add(target)
        if not nxt:
            return False
        current = regex._closure(nxt)
        if any(s is regex._accept for s in current):
            return True
    return False


def _reference_search(regex: Regex, text: str) -> bool:
    """Unanchored match anywhere in the text."""
    for start in range(len(text) + 1):
        if _reference_match_here(regex, text[start:]):
            return True
    return False


# -- the properties --------------------------------------------------------------

@settings(max_examples=300)
@given(pattern=_patterns, texts=st.lists(_texts, min_size=1, max_size=30))
def test_search_agrees_with_nfa_restart(pattern, texts):
    regex = Regex(pattern)
    for text in texts + texts:  # the second lap runs on warm transitions
        assert regex.search(text) is _reference_search(regex, text), (pattern, text)


@settings(max_examples=100)
@given(patterns=st.lists(_patterns, min_size=1, max_size=3),
       texts=st.lists(_texts, max_size=30))
def test_pattern_filter_counts_agree(patterns, texts):
    pattern_filter = PatternFilter(patterns)
    expected = [any(_reference_search(r, t) for r in pattern_filter.regexes)
                for t in texts]
    got = [pattern_filter.interesting(t) for t in texts]
    assert got == expected
    assert pattern_filter.passed == sum(expected)
    assert pattern_filter.discarded == len(texts) - sum(expected)


def test_grammar_examples_agree():
    # fixed cases covering each construct once, independent of hypothesis
    cases = ["a", "\\.", ".", "[a-c]", "[^ab]", "[]", "[^]", "a|b", "(ab)*c",
             "a+b?", "(a|)*", "((a*)*)+b", "\\*|\\-", "a?" * 6 + "a" * 6]
    texts = ["", "a", "ab", "abc", "ba.", "c*-", "aaaaaa", "aaaaaaaaaaaab", "---"]
    for pattern in cases:
        regex = Regex(pattern)
        for text in texts * 2:
            assert regex.search(text) is _reference_search(regex, text), (pattern, text)
