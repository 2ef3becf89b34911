"""Pattern-matching filter (§4, per Russ Cox's regexp articles [15]).

A Thompson-construction NFA regex engine supporting the subset the
FlexStorm filter needs: literals, ``\\`` escapes, ``.``, character classes
``[abc]`` / ``[a-z]`` / ``[^...]``, alternation ``|``, grouping ``(...)``
and the ``* + ?`` quantifiers.  ``search`` runs the NFA as a lazily built
DFA: each DFA state is the ε-closure of an NFA state set, numbered when
first reached, and each (state, char) transition is built once and then
cached.  Re-adding the NFA start state at every step makes the search
unanchored, so a text is one pass of dict lookups — no backtracking and
no restart per offset — which is why it suits a wimpy NIC core.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

EPSILON = None


class _State:
    def __init__(self):
        #: list of (predicate, next_state); predicate None = epsilon
        self.edges: List[Tuple[Optional[object], "_State"]] = []


class _Fragment:
    def __init__(self, start: _State, outs: List[_State]):
        self.start = start
        self.outs = outs


class RegexError(ValueError):
    """Malformed pattern."""


class _Parser:
    """Recursive-descent parser building the NFA via Thompson construction."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0

    def parse(self) -> _Fragment:
        frag = self._alternation()
        if self.pos != len(self.pattern):
            raise RegexError(f"unexpected {self.pattern[self.pos]!r} at {self.pos}")
        return frag

    # grammar: alternation := concat ('|' concat)*
    def _alternation(self) -> _Fragment:
        frag = self._concat()
        while self._peek() == "|":
            self.pos += 1
            right = self._concat()
            start = _State()
            start.edges.append((EPSILON, frag.start))
            start.edges.append((EPSILON, right.start))
            frag = _Fragment(start, frag.outs + right.outs)
        return frag

    def _concat(self) -> _Fragment:
        frags: List[_Fragment] = []
        while self._peek() not in (None, "|", ")"):
            frags.append(self._quantified())
        if not frags:
            state = _State()
            return _Fragment(state, [state])
        result = frags[0]
        for nxt in frags[1:]:
            for out in result.outs:
                out.edges.append((EPSILON, nxt.start))
            result = _Fragment(result.start, nxt.outs)
        return result

    def _quantified(self) -> _Fragment:
        frag = self._atom()
        quant = self._peek()
        if quant == "*":
            self.pos += 1
            start = _State()
            start.edges.append((EPSILON, frag.start))
            for out in frag.outs:
                out.edges.append((EPSILON, start))
            return _Fragment(start, [start])
        if quant == "+":
            self.pos += 1
            loop = _State()
            loop.edges.append((EPSILON, frag.start))
            for out in frag.outs:
                out.edges.append((EPSILON, loop))
            return _Fragment(frag.start, [loop])
        if quant == "?":
            self.pos += 1
            start = _State()
            start.edges.append((EPSILON, frag.start))
            return _Fragment(start, frag.outs + [start])
        return frag

    def _atom(self) -> _Fragment:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            frag = self._alternation()
            if self._peek() != ")":
                raise RegexError("unbalanced parenthesis")
            self.pos += 1
            return frag
        if ch == "[":
            return self._char_class()
        if ch == ".":
            self.pos += 1
            return self._edge(lambda c: True)
        if ch == "\\":
            self.pos += 1
            literal = self._peek()
            if literal is None:
                raise RegexError("dangling escape")
            self.pos += 1
            return self._edge(lambda c, l=literal: c == l)
        if ch in ("*", "+", "?"):
            raise RegexError(f"quantifier {ch!r} with nothing to repeat")
        self.pos += 1
        return self._edge(lambda c, l=ch: c == l)

    def _char_class(self) -> _Fragment:
        self.pos += 1  # consume '['
        negate = self._peek() == "^"
        if negate:
            self.pos += 1
        allowed: Set[str] = set()
        ranges: List[Tuple[str, str]] = []
        while self._peek() not in (None, "]"):
            start = self.pattern[self.pos]
            self.pos += 1
            if self._peek() == "-" and self.pos + 1 < len(self.pattern) \
                    and self.pattern[self.pos + 1] != "]":
                self.pos += 1
                end = self.pattern[self.pos]
                self.pos += 1
                ranges.append((start, end))
            else:
                allowed.add(start)
        if self._peek() != "]":
            raise RegexError("unterminated character class")
        self.pos += 1

        def predicate(c, allowed=frozenset(allowed), ranges=tuple(ranges),
                      negate=negate):
            hit = c in allowed or any(lo <= c <= hi for lo, hi in ranges)
            return hit != negate

        return self._edge(predicate)

    def _edge(self, predicate) -> _Fragment:
        start = _State()
        end = _State()
        start.edges.append((predicate, end))
        return _Fragment(start, [end])

    def _peek(self) -> Optional[str]:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None


class Regex:
    """A compiled pattern; ``search`` finds a match anywhere in the text."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        frag = _Parser(pattern).parse()
        self._accept = _State()
        for out in frag.outs:
            out.edges.append((EPSILON, self._accept))
        self.start = frag.start
        start = self._closure({self.start})
        #: indexed by DFA state id (0 is the start): NFA state set, accepts?
        self._sets: List[FrozenSet[_State]] = [start]
        self._accepting: List[bool] = [self._accept in start]
        self._dfa_ids: Dict[FrozenSet[_State], int] = {start: 0}
        #: cached transitions, (DFA state id, char) -> DFA state id
        self._next: Dict[Tuple[int, str], int] = {}

    @staticmethod
    def _closure(states: Set[_State]) -> FrozenSet[_State]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for predicate, nxt in state.edges:
                if predicate is EPSILON and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def _build(self, dfa_id: int, ch: str) -> int:
        """Build and cache the transition out of ``dfa_id`` on ``ch``."""
        moved = {self.start}  # a match may also begin after ``ch``
        for state in self._sets[dfa_id]:
            for predicate, target in state.edges:
                if predicate is not EPSILON and predicate(ch):
                    moved.add(target)
        states = self._closure(moved)
        target_id = self._dfa_ids.get(states)
        if target_id is None:
            target_id = self._dfa_ids[states] = len(self._sets)
            self._sets.append(states)
            self._accepting.append(self._accept in states)
        self._next[dfa_id, ch] = target_id
        return target_id

    def search(self, text: str) -> bool:
        """Unanchored match anywhere in the text."""
        accepting = self._accepting
        if accepting[0]:
            return True
        transitions = self._next
        dfa_id = 0
        for ch in text:
            nxt = transitions.get((dfa_id, ch))
            if nxt is None:
                nxt = self._build(dfa_id, ch)
            if accepting[nxt]:
                return True
            dfa_id = nxt
        return False


class PatternFilter:
    """The FlexStorm filter worker: drop tuples matching no pattern."""

    def __init__(self, patterns: List[str]):
        self.regexes = [Regex(p) for p in patterns]
        self.passed = 0
        self.discarded = 0

    def interesting(self, text: str) -> bool:
        if any(regex.search(text) for regex in self.regexes):
            self.passed += 1
            return True
        self.discarded += 1
        return False
