"""Syllable words over a commutation graph and traces in its positive monoid.

Two words represent the same group element exactly when their canonical forms
coincide: full reduction makes the word's syllable multiset unique up to swaps
of adjacent commuting syllables, and the lexicographically least arrangement
is a well-defined representative of that swap class.  One pass computes it,
reducing as it goes: each syllable crosses the suffix it commutes with
(`commuting_suffix_start`), then merges with an equal generator found just
before that suffix or goes in at its `lex_insertion_point`.  The same two
scans build every `Trace` and every term of the Magnus kernel.
"""

from __future__ import annotations

import re
import sys


class GroupWord:
    """A word s1^e1 ... sn^en over the vertices of a commutation graph.

    Construction is purely syntactic: nothing is cancelled or reordered until
    `reduced()` or `canonical()` is called.  Instances are immutable.
    """

    __slots__ = ("graph", "syllables", "_canonical")

    def __init__(self, graph, syllables=()):
        checked = []
        for gen, exp in syllables:
            graph.index(gen)
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise ValueError(f"exponent for {gen!r} must be an integer, got {exp!r}")
            checked.append((gen, exp))
        self.graph = graph
        self.syllables = tuple(checked)
        self._canonical = None

    @classmethod
    def _trusted(cls, graph, syllables):
        """A word from a syllable tuple already in canonical form; nothing is checked."""
        word = object.__new__(cls)
        word.graph = graph
        word.syllables = syllables
        word._canonical = word
        return word

    def reduced(self):
        """Equivalent fully reduced word: the canonical form."""
        return self.canonical()

    def is_fully_reduced(self):
        # canonical() reorders, merges and drops zero exponents; only reordering
        # keeps the syllable count.
        return len(self.syllables) == len(self.canonical().syllables)

    def canonical(self):
        """The lexicographically least fully reduced representative.

        Syllables compare by (generator order, exponent) and two syllables
        commute iff their generators are adjacent.  Each syllable is appended
        to the canonical form of the prefix before it: it crosses the suffix
        it commutes with, and if the syllable just before that suffix has the
        same generator the two merge (and vanish on a zero sum); otherwise it
        goes in at its `lex_insertion_point`.  Merging changes an exponent or
        removes a syllable that everything after it commutes with, so the
        result stays fully reduced and lex-least: one linear scan per syllable.
        """
        if self._canonical is not None:
            return self._canonical
        graph = self.graph
        index = graph.index
        masks = graph.masks
        keys, gens = [], []
        for gen, exp in self.syllables:
            if not exp:
                continue
            g = index(gen)
            start = commuting_suffix_start(gens, masks[g])
            if start and gens[start - 1] == g:
                exp += keys[start - 1][1]
                if exp:
                    keys[start - 1] = (g, exp)
                else:
                    del keys[start - 1], gens[start - 1]
            else:
                pos = lex_insertion_point(keys, (g, exp), start)
                keys.insert(pos, (g, exp))
                gens.insert(pos, g)
        vertices = graph.vertices
        word = GroupWord._trusted(graph, tuple((vertices[g], e) for g, e in keys))
        self._canonical = word
        return word

    def equals(self, other):
        """True iff both words represent the same group element."""
        if self.graph != other.graph:
            raise ValueError("words live over different graphs")
        return self.canonical().syllables == other.canonical().syllables

    def is_identity(self):
        return not self.canonical().syllables

    def norm(self):
        """Geodesic word length: the sum of |e_i| over the fully reduced form."""
        return sum(abs(e) for _, e in self.canonical().syllables)

    def __mul__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        if self.graph != other.graph:
            raise ValueError("words live over different graphs")
        return GroupWord(self.graph, self.syllables + other.syllables)

    def inverse(self):
        return GroupWord(self.graph, [(s, -e) for s, e in reversed(self.syllables)])

    def __str__(self):
        if not self.syllables:
            return "1"
        return " ".join(s if e == 1 else f"{s}^{_digits(e, 'an exponent')}"
                        for s, e in self.syllables)

    def __repr__(self):
        return f"<GroupWord {self}>"


def _digits(n, what):
    """str(n) for an int n, int(n) for a string n of decimal digits.

    Python converts neither way past sys.get_int_max_str_digits() digits,
    since the conversion is quadratic; past it this raises one ValueError
    that names `what` and the limit, instead of Python's own message.
    """
    try:
        return int(n) if isinstance(n, str) else str(n)
    except ValueError:
        verb = "parse" if isinstance(n, str) else "print"
        raise ValueError(f"cannot {verb} {what} of more than {sys.get_int_max_str_digits()} "
                         f"digits (the integer {verb} limit)") from None


def check_int(value, least, message):
    """Reject anything but an int >= least, a bool included, with
    ValueError(message.format(value))."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(message.format(value))


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def commuting_suffix_start(gens, mask):
    """Start of the longest suffix of `gens` whose generators all lie in `mask`.

    gens holds generator indices and mask is the adjacency bitmask of a
    generator g, so this is where the suffix that g commutes with begins.
    """
    pos = len(gens)
    while pos and mask >> gens[pos - 1] & 1:
        pos -= 1
    return pos


def lex_insertion_point(keys, key, start):
    """Position at which `key` goes when appended to the lex-least sequence `keys`.

    start is the `commuting_suffix_start` of key's generator in keys; two
    entries commute iff their generators are adjacent.  By the Anisimov-Knuth
    characterization (Inhomogeneous sorting, 1979; Diekert-Rozenberg, The
    Book of Traces, 1995) a sequence is the lex-least of its commutation class
    iff it has no factor b u a with a < b and a commuting with b and with every
    letter of u.  So the appended key moves left across the maximal suffix it
    commutes with and stops before the first entry of that suffix that is
    greater than it: linear time, and the result is again lex-least.
    """
    end = len(keys)
    while start < end and keys[start] < key:
        start += 1
    return start


class Trace:
    """A positive monoid element, stored as its lex-least letter sequence.

    All words for the same trace have the same length, so `length` is
    well-defined.  Traces are hashable values and multiply by concatenation
    followed by re-canonicalization.
    """

    __slots__ = ("graph", "letters", "_hash")

    def __init__(self, graph, letters=()):
        masks = graph.masks
        codes = []
        for a in letters:
            code = graph.index(a)
            start = commuting_suffix_start(codes, masks[code])
            codes.insert(lex_insertion_point(codes, code, start), code)
        vertices = graph.vertices
        self.graph = graph
        self.letters = tuple(vertices[c] for c in codes)
        self._hash = hash((graph, self.letters))

    @classmethod
    def _trusted(cls, graph, letters):
        """A trace from vertex names already in lex-least order; nothing is checked."""
        trace = object.__new__(cls)
        trace.graph = graph
        trace.letters = letters
        trace._hash = hash((graph, letters))
        return trace

    @property
    def length(self):
        return len(self.letters)

    def sort_key(self):
        idx = self.graph.index
        return (len(self.letters), tuple(idx(a) for a in self.letters))

    def __mul__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        if self.graph != other.graph:
            raise ValueError("traces live over different graphs")
        return Trace(self.graph, self.letters + other.letters)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.letters == other.letters and self.graph == other.graph

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "*".join(self.letters) if self.letters else "ε"

    def __repr__(self):
        return f"<Trace {self}>"


_SYLLABLE_RE = re.compile(r"[A-Za-z0-9_]+(?:\^[+-]?\d+)?")

# Each commutator level doubles a word, so nesting depth alone can make the
# expansion exponential; a parsed word may hold at most this many syllables,
# and a word expanded letter by letter (a surface word's image) at most this
# many letters.
MAX_WORD_SYLLABLES = 100_000


def parse_syllables(text):
    """Parse word syntax into raw (generator, exponent) pairs.

    Grammar: whitespace-separated syllables `gen` or `gen^E` with E a nonzero
    signed integer, the bare literal `1` for the identity, and nestable
    commutator brackets `[w1,w2]`.  (A vertex literally named "1" cannot be
    referenced bare; `1^E` still parses as that generator.)  Brackets are
    expanded without recursion, and a word whose expansion would exceed
    MAX_WORD_SYLLABLES syllables is rejected before it is built.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "[],":
            tokens.append(ch)
            pos += 1
            continue
        match = _SYLLABLE_RE.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse word at {text[pos:pos + 12]!r}")
        tokens.append(match.group(0))
        pos = match.end()

    # One frame per open bracket: the enclosing syllables and the enclosing
    # bracket's left operand (None until its ',' is seen).
    frames = []
    current, left = [], None
    for token in tokens:
        if token == "[":
            frames.append((current, left))
            current, left = [], None
        elif token == ",":
            if not frames:
                raise ValueError("unexpected ',' in word")
            if left is not None:
                raise ValueError("expected ']' closing commutator brackets")
            left, current = current, []
        elif token == "]":
            if not frames:
                raise ValueError("unexpected ']' in word")
            if left is None:
                raise ValueError("expected ',' inside commutator brackets")
            right = current
            current, outer_left = frames.pop()
            check_word_size(len(current) + 2 * (len(left) + len(right)))
            current.extend(left)
            current.extend(right)
            current.extend((s, -e) for s, e in reversed(left))
            current.extend((s, -e) for s, e in reversed(right))
            left = outer_left
        elif token != "1":
            name, _, exp = token.partition("^")
            value = _digits(exp, "an exponent") if exp else 1
            if value == 0:
                raise ValueError(f"zero exponent in {token!r}")
            current.append((name, value))
            check_word_size(len(current))
    if frames:
        if left is None:
            raise ValueError("expected ',' inside commutator brackets")
        raise ValueError("expected ']' closing commutator brackets")
    return current


def check_word_size(count, unit="syllables"):
    """Reject a word that would expand to more than MAX_WORD_SYLLABLES units."""
    if count > MAX_WORD_SYLLABLES:
        raise ValueError(f"word expands to more than {MAX_WORD_SYLLABLES} {unit}")


def parse_word(text, graph):
    """Parse word syntax against a graph, validating generator names."""
    return GroupWord(graph, parse_syllables(text))
