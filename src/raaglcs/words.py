"""Syllable words over a commutation graph and traces in its positive monoid.

A word stores only its `codes`, each generator its vertex index, and a trace
only its packed `key`.  Names are read once, with `Graph.index`, where one is
built from names, and written only where one is printed or its `syllables`
or `letters` are read; `magnus`, `lab` and `surface` work on codes and keys.

Two words represent the same group element exactly when their canonical forms
coincide: full reduction makes the word's syllable multiset unique up to swaps
of adjacent commuting syllables, and the lexicographically least arrangement
is a well-defined representative of that swap class.  One pass of
`GroupWord.canonical` computes it, reducing as it goes: each syllable crosses
the suffix it commutes with, then merges with an equal generator found just
before that suffix or goes in before the suffix's first greater generator.
`insert_packed` runs the same insertion on a packed `Trace.key` and on the
Magnus kernel's terms.
"""

from __future__ import annotations

import re
import sys


class GroupWord:
    """A word s1^e1 ... sn^en over the vertices of a commutation graph.

    Construction is purely syntactic: nothing is cancelled or reordered until
    `reduced()` or `canonical()` is called.  Instances are immutable, and
    `codes` holds the word as (vertex index, exponent) pairs.
    """

    __slots__ = ("graph", "codes", "_canonical")

    def __init__(self, graph, syllables=()):
        codes = []
        for gen, exp in syllables:
            g = graph.index(gen)
            check_exponent(gen, exp)
            codes.append((g, exp))
        self.graph, self.codes, self._canonical = graph, tuple(codes), None

    @classmethod
    def _trusted(cls, graph, codes):
        """A word from a code tuple already in canonical form; nothing is checked."""
        word = object.__new__(cls)
        word.graph, word.codes, word._canonical = graph, codes, word
        return word

    @classmethod
    def _unreduced(cls, graph, codes):
        """A word from a checked code tuple, its canonical form unknown."""
        word = object.__new__(cls)
        word.graph, word.codes, word._canonical = graph, codes, None
        return word

    @property
    def syllables(self):
        return tuple((self.graph.vertices[g], e) for g, e in self.codes)

    def reduced(self):
        """Equivalent fully reduced word: the canonical form."""
        return self.canonical()

    def canonical(self):
        """The lexicographically least fully reduced representative.

        Syllables compare by (generator order, exponent) and two syllables
        commute iff their generators are adjacent.  Each syllable is appended
        to the canonical form of the prefix before it.  A backward scan finds
        the suffix it commutes with.  If the syllable just before that suffix
        has the same generator the two merge (and vanish on a zero sum).
        Otherwise a forward scan puts it before the suffix's first greater
        generator; no syllable of the suffix has its generator, since a vertex
        is not adjacent to itself, so that scan compares generators only.  By
        the Anisimov-Knuth characterization (Inhomogeneous sorting, 1979;
        Diekert-Rozenberg, The Book of Traces, 1995) a sequence is the
        lex-least of its commutation class iff it has no factor b u a with
        a < b and a commuting with b and with every letter of u, so this keeps
        the form lex-least.  Merging changes an exponent or removes a syllable
        that everything after it commutes with, so the result stays fully
        reduced and lex-least.  Each syllable scans the suffix it crosses, so
        the pass is quadratic in the worst case: in (y z x)^N, x adjacent to
        y and z, each x crosses all y and z before it.
        """
        if self._canonical is not None:
            return self._canonical
        masks = self.graph.masks
        gens, exps = [], []
        for g, exp in self.codes:
            if not exp:
                continue
            mask, start = masks[g], len(gens)
            while start and mask >> gens[start - 1] & 1:
                start -= 1
            if start and gens[start - 1] == g:
                exp += exps[start - 1]
                if exp:
                    exps[start - 1] = exp
                else:
                    del gens[start - 1], exps[start - 1]
            else:
                end = len(gens)
                while start < end and gens[start] < g:
                    start += 1
                gens.insert(start, g)
                exps.insert(start, exp)
        self._canonical = GroupWord._trusted(self.graph, tuple(zip(gens, exps)))
        return self._canonical

    def equals(self, other):
        """True iff both words represent the same group element."""
        if self.graph != other.graph:
            raise ValueError("words live over different graphs")
        return self.canonical().codes == other.canonical().codes

    def norm(self):
        """Geodesic word length: the sum of |e_i| over the fully reduced form."""
        return sum(abs(e) for _, e in self.canonical().codes)

    def __mul__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        if self.graph != other.graph:
            raise ValueError("words live over different graphs")
        return GroupWord._unreduced(self.graph, self.codes + other.codes)

    def inverse(self):
        return GroupWord._unreduced(self.graph, tuple((g, -e) for g, e in reversed(self.codes)))

    def __str__(self):
        if not self.codes:
            return "1"
        vertices = self.graph.vertices
        try:
            return " ".join([vertices[g] + ("" if e == 1 else f"^{e}") for g, e in self.codes])
        except ValueError:  # an exponent past the integer print limit
            for _, e in self.codes:
                _digits(e, "an exponent")
            raise

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


def check_exponent(gen, exp):
    """Reject an exponent of generator `gen` that is not an int, a bool included."""
    if isinstance(exp, bool) or not isinstance(exp, int):
        raise ValueError(f"exponent for {gen!r} must be an integer, got {exp!r}")


def check_int(value, least, message):
    """Reject anything but an int >= least, a bool included, with
    ValueError(message.format(value))."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(message.format(value))


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


class Trace:
    """A positive monoid element, stored as one int `key`: a sentinel 1 bit,
    then its lex-least letters, the first most significant, each its vertex
    index in w = `letter_bits(graph)` bits.  The empty trace's key is 1.

    All words for the same trace have the same length, so `length` is
    well-defined; a key has 1 + length w bits, so keys order traces by
    (length, lex), and the sentinel tells a run of vertex 0 from a shorter
    one.  Traces are hashable values and multiply by `insert_packed` of each
    letter of the right factor in turn; `codes` and `letters` read the key.
    """

    __slots__ = ("graph", "key")

    def __init__(self, graph, letters=()):
        masks, w, key = graph.masks, letter_bits(graph), 1
        for s in [graph.index(a) for a in letters]:
            key = insert_packed(key, s, s, w, masks[s], w)
        self.graph, self.key = graph, key

    @classmethod
    def _trusted(cls, graph, key):
        """A trace from a packed key of lex-least letters; nothing is checked."""
        trace = object.__new__(cls)
        trace.graph, trace.key = graph, key
        return trace

    @property
    def codes(self):
        """The letters as vertex indices, first letter first."""
        key, w = self.key, letter_bits(self.graph)
        return tuple(key >> i & (1 << w) - 1 for i in range(key.bit_length() - 1 - w, -1, -w))

    @property
    def letters(self):
        return tuple(self.graph.vertices[c] for c in self.codes)

    @property
    def length(self):
        return (self.key.bit_length() - 1) // letter_bits(self.graph)

    def __mul__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        if self.graph != other.graph:
            raise ValueError("traces live over different graphs")
        masks, w, key = self.graph.masks, letter_bits(self.graph), self.key
        for s in other.codes:
            key = insert_packed(key, s, s, w, masks[s], w)
        return Trace._trusted(self.graph, key)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.key == other.key and self.graph == other.graph

    def __hash__(self):
        return hash((self.graph, self.key))

    def __str__(self):
        return "*".join(self.letters) if self.key != 1 else "ε"

    def __repr__(self):
        return f"<Trace {self}>"


def letter_bits(graph):
    """Bits per letter of a packed trace: enough for the highest vertex index."""
    return max(1, (len(graph.vertices) - 1).bit_length())


def insert_packed(key, s, run, shift, mask, w):
    """A `Trace.key` times s^k, `run` holding the k copies of s in its low
    shift = k w bits and mask being s's adjacency bitmask.

    The run goes in at its Anisimov-Knuth point, as in `GroupWord.canonical`:
    across the suffix of key that s commutes with, read from the low end a
    letter per shift and mask, before that suffix's first letter greater
    than s.  With q letters after that point the lex-least result is
    ((key >> q w) << k w | run) << q w | key & (2^(q w) - 1).
    """
    low = (1 << w) - 1
    x, bits, after = key, 0, 0  # after: the bits behind the insertion point
    while x > 1 and mask >> (a := x & low) & 1:  # x = 1: no letter left
        bits += w
        if a > s:
            after = bits
        x >>= w
    return ((key >> after) << shift | run) << after | key & ((1 << after) - 1)


# A bracket or comma, a syllable `gen` or `gen^E`, or any other non-space character.
_TOKEN_RE = re.compile(r"([\[\],])|([A-Za-z0-9_]+)(?:\^([+-]?\d+))?|(\S)")

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
    tokens = list(_TOKEN_RE.finditer(text))
    for match in tokens:
        if match[4]:  # lexed before the brackets, so this error comes first
            raise ValueError(f"cannot parse word at {text[match.start():match.start() + 12]!r}")

    # One frame per open bracket: the enclosing syllables and the enclosing
    # bracket's left operand (None until its ',' is seen).
    frames = []
    current, left = [], None
    for match in tokens:
        token = match[0]
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
            name, exp = match[2], match[3]
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
