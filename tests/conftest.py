"""Shared fixtures-as-functions: small graphs, seeded random samplers, the
check that a word is marked canonical, the brute-force swap-closure oracle
used to pin canonical forms, Chiswell's growth series used to count
enumerations, the generic series oracle for `mu`, the one-image reference
for the degree sweep in `magnus`, the match-by-match word parser that
pins `parse_syllables`, and the Hypothesis profiles."""

import gc
import itertools
import math
import os
import re

from hypothesis import settings

from raaglcs import Graph, GroupWord, Trace, TruncatedSeries
from raaglcs.words import _digits, check_word_size

# CI runs with HYPOTHESIS_PROFILE=ci, so a failing property prints the blob
# that replays it with @reproduce_failure.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def f2():
    return Graph(["a", "b"])


def z2():
    return Graph(["a", "b"], [("a", "b")])


def p3():
    return Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def c4():
    return Graph(["a", "b", "c", "d"],
                 [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def k3():
    return Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def k3_minus_edge():
    return Graph(["a", "b", "c"], [("a", "c"), ("b", "c")])


def random_graph(rng, max_vertices=4, min_vertices=2):
    n = rng.randint(min_vertices, max_vertices)
    vertices = ["a", "b", "c", "d", "e"][:n]
    edges = [pair for pair in itertools.combinations(vertices, 2)
             if rng.random() < 0.4]
    return Graph(vertices, edges)


def random_word(rng, graph, max_syllables=4, max_exp=3):
    exps = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    syls = [(rng.choice(graph.vertices), rng.choice(exps))
            for _ in range(rng.randint(0, max_syllables))]
    return GroupWord(graph, syls)


def marked_canonical(word):
    """True iff `canonical()` returns the word itself and the word holds no
    reference to itself, so freeing it needs no cycle collection."""
    return word.canonical() is word and all(r is not word for r in gc.get_referents(word))


def swap_closure_lex_min(word):
    """Oracle for canonical forms: breadth-first closure of single swaps of
    adjacent commuting syllables on the fully reduced word, then lex-min.

    It starts from `word.reduced()`, so it checks only that the canonical
    form is the lex-least arrangement of its swap class; that the reduction
    itself is right is checked by the piling oracle, `piling_norm`."""
    graph = word.graph
    start = word.reduced().syllables
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for syls in frontier:
            for i in range(len(syls) - 1):
                (s, e), (t, f) = syls[i], syls[i + 1]
                if s != t and graph.are_adjacent(s, t):
                    swapped = syls[:i] + ((t, f), (s, e)) + syls[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        grown.append(swapped)
        frontier = grown
    idx = graph.index
    return min(seen, key=lambda syls: tuple((idx(s), e) for s, e in syls))


def piling_norm(word):
    """Independent geodesic-norm oracle: the per-generator pile algorithm
    (Crisp-Godelle-Wiest 2009).

    Letters drop onto their own pile and a blocker onto every non-commuting
    pile; a letter cancels when it meets its inverse on top of its own pile.
    The letters left on the piles spell a geodesic, so their number is the
    norm.
    """
    graph = word.graph
    letters = []
    for s, e in word.syllables:
        letters += [(s, 1 if e > 0 else -1)] * abs(e)
    piles = {v: [] for v in graph.vertices}
    remaining = 0
    for s, eps in letters:
        if piles[s] and piles[s][-1] == -eps:
            remaining -= 1
            for v in graph.vertices:
                if v == s or not graph.are_adjacent(s, v):
                    piles[v].pop()
        else:
            remaining += 1
            piles[s].append(eps)
            for v in graph.vertices:
                if v != s and not graph.are_adjacent(s, v):
                    piles[v].append(0)
    return remaining


def piling_is_trivial(word):
    """The word problem by piling: trivial iff nothing remains on the piles."""
    return piling_norm(word) == 0


def freely_reduced_strings(graph, max_length):
    """All strings over the generators and inverses with no immediate
    cancellation, as syllable tuples, lengths 1..max_length."""
    letters = [(s, 1) for s in graph.vertices] + [(s, -1) for s in graph.vertices]
    level = [()]
    for _ in range(max_length):
        grown = []
        for string in level:
            for s, e in letters:
                if string and string[-1] == (s, -e):
                    continue
                grown.append(string + ((s, e),))
        level = grown
        yield from level


def growth_series(graph, max_norm):
    """Sphere sizes 0..max_norm from Chiswell's spherical growth series
    1 / sum_k c_k x^k, x = -2t / (1 + t), c_k the number of k-cliques
    (Chiswell 1994, The growth series of a graph product).  Cliques are
    counted by brute force over vertex subsets, and every step is a
    truncated integer power-series product or inverse."""
    def product(p, q):
        out = [0] * (max_norm + 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q[:max_norm + 1 - i]):
                out[i + j] += a * b
        return out

    cliques = [sum(1 for subset in itertools.combinations(graph.vertices, k)
                   if all(graph.are_adjacent(u, v)
                          for u, v in itertools.combinations(subset, 2)))
               for k in range(len(graph.vertices) + 1)]
    x = [0] + [-2 * (-1) ** i for i in range(max_norm)]  # -2t * sum (-t)^i
    denominator = [0] * (max_norm + 1)
    power = [1] + [0] * max_norm
    for c in cliques:
        denominator = [d + c * p for d, p in zip(denominator, power)]
        power = product(power, x)
    inverse = [1] + [0] * max_norm  # denominator[0] = c_0 = 1
    for n in range(1, max_norm + 1):
        inverse[n] = -sum(denominator[j] * inverse[n - j] for j in range(1, n + 1))
    return inverse


def product_image(word, cap):
    """The single-cap reference for the degree sweep in `magnus`: the word's
    image below this one cap, not reduced first, as {lex-least letter codes:
    nonzero coefficient}.  It multiplies 1 on the right by each syllable's
    (1 + s)^e in turn, with binomials from math.comb and no work budget.
    The powers of s go in by its own scan, sharing no code with
    `GroupWord.canonical` or the kernel's `insert_packed`: back across the
    letters of t that commute with s, and before the first of them greater
    than s."""
    graph = word.graph
    image = {(): 1}
    for s, e in word.syllables:
        if not e:
            continue
        code = graph.index(s)
        out = {}
        for t, c in image.items():
            pos = len(t)
            for i in range(len(t) - 1, -1, -1):
                if not graph.are_adjacent(s, graph.vertices[t[i]]):
                    break
                if t[i] > code:
                    pos = i
            for k in range(cap - len(t)):
                b = math.comb(e, k) if e > 0 else (-1) ** k * math.comb(-e + k - 1, k)
                if not b:  # k > e > 0
                    break
                term = t[:pos] + (code,) * k + t[pos:]
                out[term] = out.get(term, 0) + c * b
        image = {t: c for t, c in out.items() if c}
    return image


def image_at_one_cap(word, cap):
    """The single-cap reference for `lcs_depth` and `in_dimension_subgroup`:
    `product_image` at this one cap, read as (least positive term as
    (degree, letter codes) or None, image == 1)."""
    image = product_image(word, cap)
    positive = [(len(t), t) for t in image if t]
    return min(positive, default=None), image == {(): 1}


def series_one(graph, cap):
    """The constant series 1."""
    return TruncatedSeries(graph, cap, [(Trace(graph), 1)])


def series_sum(*parts):
    """The sum of series over one graph at one cap."""
    first = parts[0]
    return TruncatedSeries(first.graph, first.cap,
                           [term for part in parts for term in part.terms.items()])


def binomial_factor(graph, s, e, cap):
    """(1 + s)^e truncated below cap, from math.comb: the coefficient of s^k
    is C(e, k) for e >= 0 and (-1)^k C(-e + k - 1, k) for e < 0."""
    return TruncatedSeries(graph, cap, [
        (Trace(graph, [s] * k),
         math.comb(e, k) if e >= 0 else (-1) ** k * math.comb(-e + k - 1, k))
        for k in range(cap)])


def generic_mu(word, cap):
    """mu by the generic path: the series product of the syllables' binomial
    factors.  It does not run the kernel's degree sweep, but it shares the
    kernel's insertion: `TruncatedSeries.__mul__` multiplies traces by
    `Trace.__mul__`, which inserts each letter with `insert_packed`, the
    kernel's own routine.  `product_image` is the oracle that shares no
    insertion code."""
    out = series_one(word.graph, cap)
    for s, e in word.syllables:
        out = out * binomial_factor(word.graph, s, e, cap)
    return out


# A bracket or comma, a syllable `gen` or `gen^E`, or any other non-space character.
ORACLE_TOKEN_RE = re.compile(r"([\[\],])|([A-Za-z0-9_]+)(?:\^([+-]?\d+))?|(\S)")


def oracle_parse_syllables(text):
    """The reference for `parse_syllables`: one match object per token, every
    token lexed before the brackets are read, errors in the same order and
    with the same messages."""
    tokens = list(ORACLE_TOKEN_RE.finditer(text))
    for match in tokens:
        if match[4]:
            raise ValueError(f"cannot parse word at {text[match.start():match.start() + 12]!r}")
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
