"""Oracles that share no code with raaglcs.

* Growth series: the spherical growth series of a right-angled Artin group
  is 1 / sum_k c_k (-2t/(1+t))^k, where c_k counts the k-cliques of the
  commutation graph (Chiswell 1994, "The growth series of a graph
  product").  It gives the exact number of elements of each norm.
* Piling: the per-generator pile algorithm decides the word problem and
  gives the geodesic length of any word.
* The standard genus-g curve system, written out in closed form.
"""

from __future__ import annotations

import itertools
import re


class RaagGraph:
    """Commutation graph with named vertices; `edges` holds unordered pairs."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = {frozenset(e) for e in edges}

    def adjacent(self, u, v):
        return frozenset((u, v)) in self.edges

    def file_text(self):
        edges = " ".join("-".join(sorted(e, key=self.vertices.index))
                         for e in sorted(self.edges, key=sorted))
        return f"vertices: {' '.join(self.vertices)}\nedges: {edges}\n"

    def clique_counts(self):
        counts = [1]
        for size in itertools.count(1):
            n = sum(1 for subset in itertools.combinations(self.vertices, size)
                    if all(self.adjacent(u, v)
                           for u, v in itertools.combinations(subset, 2)))
            if n == 0:
                return counts
            counts.append(n)

    def sphere_sizes(self, max_norm):
        """Number of elements of norm exactly n, for n = 0..max_norm."""
        size = max_norm + 1

        def mul(p, q):
            out = [0] * size
            for i, a in enumerate(p):
                if a:
                    for j, b in enumerate(q[:size - i]):
                        out[i + j] += a * b
            return out

        # x = -2t / (1 + t) as a power series: -2 * sum_{n>=1} (-1)^(n-1) t^n
        x = [0] + [-2 * (-1) ** (n - 1) for n in range(1, size)]
        denom = [0] * size
        power = [1] + [0] * (size - 1)
        for c in self.clique_counts():
            denom = [d + c * p for d, p in zip(denom, power)]
            power = mul(power, x)
        # invert the series; denom[0] == 1, so every coefficient is an integer
        inverse = [1] + [0] * (size - 1)
        for n in range(1, size):
            inverse[n] = -sum(denom[i] * inverse[n - i] for i in range(1, n + 1))
        return inverse


def pile_norm(letters, graph):
    """Geodesic length of a word given as (generator, +-1) letters.

    A letter drops onto its own pile and a blocker onto the pile of every
    generator it does not commute with; it cancels instead when the top of
    its own pile is its inverse.  What remains is the reduced word.
    """
    blocks = {v: [u for u in graph.vertices if u == v or not graph.adjacent(u, v)]
              for v in graph.vertices}
    piles = {v: [] for v in graph.vertices}
    remaining = 0
    for gen, sign in letters:
        if piles[gen] and piles[gen][-1] == -sign:
            remaining -= 1
            for v in blocks[gen]:
                piles[v].pop()
        else:
            remaining += 1
            for v in blocks[gen]:
                piles[v].append(0)
            piles[gen][-1] = sign
    return remaining


_SYLLABLE = re.compile(r"([A-Za-z0-9_]+)(?:\^(-?\d+))?\Z")


def parse_letters(text):
    """Letters of a bracket-free word such as `a^2 b^-1 c`; `1` is empty."""
    letters = []
    for token in text.split():
        if token == "1":
            continue
        match = _SYLLABLE.match(token)
        if not match:
            raise ValueError(f"bad syllable {token!r}")
        exp = int(match.group(2) or 1)
        letters += [(match.group(1), 1 if exp > 0 else -1)] * abs(exp)
    return letters


def inverse(letters):
    return [(g, -s) for g, s in reversed(letters)]


def commutator(u, v):
    return u + v + inverse(u) + inverse(v)


def render(letters):
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in letters)


def surface_graph(genus):
    """Curve graph of the standard system: x_{k-1}-y_k, x_k-y_k, x_0-z, x_g-z."""
    curves = [f"x{i}" for i in range(genus + 1)]
    curves += [f"y{k}" for k in range(1, genus + 1)] + ["z"]
    edges = [("x0", "z"), (f"x{genus}", "z")]
    for k in range(1, genus + 1):
        edges += [(f"x{k - 1}", f"y{k}"), (f"x{k}", f"y{k}")]
    return RaagGraph(curves, edges)


def surface_phi(letters):
    """Crossing word of a surface word: a_k -> x_{k-1} x_k^-1, b_k -> x_k z y_k x_k^-1."""
    out = []
    for gen, sign in letters:
        k = int(gen[1:])
        if gen[0] == "a":
            block = [(f"x{k - 1}", 1), (f"x{k}", -1)]
        else:
            block = [(f"x{k}", 1), ("z", 1), (f"y{k}", 1), (f"x{k}", -1)]
        out += block if sign == 1 else inverse(block)
    return out
