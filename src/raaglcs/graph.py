"""Commutation graphs: vertices are group generators, edges mark commuting pairs."""

from __future__ import annotations

import re

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

# Graphs with more vertices are refused before anything is built: the
# per-vertex masks hold up to n^2 bits in all (about 48 MiB at this bound).
# It admits the curve graph of the largest standard curve system, genus 8333
# with 16,668 curves.
MAX_VERTICES = 20_000


def check_type(value, kind, what):
    """ValueError naming the type of `value` unless it is a `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def check_iterable(items, message):
    """tuple(items); ValueError(message.format(items)) when items is not iterable."""
    try:
        items = iter(items)
    except TypeError:
        raise ValueError(message.format(items)) from None
    return tuple(items)


def check_pairs(items, message):
    """Yield each item as a pair; ValueError(message.format(item)) on one that is not."""
    item = items  # named when `items` itself is not iterable
    try:
        for item in items:
            first, second = item
            yield first, second
    except (TypeError, ValueError):
        raise ValueError(message.format(item)) from None


class Graph:
    """Finite simple graph with ordered, named vertices.

    The declaration order of the vertices is the total order used by every
    canonical form and tie-break downstream.  Instances are immutable and
    hashable; equal vertex lists and edge sets compare equal.

    `masks[i]` is the bitmask of the vertex indices adjacent to vertex i; the
    word and series kernels test commutation with it on int-coded letters.
    """

    __slots__ = ("vertices", "edges", "masks", "_index", "_hash")

    def __init__(self, vertices, edges=()):
        vertices = check_iterable(vertices, "vertices {!r} are not a sequence of names")
        if len(vertices) > MAX_VERTICES:
            raise ValueError(f"graph has {len(vertices)} vertices, more than {MAX_VERTICES}")
        index = {}
        for v in vertices:
            if not isinstance(v, str) or not _NAME_RE.match(v):
                raise ValueError(f"invalid vertex name {v!r} (need nonempty [A-Za-z0-9_])")
            if v in index:
                raise ValueError(f"duplicate vertex name {v!r}")
            index[v] = len(index)
        masks = [0] * len(vertices)
        pairs = set()
        for u, v in check_pairs(edges, "edge {!r} is not a pair of vertex names"):
            for end in (u, v):
                if not isinstance(end, str) or end not in index:
                    raise ValueError(f"edge endpoint {end!r} is not a declared vertex")
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if index[u] > index[v]:
                u, v = v, u
            pairs.add((u, v))
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
        self.vertices = vertices
        self.edges = frozenset(pairs)
        self.masks = tuple(masks)
        self._index = index
        self._hash = hash((vertices, self.edges))

    def index(self, v):
        """Position of vertex v in the declaration order."""
        try:
            return self._index[v]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValueError(f"unknown vertex {v!r}") from None

    def are_adjacent(self, u, v):
        """True iff u and v are joined by an edge (i.e. commute); false when u == v."""
        return bool(self.masks[self.index(u)] >> self.index(v) & 1)

    def is_complete(self):
        """True iff every pair of distinct vertices is joined by an edge."""
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({list(self.vertices)!r}, {sorted(self.edges)!r})"


def _keyed_lines(text, once, repeated=()):
    """(lineno, key, rest) for each nonblank line of a line-based format, in
    file order, so a caller parsing each as it comes reports the first fault.
    Each stripped line must start with a key; one in `once` starts one line."""
    keys = once + repeated
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        key = next((k for k in keys if line.startswith(k)), None)
        if key is None:
            raise ValueError(f"line {lineno}: unknown line {raw!r}")
        if key in once:
            if key in seen:
                raise ValueError(f"line {lineno}: duplicate {key.rstrip(':')} line")
            seen.add(key)
        yield lineno, key, line[len(key):]


def _pairs(body, lineno, what):
    """The `u-v` tokens of a line body as (u, v) pairs."""
    pairs = []
    for token in body.split():
        ends = token.split("-")
        if len(ends) != 2:
            raise ValueError(f"line {lineno}: bad {what} token {token!r}")
        pairs.append((ends[0], ends[1]))
    return pairs


def parse_graph(text):
    """Parse the line-based graph format.

        vertices: a b c
        edges: a-b b-c

    The edges line may be empty or omitted; blank lines are skipped; any
    other line is an error.
    """
    vertices = None
    edges = ()
    for lineno, key, body in _keyed_lines(text, ("vertices:", "edges:")):
        if key == "vertices:":
            vertices = body.split()
        else:
            edges = _pairs(body, lineno, "edge")
    if vertices is None:
        raise ValueError("missing vertices line")
    return Graph(vertices, edges)


def load_graph(path):
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())
