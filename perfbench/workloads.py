"""Seeded query lists for the three workloads, each query with its own check.

A query is an argument vector for the raaglcs CLI plus a function
`check(code, stdout)` that returns None when the answer is right and a
message otherwise.  Checks use only the oracles in `oracles.py` and facts
that hold on every seed; the default seed's outputs are also compared with
the digests committed in `expected.json` (see run.py).

The seed picks vertex names, declaration order, words and exponents.  It
does not pick sizes: the norm of every generated commutator is fixed by its
weight, so the work a round does is nearly the same on every seed.
"""

from __future__ import annotations

import os
import random
import re

from oracles import (RaagGraph, commutator, inverse, parse_letters, pile_norm,
                     render, surface_graph, surface_phi)

# commutation graphs by vertex role; roles are named per seed
SHAPES = {
    "f2": (2, []),
    "p3": (3, [(0, 1), (1, 2)]),
    "k3e": (3, [(0, 2), (1, 2)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
}
# free factors of each group (pairs of non-commuting roles) and central roles
FACTORS = {"f2": ([(0, 1)], []), "p3": ([(0, 2)], [1]),
           "k3e": ([(0, 1)], [2]), "c4": ([(0, 2), (1, 3)], [])}
# depth function values, d(k) on F2 (exhaustive search)
D_F2 = {2: 4, 3: 8}
# deep: commutators per weight on each graph (C4 entries carry two letters).
# Weights of similar cost come in batches large enough that the median and
# the 95th percentile fall inside a batch, not on the step between two.
DEEP_COUNTS = {
    "f2": {2: 10, 3: 16, 4: 8, 5: 5, 6: 3, 7: 1},
    "p3": {2: 10, 3: 16, 4: 8, 5: 5, 6: 3, 7: 1},
    "k3e": {2: 10, 3: 16, 4: 8, 5: 5, 6: 3, 7: 1},
    "c4": {2: 10, 3: 10, 4: 8, 5: 5},
}
# surface, per genus: {weight: (commutators, norm of their image)}.  The
# image norm is fixed at its most common value because the cost of a
# commutator's depth grows steeply with it (and with weight and genus:
# weight 5 takes seconds at genus 8).
SURFACE_COMMUTATORS = {2: {2: (4, 8), 3: (4, 20), 4: (2, 44), 5: (1, 76)},
                       8: {2: (4, 12), 3: (4, 28), 4: (1, 60)},
                       16: {2: (4, 12), 3: (4, 28)},
                       24: {2: (4, 12), 3: (4, 28)},
                       48: {2: (4, 12), 3: (3, 28)}}
# surface, per genus: random words of this length through surface-depth
# and surface-phi
SURFACE_RANDOM_DEPTH = 20
SURFACE_PHI = 12
SURFACE_WORD_LENGTH = 40
NF_LENGTHS = (200, 400, 600, 800)


class Query:
    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


class Workspace:
    """Graph files and names for one seed, written under `directory`."""

    def __init__(self, rng, directory):
        self.rng = rng
        self.graphs = {}
        self.paths = {}
        self.roles = {}
        for shape, (n, edges) in SHAPES.items():
            names = rng.sample("abcdefghijklmnopqrstuvw", n)
            order = list(names)
            rng.shuffle(order)
            graph = RaagGraph(order, [(names[u], names[v]) for u, v in edges])
            path = os.path.join(directory, f"{shape}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(graph.file_text())
            self.graphs[shape], self.paths[shape], self.roles[shape] = graph, path, names


# -- checks -----------------------------------------------------------------

def _expect_code(code):
    return None if code == 0 else f"exit code {code}, expected 0"


def check_verify(graph, max_norm):
    spheres = graph.sphere_sizes(max_norm)

    def check(code, out):
        lines = out.splitlines()
        if code != 0 or not lines or lines[-1] != "PASS":
            return f"verify did not PASS (exit {code})"
        per_norm = [0] * (max_norm + 1)
        for line in lines[:-2]:
            n, d, c = map(int, re.fullmatch(r"norm=(\d+) depth=(\d+) count=(\d+)", line).groups())
            if not 1 <= d <= n <= max_norm:
                return f"bad histogram cell {line!r}"
            per_norm[n] += c
        if per_norm[1:] != spheres[1:]:
            return f"sphere sizes {per_norm[1:]} != growth series {spheres[1:]}"
        if lines[-2] != f"checked={sum(spheres[1:])} max_norm={max_norm}":
            return f"bad total line {lines[-2]!r}, growth series gives {sum(spheres[1:])}"
        return None
    return check


def check_enum(graph, max_norm):
    spheres = graph.sphere_sizes(max_norm)

    def check(code, out):
        if code != 0:
            return _expect_code(code)
        lines = out.splitlines()
        if len(set(lines)) != len(lines):
            return "enum listed an element twice"
        per_norm = [0] * (max_norm + 1)
        for line in lines:
            n = pile_norm(parse_letters(line), graph)
            if not 1 <= n <= max_norm:
                return f"element {line!r} has norm {n}"
            per_norm[n] += 1
        if per_norm[1:] != spheres[1:]:
            return f"sphere sizes {per_norm[1:]} != growth series {spheres[1:]}"
        return None
    return check


def check_dfun(graph, k):
    def check(code, out):
        match = re.fullmatch(r"d\((\d+)\) = (\d+) \(exact\) witness=(.+)\n", out)
        if code != 0 or not match:
            return f"unexpected dfun output {out!r}"
        norm = pile_norm(parse_letters(match.group(3)), graph)
        if int(match.group(2)) != D_F2[k] or norm != D_F2[k]:
            return f"d({k}) = {match.group(2)} with witness norm {norm}, expected {D_F2[k]}"
        return None
    return check


def check_depth(k):
    def check(code, out):
        return None if code == 0 and out == f"depth={k}\n" else f"expected depth={k}, got {out!r}"
    return check


def check_magnus(k, cap):
    """Image of a depth-k element truncated below cap: 1 + terms of degree k..cap-1."""
    def check(code, out):
        if code != 0:
            return _expect_code(code)
        terms = out.split()
        if terms[0] != "1":
            return f"constant term is not 1: {out[:40]!r}"
        degrees = [len(body.split("*")) - 1 for body in terms[2::2]]
        if any(not k <= d < cap for d in degrees) or (cap > k) != bool(degrees):
            return f"magnus image degrees {sorted(set(degrees))} wrong for depth {k} cap {cap}"
        return None
    return check


def check_nf(graph, letters):
    def check(code, out):
        if code != 0:
            return _expect_code(code)
        nf = parse_letters(out)
        if pile_norm(letters + inverse(nf), graph) != 0:
            return "normal form is a different element"
        if len(nf) != pile_norm(letters, graph):
            return "normal form is not geodesic"
        return None
    return check


def check_equal(code, out):
    return None if code == 0 and out == "equal\n" else f"expected equal, got {out!r}"


def check_surface_relator(code, out):
    want = "relator: ok\ninjectivity: skipped (no component data)\n"
    return None if code == 0 and out == want else f"unexpected surface-check output {out!r}"


def check_surface_depth(genus, letters, weight):
    image_norm = pile_norm(surface_phi(letters), surface_graph(genus))

    def check(code, out):
        if image_norm == 0:
            want = f"|w|_S={len(letters)} phi(w)=1\n"
            return None if code == 0 and out == want else f"expected {want!r}, got {out!r}"
        match = re.fullmatch(r"\|w\|_S=(\d+) \|phi\(w\)\|_T=(\d+) depth=(\d+) "
                             r"4\*\|w\|_S>=depth: ok\n", out)
        if code != 0 or not match:
            return f"transfer bound not reported ok: {out!r}"
        length, norm, depth = map(int, match.groups())
        if length != len(letters) or norm != image_norm:
            return f"lengths {length}, {norm}; oracle gives {len(letters)}, {image_norm}"
        if not weight <= depth <= norm:
            return f"depth {depth} outside [{weight}, {norm}]"
        return None
    return check


def check_surface_phi(genus, letters):
    graph = surface_graph(genus)
    image = surface_phi(letters)

    def check(code, out):
        if code != 0:
            return _expect_code(code)
        got = parse_letters(out)
        if pile_norm(image + inverse(got), graph) != 0 or len(got) != pile_norm(image, graph):
            return "phi image differs from the crossing-word oracle"
        return None
    return check


# -- generators -------------------------------------------------------------

def _signed(rng, gen):
    return (gen, rng.choice((1, -1)))


def left_normed(entries):
    """Letters of [..[[e1, e2], e3].., ek] and its bracketed text."""
    letters, text = entries[0], render(entries[0])
    for entry in entries[1:]:
        letters = commutator(letters, entry)
        text = f"[{text},{render(entry)}]"
    return letters, text


def deep_commutator(rng, ws, shape, k):
    """Weight-k left-normed commutator of depth exactly k and fixed norm.

    Each entry carries one letter of every free factor (so the projection
    to each factor is a left-normed commutator of letters whose first two
    entries do not commute: nontrivial, of depth exactly k), plus sometimes
    a central letter.  Candidates are redrawn until the norm is 2^k per
    factor, the most common value.
    """
    graph, names = ws.graphs[shape], ws.roles[shape]
    factors, central = FACTORS[shape]
    target = len(factors) << k
    while True:
        entries = [[] for _ in range(k)]
        for u, v in factors:
            first = [names[u], names[v]]
            rng.shuffle(first)
            mains = first + [names[rng.choice((u, v))] for _ in range(k - 2)]
            for entry, gen in zip(entries, mains):
                entry.append(_signed(rng, gen))
        for entry in entries:
            if central and rng.random() < 0.3:
                entry.append(_signed(rng, names[rng.choice(central)]))
            rng.shuffle(entry)
        letters, text = left_normed(entries)
        if pile_norm(letters, graph) == target:
            return text


def _surface_generators(genus):
    return [f"{c}{k}" for k in range(1, genus + 1) for c in "ab"]


def random_surface_word(rng, genus, length):
    """Freely reduced random word of the given length."""
    gens = _surface_generators(genus)
    letters = []
    while len(letters) < length:
        letter = _signed(rng, rng.choice(gens))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return letters


def surface_commutator(rng, genus, k, image_norm):
    """Weight-k left-normed commutator of generators, freely reduced as
    written, whose crossing word has the given geodesic length."""
    gens = _surface_generators(genus)
    free = RaagGraph(gens, [])
    curves = surface_graph(genus)
    while True:
        first, second = rng.sample(gens, 2)
        entries = [[_signed(rng, first)], [_signed(rng, second)]]
        entries += [[_signed(rng, rng.choice(gens))] for _ in range(k - 2)]
        letters, text = left_normed(entries)
        if (pile_norm(letters, free) == len(letters)
                and pile_norm(surface_phi(letters), curves) == image_norm):
            return letters, text


# -- workloads --------------------------------------------------------------

def cover(ws):
    """Three small queries that reach every layer, so each layer timer runs."""
    f2 = ws.paths["f2"]
    return [[Query(["verify", "--graph", f2, "--max-norm", "2"], check_verify(ws.graphs["f2"], 2))],
            [Query(["dfun", "--graph", f2, "--k", "2", "--max-norm", "4"],
                   check_dfun(ws.graphs["f2"], 2))],
            [Query(["surface-depth", "--genus", "9", "[a1,b1]"],
                   check_surface_depth(9, commutator([("a1", 1)], [("b1", 1)]), 2))]]


def sweep(ws):
    g, p = ws.graphs, ws.paths
    units = [[Query(["verify", "--graph", p[s], "--max-norm", str(n)], check_verify(g[s], n))]
             for s, n in (("c4", 6), ("f2", 6), ("p3", 5), ("k3e", 5))]
    units.append([Query(["dfun", "--graph", p["f2"], "--k", "3", "--max-norm", "8"],
                        check_dfun(g["f2"], 3))])
    units.append([Query(["enum", "--graph", p["c4"], "--max-norm", "5"], check_enum(g["c4"], 5))])
    return units


def deep(ws):
    rng = ws.rng
    s, t = ws.roles["f2"]
    witness = s
    for _ in range(7):
        witness = f"[{witness},{t}]"
    units = [[Query(["depth", "--graph", ws.paths["f2"], witness], check_depth(8))]]
    for shape, counts in DEEP_COUNTS.items():
        path = ws.paths[shape]
        for k, n in counts.items():
            for i in range(n):
                text = deep_commutator(rng, ws, shape, k)
                cap = k + 1 if i % 4 else k
                units.append([Query(["depth", "--graph", path, text], check_depth(k))])
                units.append([Query(["magnus", "--graph", path, "--cap", str(cap), text],
                                    check_magnus(k, cap))])
    return units


def surface(ws):
    rng = ws.rng
    units = []
    for genus, commutators in SURFACE_COMMUTATORS.items():
        g = str(genus)
        units.append([Query(["surface-check", "--genus", g], check_surface_relator)])
        for _ in range(SURFACE_RANDOM_DEPTH):
            letters = random_surface_word(rng, genus, SURFACE_WORD_LENGTH)
            units.append([Query(["surface-depth", "--genus", g, render(letters)],
                                check_surface_depth(genus, letters, 1))])
        for k, (n, image_norm) in commutators.items():
            for _ in range(n):
                letters, text = surface_commutator(rng, genus, k, image_norm)
                units.append([Query(["surface-depth", "--genus", g, text],
                                    check_surface_depth(genus, letters, k))])
        for _ in range(SURFACE_PHI):
            letters = random_surface_word(rng, genus, SURFACE_WORD_LENGTH)
            units.append([Query(["surface-phi", "--genus", g, render(letters)],
                                check_surface_phi(genus, letters))])
    c4, path = ws.graphs["c4"], ws.paths["c4"]
    for length in NF_LENGTHS:
        letters = [_signed(rng, rng.choice(c4.vertices)) for _ in range(length)]
        text = render(letters)
        units.append([Query(["nf", "--graph", path, text], check_nf(c4, letters)),
                      Query(["eq", "--graph", path, text, "{prev}"], check_equal)])
    return units


WORKLOADS = {"sweep": sweep, "deep": deep, "surface": surface}


def build(workload, seed, directory):
    """The query list of one workload and seed; graph files go to `directory`."""
    ws = Workspace(random.Random(f"{workload}:{seed}"), directory)
    units = WORKLOADS[workload](ws)
    ws.rng.shuffle(units)
    return [q for unit in cover(ws) + units for q in unit]
