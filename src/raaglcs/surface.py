"""Curve systems on a closed oriented surface and the crossing homomorphism.

A dissection records oriented simple closed curves, which pairs of curves
cross, and, for each standard surface generator, the ordered signed crossing
sequence its loop makes with the curves.  Reading a loop's crossings defines
a homomorphism into the graph group whose commutation graph has the curves as
vertices and the crossing pairs as edges; it is well defined exactly when the
image of the genus relator [a1,b1]...[ag,bg] dies there, so a `Dissection`
reduces that image once, when it is built, and keeps the verdict.  The
standard genus-g system (`standard_dissection`) takes its crossing pairs from
a formula, the pairs that relator condition forces, and is built with that
one reduction, which checks them at every genus.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple, Optional

from .graph import Graph, _keyed_lines, _pairs, check_pairs
from .magnus import lcs_depth
from .words import (MAX_WORD_SYLLABLES, GroupWord, check_exponent, check_int,
                    check_word_size, parse_syllables)


def _handles(genus):
    """The generator pairs (a1, b1), ..., (ag, bg) of the genus-g surface group."""
    return [(f"a{k}", f"b{k}") for k in range(1, genus + 1)]


class Dissection:
    """Combinatorial curve-system data for a closed genus-g surface.

    components, when present, lists the boundary circuits of the complementary
    disks as cyclic (edge id, curve) sequences, at least one, none empty; they
    are optional input for the injectivity criterion, not derivable from the
    rest of the data.

    It is checked once, when built: its curve graph first (so `Graph` alone
    checks the curve names and the crossing pairs, with its own messages),
    then the rest of its data, then the image of the genus relator, reduced
    once; only whether it dies is kept, and every relator check reads that
    verdict.  An image over MAX_WORD_SYLLABLES letters fails.
    Its attributes are read-only and hold tuples, a frozenset and a read-only
    mapping of crossing sequences, so that verdict cannot go stale and one
    system can be shared.
    """

    __slots__ = ("genus", "curves", "intersections", "crossing_sequences",
                 "components", "_graph", "_crossing_codes", "_relator_ok")

    def __init__(self, genus, curves, intersections, crossing_sequences,
                 components=None):
        check_int(genus, 1, "genus must be a positive integer, got {!r}")
        graph = Graph(curves, intersections)
        if (len(crossing_sequences) != 2 * genus  # before building 2g names
                or set(crossing_sequences) != {n for h in _handles(genus) for n in h}):
            raise ValueError(
                f"crossing sequences must be given for exactly a1..a{genus}, "
                f"b1..b{genus}")
        sequences, codes = {}, {}  # codes: each sequence as (vertex index, sign) pairs
        for name, seq in crossing_sequences.items():
            entries = tuple(check_pairs(seq, f"{name!r} entry {{!r}} is not a (curve, sign) pair"))
            for curve, sign in entries:
                if curve not in graph._index:
                    raise ValueError(
                        f"crossing sequence of {name!r} names undeclared curve {curve!r}")
                if type(sign) is not int or sign not in (1, -1):
                    raise ValueError(
                        f"crossing sign for {curve!r} in {name!r} must be +1 or -1")
            sequences[name] = entries
            codes[name] = tuple((graph._index[curve], sign) for curve, sign in entries)
        if components is not None:
            components = tuple(tuple((str(e), c) for e, c in circuit)
                               for circuit in components)
            if not components:
                raise ValueError("component list has no circuits")
            label = {}
            for circuit in components:
                if not circuit:
                    raise ValueError("component circuit has no edges")
                counts = {}
                for edge, curve in circuit:
                    if not edge:
                        raise ValueError("empty edge id in component circuit")
                    if ":" in edge or edge.split() != [edge]:  # the text format splits on both
                        raise ValueError(f"edge id {edge!r} has whitespace or ':'")
                    if curve not in graph._index:
                        raise ValueError(
                            f"component circuit names undeclared curve {curve!r}")
                    if label.setdefault(edge, curve) != curve:
                        raise ValueError(
                            f"edge {edge!r} labelled with both {label[edge]!r} and {curve!r}")
                    counts[edge] = counts.get(edge, 0) + 1
                    if counts[edge] > 2:
                        raise ValueError(
                            f"edge {edge!r} appears more than twice in a circuit")
        self.genus = genus
        self.curves = graph.vertices
        self.intersections = graph.edges
        self.crossing_sequences = MappingProxyType(sequences)
        self.components = components
        self._graph = graph
        self._crossing_codes = codes
        self._relator_ok = not phi(relator_syllables(genus), self).canonical().codes

    def __setattr__(self, name, value):
        # Each slot is set once, in __init__: a later change to the data could
        # leave the stored relator verdict stale.
        if hasattr(self, name):
            raise AttributeError(f"Dissection attribute {name!r} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"Dissection attribute {name!r} is read-only")

    def crosses(self, c1, c2):
        """True iff the two curves cross; ValueError on an undeclared curve."""
        return self._graph.are_adjacent(c1, c2)

    def generator_names(self):
        return tuple(n for h in _handles(self.genus) for n in h)

    def __repr__(self):
        return (f"<Dissection genus={self.genus} curves={len(self.curves)} "
                f"intersections={len(self.intersections)}>")


def intersection_graph(dissection):
    """Graph with the curves as vertices and the crossing pairs as edges."""
    return dissection._graph


def relator_syllables(genus):
    """Syllables of the genus relator [a1,b1]...[ag,bg]."""
    return [(n, e) for a, b in _handles(genus)
            for n, e in ((a, 1), (b, 1), (a, -1), (b, -1))]


def phi(word, dissection):
    """Image of a surface word in the curve graph group.

    Each generator contributes its signed crossing sequence; an inverse letter
    contributes the sequence reversed with negated signs; exponents repeat the
    block.  Accepts either raw (name, exponent) pairs, each exponent an int,
    or word-syntax text.  An image of more than MAX_WORD_SYLLABLES letters is
    rejected before it is built.  The blocks come from the codes the
    dissection stored when built, so no curve name is looked up here.
    """
    syllables = parse_syllables(word) if isinstance(word, str) else list(word)
    blocks = []
    for name, exp in check_pairs(syllables, "syllable {!r} is not a (name, exponent) pair"):
        seq = dissection._crossing_codes.get(name)
        if seq is None:
            raise ValueError(f"unknown surface generator {name!r}")
        check_exponent(name, exp)
        block = seq if exp > 0 else tuple((c, -s) for c, s in reversed(seq))
        blocks.append((block, abs(exp)))
    check_word_size(sum(len(block) * count for block, count in blocks), "letters")
    letters = []
    for block, count in blocks:
        letters.extend(block * count)
    return GroupWord._trusted(dissection._graph, tuple(letters))


def check_relator(dissection):
    """True iff the genus relator's image, reduced when built, is the identity."""
    return dissection._relator_ok


def _standard_data(genus):
    """Curves, crossing pairs (in curve order) and crossing sequences of the
    standard genus-g system.

    Rejects a genus whose relator image (12 letters per handle) would exceed
    MAX_WORD_SYLLABLES before building anything.
    """
    check_int(genus, 2, "genus must be an integer >= 2, got {!r}")
    if 12 * genus > MAX_WORD_SYLLABLES:
        raise ValueError(f"genus {genus} is too large: its relator image would "
                         f"exceed {MAX_WORD_SYLLABLES} letters")
    curves = tuple(f"x{i}" for i in range(genus + 1))
    curves += tuple(f"y{k}" for k in range(1, genus + 1))
    curves += ("z",)
    pairs = [("x0", "y1"), ("x0", "z")]
    crossing = {}
    for k, (a, b) in enumerate(_handles(genus), 1):
        crossing[a] = ((f"x{k - 1}", 1), (f"x{k}", -1))
        crossing[b] = ((f"x{k}", 1), ("z", 1), (f"y{k}", 1), (f"x{k}", -1))
        pairs.append((f"x{k}", f"y{k}"))
        pairs.append((f"x{k}", f"y{k + 1}" if k < genus else "z"))
    return curves, tuple(pairs), crossing


def standard_dissection(genus):
    """The standard genus-g curve system x0..xg, y1..yg, z.

    Crossing words are a_k -> x_{k-1} x_k^-1 and b_k -> x_k z y_k x_k^-1;
    y_k crosses x_{k-1} and x_k, and z crosses x_0 and x_g.  Each of these
    pairs is forced by the relator: in its freely reduced image every curve
    occurs twice, with opposite signs, and a curve with exactly one
    occurrence of another between them must cross it.  The system is built
    once, and its relator image must die; RuntimeError if it does not.
    """
    curves, pairs, crossing = _standard_data(genus)
    dissection = Dissection(genus, curves, pairs, crossing)
    if not check_relator(dissection):
        raise RuntimeError("the standard crossing pairs do not kill the relator")
    return dissection


def derive_intersections(genus):
    """The crossing pairs of the standard genus-g system, in curve order."""
    return _standard_data(genus)[1]


class ComponentCheck(NamedTuple):
    index: int
    passed: bool
    violation: Optional[tuple] = None  # (edge, edge, reason)


class InjectivityReport(NamedTuple):
    components: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.components)


def check_injectivity_criterion(dissection):
    """Check each disk boundary circuit for the injectivity criterion.

    Any two distinct edges of a circuit must lie on distinct curves, and if
    those curves cross, the edges must sit next to each other somewhere in the
    cyclic circuit.  Reports the first violating pair per component.
    """
    if dissection.components is None:
        raise ValueError("dissection has no component boundary data")
    checks = []
    for idx, circuit in enumerate(dissection.components):
        beside = {(circuit[i - 1][0], circuit[i][0]) for i in range(len(circuit))}
        violation = None
        # dict(circuit) maps each edge to its curve, in first-seen order
        for (e1, c1), (e2, c2) in combinations(dict(circuit).items(), 2):
            if c1 == c2:
                violation = (e1, e2, f"both lie on curve {c1}")
                break
            if dissection.crosses(c1, c2) and not {(e1, e2), (e2, e1)} & beside:
                violation = (e1, e2,
                             f"curves {c1} and {c2} cross but the edges are never adjacent")
                break
        checks.append(ComponentCheck(idx, violation is None, violation))
    return InjectivityReport(tuple(checks))


class SurfaceDepthReport(NamedTuple):
    """Transfer check data for one surface word.

    surface_length is the written length of the word; image_norm the geodesic
    length of its image over the curves; depth is None when the image is
    trivial (nothing to check) and when `lcs_depth`, which searches no deeper
    than image_norm, reached no depth (a failed check).
    """

    surface_length: int
    image_norm: int
    depth: Optional[int]

    @property
    def trivial_image(self):
        return self.image_norm == 0

    @property
    def bound_holds(self):
        if self.depth is None:  # trivial, or deeper than the search went
            return self.trivial_image
        return 4 * self.surface_length >= self.depth


def surface_depth_check(word, dissection):
    """Check that 4 x (written surface length) bounds the image's depth."""
    syllables = parse_syllables(word) if isinstance(word, str) else list(word)
    if not check_relator(dissection):
        raise ValueError("dissection fails the relator consistency check")
    image = phi(syllables, dissection).reduced()  # checks each exponent
    surface_length = sum(abs(e) for _, e in syllables)
    return SurfaceDepthReport(surface_length, image.norm(), lcs_depth(image).depth)


def parse_dissection(text):
    """Parse the line-based dissection format.

        genus: 2
        curves: x0 x1 x2 y1 y2 z
        intersections: x0-y1 x1-y1
        gen a1: x0 x1^-1
        gen b1: x1 z y1 x1^-1
        component: e1:x0 e2:y1 e3:x2 e4:z

    Crossing entries are `curve` (positive) or `curve^-1`; component lines may
    repeat, one per boundary circuit.  Blank lines are skipped; anything else
    is an error.
    """
    genus = None
    curves = None
    intersections = ()
    crossing = {}
    components = []
    for lineno, key, body in _keyed_lines(text, ("genus:", "curves:", "intersections:"),
                                          ("gen ", "component:")):
        if key == "genus:":
            try:
                genus = int(body.strip())
            except ValueError:
                raise ValueError(f"line {lineno}: bad genus value") from None
        elif key == "curves:":
            curves = body.split()
        elif key == "intersections:":
            intersections = _pairs(body, lineno, "intersection")
        elif key == "gen ":
            name, sep, body = body.partition(":")
            name = name.strip()
            if not sep or not name or len(name.split()) != 1:
                raise ValueError(f"line {lineno}: bad gen line")
            if name in crossing:
                raise ValueError(f"line {lineno}: duplicate gen {name!r}")
            entries = []
            for token in body.split():
                curve, _, exp = token.partition("^")
                if exp in ("", "1"):
                    entries.append((curve, 1))
                elif exp == "-1":
                    entries.append((curve, -1))
                else:
                    raise ValueError(
                        f"line {lineno}: crossing sign in {token!r} must be 1 or -1")
            crossing[name] = tuple(entries)
        else:
            circuit = []
            for token in body.split():
                parts = token.split(":")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ValueError(f"line {lineno}: bad component token {token!r}")
                circuit.append((parts[0], parts[1]))
            components.append(tuple(circuit))
    if genus is None:
        raise ValueError("missing genus line")
    if curves is None:
        raise ValueError("missing curves line")
    return Dissection(genus, curves, intersections, crossing,
                      tuple(components) if components else None)


def load_dissection(path):
    with open(path, encoding="utf-8") as handle:
        return parse_dissection(handle.read())


def format_dissection(dissection):
    """Serialize a dissection in the text format read by parse_dissection."""
    lines = [f"genus: {dissection.genus}",
             f"curves: {' '.join(dissection.curves)}"]
    if dissection.intersections:
        index = dissection._graph.index
        pairs = sorted(dissection.intersections, key=lambda p: (index(p[0]), index(p[1])))
        lines.append("intersections: " + " ".join(f"{u}-{v}" for u, v in pairs))
    for name in dissection.generator_names():
        seq = " ".join(c if s == 1 else f"{c}^-1"
                       for c, s in dissection.crossing_sequences[name])
        lines.append(f"gen {name}: {seq}".rstrip())
    for circuit in dissection.components or ():
        lines.append("component: " + " ".join(f"{e}:{c}" for e, c in circuit))
    return "\n".join(lines) + "\n"
