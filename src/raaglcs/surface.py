"""Curve systems on a closed oriented surface and the crossing homomorphism.

A dissection records oriented simple closed curves, which pairs of curves
cross, and, for each standard surface generator, the ordered signed crossing
sequence its loop makes with the curves.  Reading a loop's crossings defines
a homomorphism into the graph group whose commutation graph has the curves as
vertices and the crossing pairs as edges; it is well defined exactly when the
image of the genus relator [a1,b1]...[ag,bg] dies there.  The standard
genus-g system's crossing pairs are derived from that condition at every
genus (`derive_intersections`), not read from a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Graph
from .magnus import lcs_depth
from .words import (MAX_WORD_SYLLABLES, GroupWord, check_word_size,
                    parse_syllables)


class Dissection:
    """Combinatorial curve-system data for a closed genus-g surface.

    components, when present, lists the boundary circuits of the complementary
    disks as cyclic (edge id, curve) sequences; they are optional input for
    the injectivity criterion, not derivable from the rest of the data.
    """

    __slots__ = ("genus", "curves", "intersections", "crossing_sequences",
                 "components", "_graph")

    def __init__(self, genus, curves, intersections, crossing_sequences,
                 components=None):
        if not isinstance(genus, int) or genus < 1:
            raise ValueError(f"genus must be a positive integer, got {genus!r}")
        curves = tuple(curves)
        index = {}
        for c in curves:
            if c in index:
                raise ValueError(f"duplicate curve name {c!r}")
            index[c] = len(index)
        pairs = set()
        for pair in intersections:
            u, v = pair
            if u not in index:
                raise ValueError(f"intersection names undeclared curve {u!r}")
            if v not in index:
                raise ValueError(f"intersection names undeclared curve {v!r}")
            if u == v:
                raise ValueError(f"curve {u!r} recorded as crossing itself")
            pairs.add((u, v) if index[u] < index[v] else (v, u))
        if (len(crossing_sequences) != 2 * genus  # before building 2g names
                or set(crossing_sequences) != {f"{ab}{k}" for ab in "ab"
                                               for k in range(1, genus + 1)}):
            raise ValueError(
                f"crossing sequences must be given for exactly a1..a{genus}, "
                f"b1..b{genus}")
        sequences = {}
        for name, seq in crossing_sequences.items():
            entries = []
            for curve, sign in seq:
                if curve not in index:
                    raise ValueError(
                        f"crossing sequence of {name!r} names undeclared curve {curve!r}")
                if sign not in (1, -1):
                    raise ValueError(
                        f"crossing sign for {curve!r} in {name!r} must be +1 or -1")
                entries.append((curve, sign))
            sequences[name] = tuple(entries)
        checked_components = None
        if components is not None:
            label = {}
            circuits = []
            for circuit in components:
                circuit = tuple((str(e), c) for e, c in circuit)
                counts = {}
                for edge, curve in circuit:
                    if not edge:
                        raise ValueError("empty edge id in component circuit")
                    if curve not in index:
                        raise ValueError(
                            f"component circuit names undeclared curve {curve!r}")
                    if label.setdefault(edge, curve) != curve:
                        raise ValueError(
                            f"edge {edge!r} labelled with both {label[edge]!r} and {curve!r}")
                    counts[edge] = counts.get(edge, 0) + 1
                    if counts[edge] > 2:
                        raise ValueError(
                            f"edge {edge!r} appears more than twice in a circuit")
                circuits.append(circuit)
            checked_components = tuple(circuits)
        self.genus = genus
        self.curves = curves
        self.intersections = frozenset(pairs)
        self.crossing_sequences = sequences
        self.components = checked_components
        self._graph = None

    def crosses(self, c1, c2):
        """True iff the two curves are recorded as intersecting."""
        return (c1, c2) in self.intersections or (c2, c1) in self.intersections

    def generator_names(self):
        out = []
        for k in range(1, self.genus + 1):
            out.append(f"a{k}")
            out.append(f"b{k}")
        return tuple(out)

    def __repr__(self):
        return (f"<Dissection genus={self.genus} curves={len(self.curves)} "
                f"intersections={len(self.intersections)}>")


def intersection_graph(dissection):
    """Graph with the curves as vertices and the crossing pairs as edges."""
    if dissection._graph is None:
        dissection._graph = Graph(dissection.curves, dissection.intersections)
    return dissection._graph


def relator_syllables(genus):
    """Syllables of the genus relator [a1,b1]...[ag,bg]."""
    out = []
    for k in range(1, genus + 1):
        out += [(f"a{k}", 1), (f"b{k}", 1), (f"a{k}", -1), (f"b{k}", -1)]
    return out


def phi(word, dissection):
    """Image of a surface word in the curve graph group.

    Each generator contributes its signed crossing sequence; an inverse letter
    contributes the sequence reversed with negated signs; exponents repeat the
    block.  Accepts either raw (name, exponent) pairs or word-syntax text.
    An image of more than MAX_WORD_SYLLABLES letters is rejected before it
    is built.
    """
    syllables = parse_syllables(word) if isinstance(word, str) else list(word)
    graph = intersection_graph(dissection)
    blocks = []
    for name, exp in syllables:
        seq = dissection.crossing_sequences.get(name)
        if seq is None:
            raise ValueError(f"unknown surface generator {name!r}")
        block = seq if exp > 0 else tuple((c, -s) for c, s in reversed(seq))
        blocks.append((block, abs(exp)))
    check_word_size(sum(len(block) * count for block, count in blocks), "letters")
    letters = []
    for block, count in blocks:
        letters.extend(block * count)
    return GroupWord(graph, letters)


def check_relator(dissection):
    """True iff the image of the genus relator reduces to the identity."""
    return phi(relator_syllables(dissection.genus), dissection).is_identity()


def _standard_data(genus):
    """Curves and crossing sequences of the standard genus-g system.

    Rejects a genus whose relator image (12 letters per handle) would exceed
    MAX_WORD_SYLLABLES before building anything.
    """
    if not isinstance(genus, int) or genus < 2:
        raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
    if 12 * genus > MAX_WORD_SYLLABLES:
        raise ValueError(f"genus {genus} is too large: its relator image would "
                         f"exceed {MAX_WORD_SYLLABLES} letters")
    curves = tuple(f"x{i}" for i in range(genus + 1))
    curves += tuple(f"y{k}" for k in range(1, genus + 1))
    curves += ("z",)
    crossing = {}
    for k in range(1, genus + 1):
        crossing[f"a{k}"] = ((f"x{k - 1}", 1), (f"x{k}", -1))
        crossing[f"b{k}"] = ((f"x{k}", 1), ("z", 1), (f"y{k}", 1), (f"x{k}", -1))
    return curves, crossing


def derive_intersections(genus):
    """Derive the crossing pairs of the standard curve system from the relator.

    The relator image must die in the graph group.  In the freely reduced
    image (the relator's image reduced over the edgeless curve graph) every
    curve occurs exactly twice, with opposite signs, so those two occurrences
    must cancel against each other; whenever exactly one of the two
    occurrences of another curve lies strictly between them, that stranded
    occurrence can never be removed first, which forces the two curves to
    commute.  One sweep finds these pairs: at a curve's second occurrence,
    every curve opened after its first and still open is stranded.  The
    forced set is then verified to kill the relator, which makes it the
    unique minimal solution (any solution contains it); RuntimeError if it
    does not.
    """
    curves, crossing = _standard_data(genus)
    index = {c: i for i, c in enumerate(curves)}
    image = phi(relator_syllables(genus), Dissection(genus, curves, (), crossing))
    forced = set()
    opened = []
    for curve, _ in image.reduced().syllables:
        if curve not in opened:
            opened.append(curve)
            continue
        at = opened.index(curve)
        for other in opened[at + 1:]:
            forced.add((curve, other) if index[curve] < index[other] else (other, curve))
        del opened[at]
    if not check_relator(Dissection(genus, curves, forced, crossing)):
        raise RuntimeError("the forced crossing pairs do not kill the relator")
    return tuple(sorted(forced, key=lambda p: (index[p[0]], index[p[1]])))


def standard_dissection(genus):
    """The standard genus-g curve system x0..xg, y1..yg, z.

    Crossing words are a_k -> x_{k-1} x_k^-1 and b_k -> x_k z y_k x_k^-1;
    the crossing pairs are derived from the relator constraint at every
    genus (see derive_intersections): y_k crosses x_{k-1} and x_k, and z
    crosses x_0 and x_g.
    """
    curves, crossing = _standard_data(genus)
    return Dissection(genus, curves, derive_intersections(genus), crossing)


@dataclass(frozen=True)
class ComponentCheck:
    index: int
    passed: bool
    violation: Optional[tuple] = None  # (edge, edge, reason)


@dataclass(frozen=True)
class InjectivityReport:
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
        n = len(circuit)
        curve_of = {}
        order = []
        for edge, curve in circuit:
            if edge not in curve_of:
                curve_of[edge] = curve
                order.append(edge)
        adjacent = set()
        for i in range(n):
            e1 = circuit[i][0]
            e2 = circuit[(i + 1) % n][0]
            if e1 != e2:
                adjacent.add(frozenset((e1, e2)))
        violation = None
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                e1, e2 = order[i], order[j]
                c1, c2 = curve_of[e1], curve_of[e2]
                if c1 == c2:
                    violation = (e1, e2, f"both lie on curve {c1}")
                    break
                if dissection.crosses(c1, c2) and frozenset((e1, e2)) not in adjacent:
                    violation = (e1, e2,
                                 f"curves {c1} and {c2} cross but the edges are never adjacent")
                    break
            if violation:
                break
        checks.append(ComponentCheck(idx, violation is None, violation))
    return InjectivityReport(tuple(checks))


@dataclass(frozen=True)
class SurfaceDepthReport:
    """Transfer check data for one surface word.

    surface_length is the written length of the word; image_norm the geodesic
    length of its image over the curves; depth is None when the image is
    trivial (nothing to check).
    """

    surface_length: int
    image_norm: int
    depth: Optional[int]

    @property
    def trivial_image(self):
        return self.depth is None

    @property
    def bound_holds(self):
        return self.depth is None or 4 * self.surface_length >= self.depth


def surface_depth_check(word, dissection):
    """Check that 4 x (written surface length) bounds the image's depth."""
    syllables = parse_syllables(word) if isinstance(word, str) else list(word)
    if not check_relator(dissection):
        raise ValueError("dissection fails the relator consistency check")
    surface_length = sum(abs(e) for _, e in syllables)
    image = phi(syllables, dissection).reduced()
    if not image.syllables:
        return SurfaceDepthReport(surface_length, 0, None)
    result = lcs_depth(image)
    return SurfaceDepthReport(surface_length, image.norm(), result.depth)


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
    intersections = None
    crossing = {}
    components = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("genus:"):
            if genus is not None:
                raise ValueError(f"line {lineno}: duplicate genus line")
            try:
                genus = int(line[len("genus:"):].strip())
            except ValueError:
                raise ValueError(f"line {lineno}: bad genus value") from None
        elif line.startswith("curves:"):
            if curves is not None:
                raise ValueError(f"line {lineno}: duplicate curves line")
            curves = line[len("curves:"):].split()
        elif line.startswith("intersections:"):
            if intersections is not None:
                raise ValueError(f"line {lineno}: duplicate intersections line")
            intersections = []
            for token in line[len("intersections:"):].split():
                ends = token.split("-")
                if len(ends) != 2:
                    raise ValueError(f"line {lineno}: bad intersection token {token!r}")
                intersections.append((ends[0], ends[1]))
        elif line.startswith("gen "):
            name, sep, body = line[len("gen "):].partition(":")
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
        elif line.startswith("component:"):
            circuit = []
            for token in line[len("component:"):].split():
                parts = token.split(":")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ValueError(f"line {lineno}: bad component token {token!r}")
                circuit.append((parts[0], parts[1]))
            components.append(tuple(circuit))
        else:
            raise ValueError(f"line {lineno}: unknown line {raw!r}")
    if genus is None:
        raise ValueError("missing genus line")
    if curves is None:
        raise ValueError("missing curves line")
    return Dissection(genus, curves, intersections or (), crossing,
                      tuple(components) if components else None)


def load_dissection(path):
    with open(path, encoding="utf-8") as handle:
        return parse_dissection(handle.read())


def format_dissection(dissection):
    """Serialize a dissection in the text format read by parse_dissection."""
    index = {c: i for i, c in enumerate(dissection.curves)}
    lines = [f"genus: {dissection.genus}",
             f"curves: {' '.join(dissection.curves)}"]
    if dissection.intersections:
        pairs = sorted(dissection.intersections,
                       key=lambda p: (index[p[0]], index[p[1]]))
        lines.append("intersections: " + " ".join(f"{u}-{v}" for u, v in pairs))
    for name in dissection.generator_names():
        seq = " ".join(c if s == 1 else f"{c}^-1"
                       for c, s in dissection.crossing_sequences[name])
        lines.append(f"gen {name}: {seq}".rstrip())
    for circuit in dissection.components or ():
        lines.append("component: " + " ".join(f"{e}:{c}" for e, c in circuit))
    return "\n".join(lines) + "\n"
