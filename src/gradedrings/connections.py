"""The connection relation on the support, its equivalence classes, and
the support-multiplicative hypothesis, which reads the same support steps.

Two support elements g, h are connected when there is a finite sequence
g_1, ..., g_n drawn from the symmetrized support (support union its
inverses) such that g_1 = g, every proper prefix product g_1 ... g_i with
i <= n-1 stays inside the symmetrized support, and the full product lands
in {h, h^-1}.  Connectedness is an equivalence relation; its classes index
the graded ideals built in :mod:`gradedrings.decomposition`.

The search is a breadth-first walk whose states are the prefix products
(all of which live in the symmetrized support, so there are at most twice
as many states as support elements) and whose edges multiply by one
symmetrized-support element.  The final step is exempt from the prefix
constraint and only has to land in {h, h^-1}, also in the symmetrized
support; so the search walks only the steps g x with g, x and g x in it,
which ``_symmetrized`` composes once per ring for the search and for
:func:`is_support_multiplicative`.  It composes the packed forms of the
ring's degree table, one int addition per pair, and decodes each product
by looking it up among the packed elements.  Steps are tried in ascending
lexicographic order of exponent vectors so the certificate found is
deterministic.

Certificates store the sequence g_1, ..., g_n itself, not the prefix
products, and :func:`verify_certificate` rechecks the definition from
scratch on tuples with the checked ``GroupSignature.compose``, so it reads
neither the packed forms nor the steps the search walked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import MalformedInputError, PreconditionError, TheoremViolationError
from .groups import Element
from .ring import GradedRing, derived


@dataclass(frozen=True)
class ConnectionPath:
    """A candidate connection from ``source`` to ``target``."""

    elements: tuple[Element, ...]
    source: Element
    target: Element

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class ConnectionClasses:
    """The partition of the support into connection classes.

    Blocks are sorted tuples of support elements, ordered by their
    representative (the least element, which is where the search started).
    ``certificates`` maps every support element to a verified path from its
    representative.
    """

    blocks: tuple[tuple[Element, ...], ...]
    certificates: MappingProxyType[Element, ConnectionPath] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def representatives(self) -> tuple[Element, ...]:
        return tuple([block[0] for block in self.blocks])


@derived
def _symmetrized(ring: GradedRing):
    """The support with its inverses as a set, and per element g its steps:
    the pairs (x, g x) with x and g x in the set, x ascending.

    The group is abelian, so each unordered pair {g, x} with g <= x is
    composed once and its step filed under both; taking g in ascending order
    keeps each element's steps ascending.  A pair is composed as the sum of
    its packed forms, decoded by looking it up among the packed elements of
    the set."""
    table = ring.degree_table()
    closure = table.support.union(table.inverse.values())
    ordered = sorted(closure)
    packed = [table.packed[g] for g in ordered]
    decode = dict(zip(packed, ordered)).get
    reduce = table.packing.reduce
    steps = {g: [] for g in ordered}
    for i, g in enumerate(ordered):
        pg = packed[i]
        for x, gx in zip(ordered[i:], map(decode, reduce([pg + p for p in packed[i:]]))):
            if gx is not None:
                steps[g].append((x, gx))
                if x != g:
                    steps[x].append((g, gx))
    return closure, MappingProxyType({g: tuple(s) for g, s in steps.items()})


def _bfs(ring: GradedRing, start: Element):
    """Exhaust the prefix products reachable from ``start``; return the
    parent map, in the order the states were discovered, and ``trail``,
    which gives the element sequence that reaches a state."""
    _, steps = _symmetrized(ring)
    parent: dict[Element, tuple[Element, Element] | None] = {start: None}

    def trail(state):
        out = []
        cur = state
        while True:
            prev = parent[cur]
            if prev is None:
                out.append(cur)
                break
            out.append(prev[1])
            cur = prev[0]
        return tuple(reversed(out))

    queue = deque([start])
    while queue:
        state = queue.popleft()
        for x, nxt in steps[state]:
            if nxt not in parent:
                parent[nxt] = (state, x)
                queue.append(nxt)
    return parent, trail


def connected(ring: GradedRing, g: Element, h: Element):
    """A verified ConnectionPath from g to h, or None when not connected.

    Both endpoints must lie in the support.  The path leads to whichever of
    h and h^-1 the breadth-first search discovered first, so it has minimal
    length.
    """
    sig = ring.signature
    sup = ring.support()
    g = sig.element(g)
    h = sig.element(h)
    if g not in sup or h not in sup:
        raise PreconditionError("both endpoints must lie in the support")
    targets = {h, sig.invert(h)}
    parent, trail = _bfs(ring, g)
    reached = next((state for state in parent if state in targets), None)
    return None if reached is None else ConnectionPath(trail(reached), g, h)


def verify_certificate(ring: GradedRing, path: ConnectionPath) -> bool:
    """Recheck a certificate against the definition; False on any defect.

    Malformed paths return False rather than raising; any other exception
    is a defect of the library and propagates.
    """
    try:
        sig = ring.signature
        sup = ring.support()
        closure, _ = _symmetrized(ring)
        source = sig.element(path.source)
        target = sig.element(path.target)
        if source not in sup or target not in sup:
            return False
        if not isinstance(path.elements, (tuple, list)):
            return False
        elements = [sig.element(e) for e in path.elements]
        if not elements or elements[0] != source:
            return False
        if any(e not in closure for e in elements):
            return False
        prefix = elements[0]
        n = len(elements)
        for idx in range(1, n):
            if prefix not in closure:
                return False
            prefix = sig.compose(prefix, elements[idx])
        return prefix in (target, sig.invert(target))
    except MalformedInputError:
        return False


@derived
def connection_classes(ring: GradedRing) -> ConnectionClasses:
    """Partition the support into connection classes with certificates.

    Classes are discovered by breadth-first searches started from the least
    unassigned element, so the result is independent of basis order, and
    that element is the first of its block.
    """
    sup = ring.sorted_support()
    inverse = ring.degree_table().inverse
    assigned: set[Element] = set()
    blocks = []
    certificates: dict[Element, ConnectionPath] = {}
    for g in sup:
        if g in assigned:
            continue
        parent, trail = _bfs(ring, g)
        members = []
        for h in sup:
            if h in parent:
                reached = h
            elif inverse[h] in parent:
                reached = inverse[h]
            else:
                continue
            members.append(h)
            certificates[h] = ConnectionPath(trail(reached), g, h)
        overlap = assigned.intersection(members)
        if overlap:
            raise TheoremViolationError(
                f"connection classes are not disjoint at {sorted(overlap)[0]}"
            )
        assigned.update(members)
        blocks.append(tuple(members))
    return ConnectionClasses(tuple(blocks), MappingProxyType(certificates))


@derived
def is_support_multiplicative(ring: GradedRing):
    """Check that E_g E_h + E_h E_g is nonzero whenever g is in the support,
    h is in the support or the identity, and g h is again in the support.

    Returns (True, None) or (False, (g, h)) with the first failing pair in
    ascending lexicographic degree order.  E_g E_h is nonzero exactly when
    some structure key (i, j) has deg e_i = g and deg e_j = h, compared as
    packed forms.  The h to try are the identity and the h of the support
    steps (h, g h) of g.
    """
    _, steps = _symmetrized(ring)
    sup = ring.support()
    packed = ring.degree_table().packed
    # the degree of each basis element, packed
    n, degrees = ring.dim, [packed[d] for d in ring.degrees]
    nonzero = {(degrees[i], degrees[j]) for i, j in ring.structure if 0 <= i < n and 0 <= j < n}
    one = ring.identity_degree()
    for g in ring.sorted_support():
        pg = packed[g]
        for h in sorted([one] + [h for h, gh in steps[g] if h in sup and gh in sup]):
            ph = packed[h]
            if (pg, ph) not in nonzero and (ph, pg) not in nonzero:
                return False, (g, h)
    return True, None


@derived
def is_symmetric_support(ring: GradedRing):
    """(True, None) when the support is closed under inversion, else
    (False, witness) with the least support element whose inverse is
    missing."""
    table = ring.degree_table()
    for g, inv in table.inverse.items():
        if inv not in table.support:
            return False, g
    return True, None
