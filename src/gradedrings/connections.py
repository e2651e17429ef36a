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
:func:`is_support_multiplicative`.  These work on the dense degree ids of
the ring's degree table: the steps, the search's parent map and the class
membership loop are keyed by id, and a pair is composed as the sum of
packed forms, one int addition, and decoded by looking it up among the
packed forms.  Ascending ids are ascending exponent vectors, so steps are
tried in ascending lexicographic order and the certificate found is
deterministic.  Degrees are tuples only in what the module returns.

Certificates store the sequence g_1, ..., g_n itself, not the prefix
products, and :func:`verify_certificate` rechecks the definition from
scratch on tuples with the checked ``GroupSignature.compose``, so it reads
neither the ids, the packed forms nor the steps the search walked.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import MalformedInputError, PreconditionError, TheoremViolationError
from .groups import Element
from .ring import DegreeTable, GradedRing, derived


@dataclass(frozen=True)
class ConnectionPath:
    """A candidate connection from ``source`` to ``target``."""

    elements: tuple[Element, ...]
    source: Element
    target: Element

    def __len__(self):
        return len(self.elements)


class _Certificates(Mapping):
    """Each support element's certificate, read-only: held per degree id and
    looked up by degree through the ids of the degree table."""

    def __init__(self, table: DegreeTable, paths: Mapping[int, ConnectionPath]):
        self._table, self._paths = table, paths

    def __getitem__(self, g):
        path = self._paths.get(self._table.ids.get(g))
        if path is None:
            raise KeyError(g)
        return path

    def __iter__(self):
        return map(self._table.degrees.__getitem__, self._paths)

    def __len__(self):
        return len(self._paths)


@dataclass(frozen=True)
class ConnectionClasses:
    """The partition of the support into connection classes.

    Blocks are sorted tuples of support elements, ordered by their
    representative (the least element, which is where the search started).
    ``certificates`` maps every support element to a verified path from its
    representative.
    """

    blocks: tuple[tuple[Element, ...], ...]
    certificates: Mapping[Element, ConnectionPath] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def representatives(self) -> tuple[Element, ...]:
        return tuple([block[0] for block in self.blocks])


@derived
def _symmetrized(ring: GradedRing):
    """The support with its inverses as a set of degrees, and per degree id
    g its steps: the pairs (x, g x) of ids with x and g x in that set, x
    ascending.  The identity is not in the set and has no steps.

    The group is abelian, so each unordered pair {g, x} with g <= x is
    composed once and its step filed under both; taking g in ascending order
    keeps each element's steps ascending.  A pair is composed as the sum of
    its packed forms, decoded by looking it up among the packed forms of
    the set."""
    table = ring.degree_table()
    ordered = [k for k in range(len(table.degrees)) if k != table.one]
    packed = [table.packed[k] for k in ordered]
    decode = dict(zip(packed, ordered)).get
    reduce = table.packing.reduce
    steps: list[list[tuple[int, int]]] = [[] for _ in table.degrees]
    for i, g in enumerate(ordered):
        pg = packed[i]
        for x, gx in zip(ordered[i:], map(decode, reduce([pg + p for p in packed[i:]]))):
            if gx is not None:
                steps[g].append((x, gx))
                if x != g:
                    steps[x].append((g, gx))
    outside = [table.degrees[k] for k in ordered if not table.in_support[k]]
    return table.support.union(outside), tuple([*map(tuple, steps)])


def _bfs(ring: GradedRing, start: int):
    """Exhaust the prefix products reachable from the degree id ``start``;
    return the parent map of ids, in the order the states were discovered,
    and ``trail``, which gives the element sequence, as degrees, that
    reaches a state."""
    _, steps = _symmetrized(ring)
    degrees = ring.degree_table().degrees
    parent: dict[int, tuple[int, int] | None] = {start: None}

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
        return tuple([degrees[k] for k in reversed(out)])

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
    table = ring.degree_table()
    g = sig.element(g)
    h = sig.element(h)
    if g not in table.support or h not in table.support:
        raise PreconditionError("both endpoints must lie in the support")
    target = table.ids[h]
    targets = {target, table.inverse[target]}
    parent, trail = _bfs(ring, table.ids[g])
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
def connection_class_ids(ring: GradedRing):
    """The connection classes as blocks of degree ids, and per member id
    its certificate.

    Classes are discovered by breadth-first searches started from the least
    unassigned element, so the result is independent of basis order, and
    that element is the first of its block.
    """
    table = ring.degree_table()
    sup, inverse, degrees = table.support_ids, table.inverse, table.degrees
    assigned: set[int] = set()
    blocks = []
    paths: dict[int, ConnectionPath] = {}
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
            paths[h] = ConnectionPath(trail(reached), degrees[g], degrees[h])
        overlap = assigned.intersection(members)
        if overlap:
            raise TheoremViolationError(
                f"connection classes are not disjoint at {degrees[min(overlap)]}"
            )
        assigned.update(members)
        blocks.append(tuple(members))
    return tuple(blocks), MappingProxyType(paths)


@derived
def connection_classes(ring: GradedRing) -> ConnectionClasses:
    """Partition the support into connection classes with certificates
    (see :func:`connection_class_ids`)."""
    table = ring.degree_table()
    blocks, paths = connection_class_ids(ring)
    return ConnectionClasses(
        tuple([tuple([table.degrees[k] for k in block]) for block in blocks]),
        _Certificates(table, paths),
    )


@derived
def is_support_multiplicative(ring: GradedRing):
    """Check that E_g E_h + E_h E_g is nonzero whenever g is in the support,
    h is in the support or the identity, and g h is again in the support.

    Returns (True, None) or (False, (g, h)) with the first failing pair in
    ascending lexicographic degree order, which is the order of degree ids.
    E_g E_h is nonzero exactly when some structure key (i, j) has e_i of
    degree g and e_j of degree h.  The h to try are the identity and the h
    of the support steps (h, g h) of g.
    """
    _, steps = _symmetrized(ring)
    table = ring.degree_table()
    n, ids, sup = ring.dim, table.basis_ids, table.in_support
    nonzero = {(ids[i], ids[j]) for i, j in ring.structure if 0 <= i < n and 0 <= j < n}
    one = table.one
    for g in table.support_ids:
        for h in sorted([one] + [h for h, gh in steps[g] if sup[h] and sup[gh]]):
            if (g, h) not in nonzero and (h, g) not in nonzero:
                return False, (table.degrees[g], table.degrees[h])
    return True, None


@derived
def is_symmetric_support(ring: GradedRing):
    """(True, None) when the support is closed under inversion, else
    (False, witness) with the least support element whose inverse is
    missing."""
    table = ring.degree_table()
    for g in table.support_ids:
        if not table.in_support[table.inverse[g]]:
            return False, table.degrees[g]
    return True, None
