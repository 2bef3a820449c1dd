"""Predicate / relation dependency graphs with edge polarity.

For a datalog program the nodes are predicates and every ``head :- body``
rule contributes positive edges ``head -> body_predicate``.  For a
relational kernel the nodes are relation names and ``R := e`` contributes
an edge ``R -> S`` for every relation ``S`` referenced by ``e``; edges
that originate inside the *right* subtree of a ``Difference`` node are
negative (the classic negation-as-difference polarity), and edges that
pass through a ``repair-key`` node are marked probabilistic.

A relation sitting on a cycle with a negative edge depends
*non-monotonically* on itself — the fixpoint the while-language computes
for it is not guaranteed to be order-independent, which is exactly what
stratification rules out in datalog with negation (cf. the stable-
negation treatment in Alviano et al.'s generative-datalog follow-up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.datalog.ast import Rule
from repro.markov.analysis import tarjan
from repro.relational.algebra import (
    Difference,
    Expression,
    RelationRef,
    RepairKey,
    Union,
)


@dataclass(frozen=True)
class DepEdge:
    """A dependency ``src -> dst``: computing ``src`` reads ``dst``."""

    src: str
    dst: str
    positive: bool = True
    probabilistic: bool = False


class DependencyGraph:
    """Directed multigraph over predicate/relation names."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[DepEdge]) -> None:
        self.nodes: frozenset[str] = frozenset(nodes)
        self.edges: tuple[DepEdge, ...] = tuple(edges)
        self._successors: dict[str, set[str]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            self._successors.setdefault(edge.src, set()).add(edge.dst)
            self._successors.setdefault(edge.dst, set())

    @classmethod
    def from_rules(cls, rules: Sequence[Rule]) -> "DependencyGraph":
        nodes: set[str] = set()
        edges: list[DepEdge] = []
        for rule in rules:
            nodes.add(rule.head.predicate)
            probabilistic = rule.is_probabilistic()
            for atom in rule.body:
                nodes.add(atom.predicate)
                edges.append(
                    DepEdge(
                        src=rule.head.predicate,
                        dst=atom.predicate,
                        positive=True,
                        probabilistic=probabilistic,
                    )
                )
        return cls(nodes, edges)

    @classmethod
    def from_queries(cls, queries: Mapping[str, Expression]) -> "DependencyGraph":
        nodes: set[str] = set(queries)
        edges: list[DepEdge] = []
        for name, expression in queries.items():
            for dst, positive, probabilistic in _references(expression):
                nodes.add(dst)
                edges.append(
                    DepEdge(src=name, dst=dst, positive=positive, probabilistic=probabilistic)
                )
        return cls(nodes, edges)

    def reachable_from(self, starts: Iterable[str]) -> set[str]:
        """All nodes reachable from ``starts`` along dependency edges
        (including the start nodes themselves, when present)."""
        frontier = [node for node in starts if node in self._successors]
        reached = set(frontier)
        while frontier:
            node = frontier.pop()
            for successor in self._successors.get(node, ()):
                if successor not in reached:
                    reached.add(successor)
                    frontier.append(successor)
        return reached

    def strongly_connected_components(self) -> list[frozenset[str]]:
        """Tarjan's algorithm (:func:`repro.markov.analysis.tarjan`)
        over the nodes in sorted order."""
        nodes = sorted(self._successors)
        ids = {node: i for i, node in enumerate(nodes)}
        components = tarjan(
            [sorted(ids[successor] for successor in self._successors[node]) for node in nodes]
        )
        return [frozenset(nodes[i] for i in component) for component in components]

    def negative_cycle_members(self) -> set[str]:
        """Nodes of every cycle that contains a negative edge.

        A negative edge ``u -> v`` lies on a cycle exactly when ``u`` and
        ``v`` belong to the same strongly connected component (a negative
        self-loop counts: its endpoint forms a singleton SCC with itself
        reachable)."""
        component_of: dict[str, frozenset[str]] = {}
        for component in self.strongly_connected_components():
            for node in component:
                component_of[node] = component
        members: set[str] = set()
        for edge in self.edges:
            if edge.positive:
                continue
            if edge.src == edge.dst:
                members.add(edge.src)
                continue
            if component_of.get(edge.src) is component_of.get(edge.dst):
                members.update(component_of[edge.src])
        return members


def _references(
    expression: Expression,
    positive: bool = True,
    probabilistic: bool = False,
) -> list[tuple[str, bool, bool]]:
    """``(relation, polarity, under-repair-key)`` triples for every
    relation reference inside ``expression``."""
    found: list[tuple[str, bool, bool]] = []
    if isinstance(expression, RelationRef):
        found.append((expression.name, positive, probabilistic))
    elif isinstance(expression, Difference):
        found.extend(_references(expression.left, positive, probabilistic))
        found.extend(_references(expression.right, not positive, probabilistic))
    elif isinstance(expression, RepairKey):
        found.extend(_references(expression.child, positive, True))
    else:
        for child in _children(expression):
            found.extend(_references(child, positive, probabilistic))
    return found


def _children(expression: Expression) -> list[Expression]:
    children: list[Expression] = []
    for attribute in ("child", "left", "right"):
        value = getattr(expression, attribute, None)
        if isinstance(value, Expression):
            children.append(value)
    return children


def expression_references(
    expression: Expression,
) -> list[tuple[str, bool, bool]]:
    """``(relation, polarity, under-repair-key)`` triples for every
    relation reference inside ``expression`` — the public face of the
    edge walk :meth:`DependencyGraph.from_queries` performs, used by the
    partition planner to classify couplings without building a graph."""
    return _references(expression)


def coupling_edges(
    queries: Mapping[str, Expression], dynamic: AbstractSet[str]
) -> list[DepEdge]:
    """Dependency edges between *dynamic* relations.

    The partition planner treats these as undirected couplings: when the
    query for one rewritten relation reads another rewritten relation
    (any polarity, through any operator), the two must be evaluated in
    the same component — their per-step values are not independent.
    References to relations outside ``dynamic`` (static relations the
    kernel never rewrites) are dropped: a shared read-only relation
    never correlates two components."""
    edges: list[DepEdge] = []
    for name in sorted(queries):
        if name not in dynamic:
            continue
        for dst, positive, probabilistic in _references(queries[name]):
            if dst in dynamic and dst != name:
                edges.append(
                    DepEdge(
                        src=name,
                        dst=dst,
                        positive=positive,
                        probabilistic=probabilistic,
                    )
                )
    return edges


def accumulates(expression: Expression, name: str) -> bool:
    """True when ``expression`` is syntactically of the inflationary
    shape ``name ∪ ...`` — it contains the old value of ``name`` as a
    top-level union operand, so every transition can only add tuples."""
    if isinstance(expression, RelationRef):
        return expression.name == name
    if isinstance(expression, Union):
        return accumulates(expression.left, name) or accumulates(expression.right, name)
    return False
