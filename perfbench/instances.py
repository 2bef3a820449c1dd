"""Program instances the workloads send, with their reference answers.

Every instance is generated here, from plain parameters, as program text
plus a database in the ``repro.io`` JSON layout.  The benchmark never
asks the system under test for a reference: each answer comes from a
closed form or from a small exact computation over the instance's graph
written out below.

* A lazy walk on a cycle, on a complete graph with self-loops, or the
  Ex 3.3 PageRank walk over a lazy cycle is doubly stochastic, so its
  long-run probability of any one node is ``1/n``.
* A lazy walk on a grid (self-loop plus the four neighbours, unit
  weights) is reversible with ``pi(v) = (deg v + 1) / sum(deg + 1)``.
* A drifted birth-death walk absorbed at ``0`` and ``n`` ends at ``0``
  with the gambler's-ruin probability ``(r^k - r^n) / (1 - r^n)``,
  ``r = down / up``.
* On a layered DAG the inflationary (Prop 4.4) and datalog (Ex 3.9)
  reachability programs follow one path, so ``P(reach v)`` is the sum
  over predecessors ``u`` of ``P(reach u) * w(u, v) / w(u)``.
* A Thm 5.6 sample with burn-in ``t`` is one Bernoulli draw with
  success probability ``(e_start P^t)(event)``; that value is computed
  exactly, and the estimate must lie inside a Hoeffding envelope at
  ``HOEFFDING_DELTA`` around it; so must the pooled estimate of all the
  sampled requests of one class in a run (``pooled_verdict``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

#: Failure probability of the envelope a sampled estimate must lie in.
HOEFFDING_DELTA = 1e-6

WALK_RULE = "{r} := rename[J->I](project[J](repair-key[I@P]({r} join E)))"
INFLATIONARY_KERNEL = (
    "C := C union rename[J->I](project[J](repair-key[I@P]((C minus Cold) join E)))\n"
    "Cold := C\n"
)
DATALOG_RULES = "c2(X*, Y)@P :- c(X), e(X, Y, P).\nc(Y) :- c2(X, Y).\n"


def _text(weight: Fraction) -> object:
    return weight.numerator if weight.denominator == 1 else str(weight)


@dataclass
class Graph:
    """A weighted directed graph: ``edges[u]`` maps successors to weights."""

    nodes: list[str]
    edges: dict[str, dict[str, Fraction]] = field(default_factory=dict)
    _reach: dict = field(default_factory=dict, repr=False)

    def add(self, u: str, v: str, weight: Fraction) -> None:
        row = self.edges.setdefault(u, {})
        row[v] = row.get(v, Fraction(0)) + Fraction(weight)

    def step_probabilities(self, u: str) -> dict[str, Fraction]:
        row = self.edges[u]
        total = sum(row.values())
        return {v: w / total for v, w in row.items()}

    def edge_rows(self) -> list[list]:
        return [
            [u, v, _text(w)]
            for u in self.nodes
            for v, w in sorted(self.edges.get(u, {}).items())
        ]


def lazy_cycle(n: int, laziness: Fraction = Fraction(1, 2)) -> Graph:
    graph = Graph([f"n{i}" for i in range(n)])
    for i in range(n):
        graph.add(f"n{i}", f"n{i}", laziness)
        graph.add(f"n{i}", f"n{(i + 1) % n}", 1 - laziness)
    return graph


def complete(n: int, self_weight: int = 1) -> Graph:
    """Unit edges between all nodes; any self-loop weight keeps it symmetric."""
    graph = Graph([f"n{i}" for i in range(n)])
    for u in graph.nodes:
        for v in graph.nodes:
            graph.add(u, v, Fraction(self_weight if u == v else 1))
    return graph


def grid(rows: int, columns: int) -> Graph:
    graph = Graph([f"g{r}_{c}" for r in range(rows) for c in range(columns)])
    for r in range(rows):
        for c in range(columns):
            graph.add(f"g{r}_{c}", f"g{r}_{c}", Fraction(1))
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= r + dr < rows and 0 <= c + dc < columns:
                    graph.add(f"g{r}_{c}", f"g{r + dr}_{c + dc}", Fraction(1))
    return graph


def birth_death(n: int, down: Fraction) -> Graph:
    graph = Graph([f"w{i}" for i in range(n + 1)])
    for i in range(1, n):
        graph.add(f"w{i}", f"w{i - 1}", down)
        graph.add(f"w{i}", f"w{i + 1}", 1 - down)
    graph.add("w0", "w0", Fraction(1))
    graph.add(f"w{n}", f"w{n}", Fraction(1))
    return graph


def layered_dag(layers: int, width: int, rng: random.Random) -> Graph:
    """Random forward edges between consecutive layers, then a sink."""
    names = [[f"v{i}_{j}" for j in range(width)] for i in range(layers)]
    graph = Graph([node for layer in names for node in layer] + ["sink"])
    for i in range(layers - 1):
        for node in names[i]:
            targets = [t for t in names[i + 1] if rng.random() < 0.7]
            for target in targets or [rng.choice(names[i + 1])]:
                graph.add(node, target, Fraction(rng.randint(1, 4)))
    for node in names[-1]:
        graph.add(node, "sink", Fraction(1))
    graph.add("sink", "sink", Fraction(1))
    return graph


# -- reference answers ------------------------------------------------------


def grid_stationary(rows: int, columns: int, node: str) -> Fraction:
    r, c = (int(x) for x in node[1:].split("_"))
    degree = sum(
        1 for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if 0 <= r + dr < rows and 0 <= c + dc < columns
    )
    total = rows * columns + 2 * (rows * (columns - 1) + columns * (rows - 1))
    return Fraction(degree + 1, total)


def ruin_probability(n: int, k: int, down: Fraction) -> Fraction:
    r = down / (1 - down)
    return (r**k - r**n) / (1 - r**n)


def reach_probabilities(graph: Graph, start: str) -> dict[str, Fraction]:
    """``P(the walk from start visits v)`` on a DAG with a sink self-loop."""
    if start in graph._reach:
        return graph._reach[start]
    reach = {node: Fraction(0) for node in graph.nodes}
    reach[start] = Fraction(1)
    for node in graph.nodes:  # nodes are listed layer by layer
        if node == "sink" or not reach[node]:
            continue
        for target, p in graph.step_probabilities(node).items():
            reach[target] += reach[node] * p
    graph._reach[start] = reach
    return reach


def _layer(node: str) -> int:
    return 1 << 30 if node == "sink" else int(node[1:].split("_")[0])


def joint_reach(graph: Graph, start: str, nodes: "list[str]") -> Fraction:
    """``P(the path visits every node in nodes)`` on a layered DAG."""
    ordered = sorted(set(nodes), key=_layer)
    layers = [_layer(node) for node in ordered]
    if len(set(layers)) < len(layers):
        return Fraction(0)  # one path visits one node per layer
    probability, here = Fraction(1), start
    for node in ordered:
        probability *= reach_probabilities(graph, here)[node]
        here = node
    return probability


def reach_union(graph: Graph, start: str, nodes: "list[str]") -> Fraction:
    """``P(the path visits any node in nodes)``, by inclusion-exclusion."""
    total = Fraction(0)
    for mask in range(1, 1 << len(nodes)):
        subset = [node for i, node in enumerate(nodes) if mask >> i & 1]
        sign = 1 if len(subset) % 2 else -1
        total += sign * joint_reach(graph, start, subset)
    return total


def walk_marginal(
    step: "dict[str, dict[str, Fraction]]", start: str, steps: int
) -> dict[str, Fraction]:
    """The exact distribution of a walk after ``steps`` transitions."""
    dist = {start: Fraction(1)}
    for _ in range(steps):
        nxt: dict[str, Fraction] = {}
        for u, mass in dist.items():
            for v, p in step[u].items():
                nxt[v] = nxt.get(v, Fraction(0)) + mass * p
        dist = nxt
    return dist


def walk_matrix(graph: Graph) -> dict[str, dict[str, Fraction]]:
    return {u: graph.step_probabilities(u) for u in graph.nodes}


def pagerank_matrix(graph: Graph, alpha: Fraction) -> dict[str, dict[str, Fraction]]:
    jump = alpha / len(graph.nodes)
    matrix = {}
    for u in graph.nodes:
        row = {v: jump for v in graph.nodes}
        for v, p in graph.step_probabilities(u).items():
            row[v] += (1 - alpha) * p
        matrix[u] = row
    return matrix


def hoeffding_halfwidth(samples: int, delta: float = HOEFFDING_DELTA) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


# -- program text and databases ----------------------------------------------


def walk_program(walkers: tuple[str, ...] = ("C",)) -> str:
    return "\n".join(WALK_RULE.format(r=r) for r in walkers) + "\n"


def pagerank_program(alpha: Fraction) -> str:
    return (
        "C := project[I](repair-key[@P]("
        "rename[J->I](project[J](repair-key[I@P](C join E))) "
        f"times literal[P]{{({1 - alpha})}} union "
        "repair-key[](project[I](E) union rename[J->I](project[J](E))) "
        f"times literal[P]{{({alpha})}}))\n"
    )


def walk_database(graph: Graph, starts: dict[str, str]) -> dict:
    relations = {
        name: {"columns": ["I"], "rows": [[node]]} for name, node in starts.items()
    }
    relations["E"] = {"columns": ["I", "J", "P"], "rows": graph.edge_rows()}
    return {"relations": relations}


def reach_database(graph: Graph, start: str) -> dict:
    return {"relations": {
        "C": {"columns": ["I"], "rows": [[start]]},
        "Cold": {"columns": ["I"], "rows": []},
        "E": {"columns": ["I", "J", "P"], "rows": graph.edge_rows()},
    }}


def datalog_program(start: str) -> str:
    return f"c('{start}').\n" + DATALOG_RULES


def datalog_database(graph: Graph) -> dict:
    return {"relations": {
        "e": {"columns": ["I", "J", "P"], "rows": graph.edge_rows()},
    }}


# -- answer checks ----------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """How one answer is judged against its reference.

    ``exact``: the payload's ``probability`` equals ``reference`` as a
    Fraction.  ``certified``: the certificate is satisfied, its bound is
    at most ``epsilon``, and the answer lies within the bound of the
    reference.  ``sampled``: ``samples`` draws were made and the estimate
    lies within the Hoeffding envelope around the reference.
    """

    kind: str
    reference: Fraction
    epsilon: float = 0.0
    samples: int = 0

    def verdict(self, payload: dict) -> str | None:
        """``None`` when the answer is right, else the reason it is not."""
        try:
            if self.kind == "exact":
                got = Fraction(payload["probability"])
                if got != self.reference:
                    return f"exact {got} != reference {self.reference}"
                return None
            if self.kind == "certified":
                certificate = payload["certificate"]
                bound = float(certificate["bound"])
                value = float(payload["probability_float"])
                if not certificate["satisfied"] or bound > self.epsilon:
                    return f"certificate not met: {certificate}"
                if abs(value - float(self.reference)) > bound:
                    return f"{value} outside {bound} of {float(self.reference)}"
                return None
            if self.kind == "sampled":
                if int(payload["samples"]) != self.samples:
                    return f"{payload['samples']} samples, expected {self.samples}"
                width = hoeffding_halfwidth(self.samples)
                estimate = float(payload["estimate"])
                if abs(estimate - float(self.reference)) > width:
                    return (
                        f"estimate {estimate} outside +-{width:.4f} "
                        f"of {float(self.reference):.6f}"
                    )
                return None
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as error:
            return f"malformed payload ({error!r}): {payload!r:.200}"
        raise ValueError(f"unknown check kind {self.kind!r}")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "reference": str(self.reference),
            "epsilon": self.epsilon,
            "samples": self.samples,
        }


def pooled_verdict(answers: list[tuple[Check, float, int]]) -> str | None:
    """Judge sampled answers together: ``None`` when their pooled mean is right.

    ``answers`` holds ``(check, estimate, samples)`` per request, each
    request with its own sampler seed, so all the draws are independent
    Bernoulli variables with known means and Hoeffding bounds their
    pooled mean at ``HOEFFDING_DELTA``.  Over a few thousand draws the
    envelope is a few hundredths wide, where one request's is a few
    tenths.
    """
    draws = sum(samples for _, _, samples in answers)
    if not draws:
        return None
    got = sum(estimate * samples for _, estimate, samples in answers) / draws
    want = float(sum(check.reference * samples for check, _, samples in answers) / draws)
    width = hoeffding_halfwidth(draws)
    if abs(got - want) > width:
        return (f"pooled estimate {got:.6f} over {draws} draws outside "
                f"+-{width:.4f} of {want:.6f}")
    return None
