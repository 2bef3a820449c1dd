"""Seeded request lists for the three workloads.

A run sends a fixed list of requests made from the workload seed, so the
work a run does never depends on how fast it runs.  Classes are mixed in
fixed counts and sizes are spread evenly over each class's range, the
same sizes for every seed: two seeds give different targets, events,
weights, sampler seeds and orders, but nearly the same latency
distribution, which keeps p50 and p90 in the middle of one class rather
than on a boundary between two.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import instances as inst
from instances import Check

#: Requests per second of ``--seconds`` a run sends; measured on a
#: 2-core x86-64 host so that one run lasts about ``--seconds`` there.
RATES = {"cold-exact": 9.5, "warm-sample": 31.0, "http-churn": 72.0}

#: The fewest requests a run sends: p90 must leave ten samples above it.
MIN_REQUESTS = 110


@dataclass
class Request:
    """One request: what to send, which class it is, how to judge it."""

    cls: str
    semantics: str
    program: str
    database: dict
    event: str
    params: dict
    check: Check
    #: The client that must send it (``None``: whichever is free).
    pin: int | None = None
    #: Extra CLI flags (cold-exact only), in CLI spelling.
    flags: list[str] = field(default_factory=list)

    def body(self) -> dict:
        """The ``QueryRequest`` JSON body."""
        return {
            "semantics": self.semantics,
            "program": self.program,
            "database": self.database,
            "event": self.event,
            "params": dict(self.params),
        }

    def canonical(self) -> dict:
        return {
            "cls": self.cls, "pin": self.pin, "flags": self.flags,
            **self.body(), "check": self.check.as_dict(),
        }


@dataclass
class Traffic:
    """A workload's generated inputs: warm-up requests and the timed list."""

    warmup: list[Request]
    timed: list[Request]

    def checksum(self) -> str:
        """SHA-256 over the canonical JSON of every generated request."""
        digest = hashlib.sha256()
        for request in self.warmup + self.timed:
            digest.update(json.dumps(request.canonical(), sort_keys=True).encode())
        return digest.hexdigest()

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for request in self.timed:
            counts[request.cls] = counts.get(request.cls, 0) + 1
        return counts


def request_count(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(seconds * RATES[workload]))


def _apportion(total: int, shares: dict[str, float]) -> dict[str, int]:
    """Largest-remainder split of ``total`` by ``shares`` (fixed counts)."""
    weight = sum(shares.values())
    exact = {k: total * v / weight for k, v in shares.items()}
    counts = {k: int(v) for k, v in exact.items()}
    rest = sorted(shares, key=lambda k: (counts[k] - exact[k], k))
    for k in rest[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers spread evenly over ``[lo, hi]``, shuffled.

    The values themselves do not depend on the seed, only their order.
    """
    values = [lo + int((hi - lo + 1) * (i + 0.5) / count) for i in range(count)]
    values = [min(hi, v) for v in values]
    rng.shuffle(values)
    return values


def _interleave(rng: random.Random, groups: list[list]) -> list:
    """Merge the groups so each is spread evenly through the result.

    The j-th of a group's ``c`` items is placed at ``(j + u) / c`` with a
    seeded jitter ``u``: no stretch of the list is denser in one class
    than the shares say, unlike a plain shuffle, which clusters.
    """
    keyed = []
    for group in groups:
        for j, item in enumerate(group):
            keyed.append(((j + rng.random()) / len(group), len(keyed), item))
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def _laziness(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 7), 8)


# -- cold-exact -----------------------------------------------------------------

COLD_SHARES = {
    "exact": 0.42, "lumped": 0.10, "partition": 0.10,
    "inflationary": 0.10, "datalog": 0.10, "sparse": 0.18,
}


def _walk_request(cls, graph, start, target, reference, flags=()) -> Request:
    return Request(
        cls=cls, semantics="forever", program=inst.walk_program(),
        database=inst.walk_database(graph, {"C": start}), event=f"C({target})",
        params={}, check=Check("exact", reference), flags=list(flags),
    )


def _cold_exact_walk(rng: random.Random, shape: str, size: int, cls: str,
                     flags=()) -> Request:
    if shape == "cycle":
        n = size
        graph = inst.lazy_cycle(n, _laziness(rng))
        target = f"n{rng.randrange(n)}"
        return _walk_request(cls, graph, f"n{rng.randrange(n)}", target, Fraction(1, n), flags)
    if shape == "complete":
        n = size
        graph = inst.complete(n, rng.randint(1, 9))
        target = f"n{rng.randrange(n)}"
        return _walk_request(cls, graph, f"n{rng.randrange(n)}", target, Fraction(1, n), flags)
    if shape == "grid":
        columns = size + rng.randint(-1, 0) if size > 4 else size
        return _grid_walk(rng, size, columns, cls, flags)
    if shape == "pagerank":
        n = size
        alpha = Fraction(rng.randint(1, 4), 10)
        target = f"n{rng.randrange(n)}"
        request = _walk_request(
            cls, inst.lazy_cycle(n, _laziness(rng)), "n0", target, Fraction(1, n), flags
        )
        request.program = inst.pagerank_program(alpha)
        return request
    if shape == "ruin":
        n = size
        down = Fraction(rng.choice((8, 9, 11, 12)), 20)  # drifted: not 1/2
        k = rng.randint(2, n - 2)
        return _walk_request(
            cls, inst.birth_death(n, down), f"w{k}", "w0",
            inst.ruin_probability(n, k, down), flags,
        )
    raise ValueError(shape)


def _grid_walk(rng: random.Random, rows: int, columns: int, cls: str,
               flags=()) -> Request:
    target = f"g{rng.randrange(rows)}_{rng.randrange(columns)}"
    return _walk_request(
        cls, inst.grid(rows, columns), "g0_0", target,
        inst.grid_stationary(rows, columns, target), flags,
    )


#: Exact-walk shapes and their size ranges (nodes; grid side).
EXACT_SHAPES = {
    "cycle": (16, 64), "complete": (8, 16), "grid": (4, 6),
    "pagerank": (8, 24), "ruin": (16, 48),
}


def _cold_class(rng: random.Random, cls: str, count: int) -> list[Request]:
    out: list[Request] = []
    if cls == "exact":
        shapes = list(EXACT_SHAPES)
        per_shape = _apportion(count, {s: 1.0 for s in shapes})
        for shape, k in per_shape.items():
            lo, hi = EXACT_SHAPES[shape]
            out += [_cold_exact_walk(rng, shape, s, cls) for s in _strata(rng, k, lo, hi)]
    elif cls == "lumped":
        for i, size in enumerate(_strata(rng, count, 16, 48)):
            shape, n = ("cycle", size) if i % 2 else ("complete", 8 + size % 9)
            out.append(_cold_exact_walk(rng, shape, n, cls, ["--lumped"]))
    elif cls == "sparse":
        flags = ["--backend", "sparse", "--epsilon", "1e-9"]
        grids = max(1, count // 6)
        for size in _strata(rng, count - grids, 200, 1000):
            # Laziness 1/2: a solve's iteration count then depends on size only.
            graph = inst.lazy_cycle(size)
            target = f"n{rng.randrange(size)}"
            out.append(_certified(
                _walk_request(cls, graph, "n0", target, Fraction(1, size), flags)
            ))
        for _ in range(grids):
            out.append(_certified(_grid_walk(rng, 10, 10, cls, flags)))
    elif cls == "partition":
        for size in _strata(rng, count, 8, 16):
            out.append(_partition_request(rng, size))
    elif cls in ("inflationary", "datalog"):
        for side in _strata(rng, count, 3, 4):
            out.append(_reach_request(rng, cls, side, rng.randint(3, 4)))
    return out


def _certified(request: Request) -> Request:
    request.check = Check("certified", request.check.reference, 1e-9)
    return request


def _partition_request(rng: random.Random, n: int) -> Request:
    walkers = ("C", "D", "F")[: rng.randint(2, 3)]
    graph = inst.lazy_cycle(n, _laziness(rng))
    starts = {w: f"n{rng.randrange(n)}" for w in walkers}
    targets = {w: f"n{rng.randrange(n)}" for w in walkers}
    joiner = rng.choice(("and", "or"))
    event = f" {joiner} ".join(f"{w}({targets[w]})" for w in walkers)
    p = Fraction(1, n)
    k = len(walkers)
    reference = p**k if joiner == "and" else 1 - (1 - p) ** k
    return Request(
        cls="partition", semantics="forever", program=inst.walk_program(walkers),
        database=inst.walk_database(graph, starts), event=event, params={},
        check=Check("exact", reference), flags=["--partition", "auto"],
    )


def _reach_request(rng: random.Random, cls: str, layers: int, width: int) -> Request:
    graph = inst.layered_dag(layers, width, rng)
    start = "v0_0"
    candidates = [v for v in graph.nodes if v not in (start, "sink")]
    target = rng.choice(candidates)
    relation = "c" if cls == "datalog" else "C"
    event = f"{relation}({target})"
    reference = inst.reach_probabilities(graph, start)[target]
    if cls == "datalog":
        program, database, semantics = (
            inst.datalog_program(start), inst.datalog_database(graph), "datalog"
        )
    else:
        program, database, semantics = (
            inst.INFLATIONARY_KERNEL, inst.reach_database(graph, start), "inflationary"
        )
    return Request(
        cls=cls, semantics=semantics, program=program, database=database,
        event=event, params={}, check=Check("exact", reference),
    )


def cold_exact(seed: int, total: int) -> Traffic:
    rng = random.Random(f"cold-exact:{seed}")
    groups = []
    for cls, count in _apportion(total, COLD_SHARES).items():
        group = _cold_class(rng, cls, count)
        rng.shuffle(group)
        groups.append(group)
    timed = _interleave(rng, groups)
    # One warm-up call per query class, on small instances.
    rng = random.Random(f"cold-exact:{seed}:warm-up")
    warmup = [
        _cold_exact_walk(rng, "cycle", 16, "exact"),
        _cold_exact_walk(rng, "cycle", 16, "lumped", ["--lumped"]),
        _certified(_cold_exact_walk(
            rng, "cycle", 200, "sparse", ["--backend", "sparse", "--epsilon", "1e-9"]
        )),
        _partition_request(rng, 8),
        _reach_request(rng, "inflationary", 3, 3),
        _reach_request(rng, "datalog", 3, 3),
    ]
    return Traffic(warmup, timed)


# -- warm-sample -----------------------------------------------------------------

SAMPLE_SHARES = {
    "mcmc": 0.46, "workers2": 0.10, "columnar": 0.16,
    "inflationary": 0.10, "walkers3": 0.10, "nocache": 0.08,
}

_ALPHA = Fraction(1, 5)


def _sample_programs(rng: random.Random) -> dict:
    """The warm-sample program set.

    name -> (kind, graph, start, burn-in, exact distribution after burn-in)
    """
    programs = {
        "complete16": ("walk", inst.complete(16), "n0", 12),
        "grid10": ("walk", inst.grid(10, 10), "g0_0", 16),
        "cycle8": ("walk", inst.lazy_cycle(8), "n0", 16),
        "pagerank8": ("pagerank", inst.lazy_cycle(8), "n0", 12),
        "dag4x4": ("reach", inst.layered_dag(4, 4, rng), "v0_0", 0),
        # 8000 reachable states, more than a 4096-row cache holds; at
        # burn-in 8 a sample visits a few hundred of them, which set-up
        # warms fully (at burn-in 20 the cache kept filling all run).
        "walkers3x20": ("walkers", inst.lazy_cycle(20), "n0", 8),
    }
    out = {}
    for name, (kind, graph, start, burn_in) in programs.items():
        if kind == "reach":
            law = inst.reach_probabilities(graph, start)
        elif kind == "pagerank":
            law = inst.walk_marginal(inst.pagerank_matrix(graph, _ALPHA), start, burn_in)
        else:
            law = inst.walk_marginal(inst.walk_matrix(graph), start, burn_in)
        out[name] = (kind, graph, start, burn_in, law)
    return out


def _sample_request(rng, programs, name, cls, samples, seed, params=None) -> Request:
    kind, graph, start, burn_in, law = programs[name]
    params = dict(params or {})
    if kind == "reach":
        target = rng.choice([v for v in graph.nodes if v not in (start, "sink")])
        return Request(
            cls=cls, semantics="inflationary", program=inst.INFLATIONARY_KERNEL,
            database=inst.reach_database(graph, start), event=f"C({target})",
            params={"samples": samples, "seed": seed, **params},
            check=Check("sampled", law[target], samples=samples),
        )
    target = rng.choice(graph.nodes)
    if kind == "pagerank":
        program, starts = inst.pagerank_program(_ALPHA), {"C": start}
    elif kind == "walkers":
        program = inst.walk_program(("C", "D", "F"))
        starts = {"C": start, "D": "n7", "F": "n13"}
    else:
        program, starts = inst.walk_program(), {"C": start}
    return Request(
        cls=cls, semantics="forever", program=program,
        database=inst.walk_database(graph, starts), event=f"C({target})",
        params={"mcmc": True, "samples": samples, "burn_in": burn_in,
                "seed": seed, **params},
        check=Check("sampled", law.get(target, Fraction(0)), samples=samples),
    )


WALKS = ("complete16", "grid10", "cycle8", "pagerank8")


def _sample_class(rng, programs, cls: str, count: int, seeds) -> list[Request]:
    out = []
    for i in range(count):
        walk = WALKS[i % len(WALKS)]
        if cls == "mcmc":
            out.append(_sample_request(rng, programs, walk, cls, 400, next(seeds)))
        elif cls == "columnar":
            out.append(_sample_request(rng, programs, walk, cls, 200, next(seeds),
                                       {"backend": "columnar"}))
        elif cls == "nocache":
            # Derive every step, alternately on the columnar kernel.
            params = {"cache_size": 0, **({} if i % 2 else {"backend": "columnar"})}
            out.append(_sample_request(rng, programs, walk, cls, 12, next(seeds), params))
        elif cls == "workers2":
            name = ("complete16", "cycle8")[i % 2]
            request = _sample_request(rng, programs, name, cls, 400, next(seeds),
                                      {"workers": 2})
            request.pin = 0
            out.append(request)
        elif cls == "inflationary":
            out.append(_sample_request(rng, programs, "dag4x4", cls, 60, next(seeds)))
        elif cls == "walkers3":
            out.append(_sample_request(rng, programs, "walkers3x20", cls, 100, next(seeds)))
    return out


def warm_sample(seed: int, total: int) -> Traffic:
    rng = random.Random(f"warm-sample:{seed}")
    programs = _sample_programs(rng)
    # Sampler seeds are distinct, so no request is a result-cache hit.
    seeds = iter(rng.sample(range(1, 10**6), 80))
    # Warm-up: every (program, backend) pair until its caches hold the
    # reachable rows, and the supervised pool until its workers are warm.
    warmup: list[Request] = []
    # The three-walker program needs the most: ~20k steps.
    for cls, rounds in (("mcmc", 2), ("columnar", 1), ("inflationary", 1),
                        ("walkers3", 6), ("workers2", 3)):
        warmup += _sample_class(rng, programs, cls, rounds * len(WALKS), seeds)
    seeds = iter(rng.sample(range(10**6, 10**9), total))
    timed = _interleave(rng, [
        _sample_class(rng, programs, cls, count, seeds)
        for cls, count in _apportion(total, SAMPLE_SHARES).items()
    ])
    return Traffic(warmup, timed)


# -- http-churn -------------------------------------------------------------------

CHURN_SHARES = {"repeat": 0.35, "new-event": 0.50, "first-seen": 0.15}

#: Every hot program gets a new-event request in each round of this many
#: requests, so no hot session ages out of the 32-session pool.
ROUND = 24

#: Hot computations per hot program, answered once in set-up.
HOT_EVENTS = 3


@dataclass
class _HotProgram:
    kind: str           # "walk" | "inflationary" | "datalog"
    graph: inst.Graph
    start: str
    #: Unused events, as (kind, atoms), in a seeded random order.
    pool: list = field(default_factory=list)

    def request(self, event: str, reference: Fraction, cls: str) -> Request:
        if self.kind == "walk":
            semantics, program = "forever", inst.walk_program()
            database = inst.walk_database(self.graph, {"C": self.start})
        elif self.kind == "datalog":
            semantics, program = "datalog", inst.datalog_program(self.start)
            database = inst.datalog_database(self.graph)
        else:
            semantics, program = "inflationary", inst.INFLATIONARY_KERNEL
            database = inst.reach_database(self.graph, self.start)
        return Request(
            cls=cls, semantics=semantics, program=program, database=database,
            event=event, params={}, check=Check("exact", reference),
        )


def _hot_programs(rng: random.Random) -> list[_HotProgram]:
    """Eight hot programs, most popular first (largest event pools first).

    The programs are the same for every seed: a run keeps them all
    through, so a seed that drew costlier ones moved every latency
    percentile of its run.  The seed orders their event pools.
    """
    shapes = random.Random("http-churn:hot-programs")
    hot = [
        _HotProgram("walk", inst.lazy_cycle(16, _laziness(shapes)), "n0"),
        _HotProgram("walk", inst.grid(4, 4), "g0_0"),
        _HotProgram("walk", inst.lazy_cycle(12, _laziness(shapes)), "n0"),
        _HotProgram("walk", inst.complete(8), "n0"),
    ]
    for kind, width in (("inflationary", 4), ("datalog", 4),
                        ("inflationary", 3), ("datalog", 3)):
        hot.append(_HotProgram(kind, inst.layered_dag(3, width, shapes), "v0_0"))
    for program in hot:
        nodes = [v for v in program.graph.nodes if v != program.start]
        program.pool = [("single", (v,)) for v in nodes] + [("not", (v,)) for v in nodes]
        program.pool += [("or", atoms) for atoms in itertools.combinations(nodes, 2)]
        program.pool += [("or", atoms) for atoms in itertools.combinations(nodes, 3)]
        rng.shuffle(program.pool)
    return hot


def _walk_reference(graph: inst.Graph, node: str) -> Fraction:
    if node.startswith("g"):
        rows = 1 + max(int(v[1:].split("_")[0]) for v in graph.nodes)
        columns = 1 + max(int(v.split("_")[1]) for v in graph.nodes)
        return inst.grid_stationary(rows, columns, node)
    return Fraction(1, len(graph.nodes))


def _hot_request(program: _HotProgram, cls: str) -> Request:
    """A computation on a hot program with an event no request used yet."""
    kind, atoms = program.pool.pop()
    relation = "c" if program.kind == "datalog" else "C"
    text = " or ".join(f"{relation}({node})" for node in atoms)
    if program.kind == "walk":
        reference = sum(_walk_reference(program.graph, node) for node in atoms)
    else:
        reference = inst.reach_union(program.graph, program.start, list(atoms))
    if kind == "not":
        text, reference = f"not {text}", 1 - reference
    return program.request(text, reference, cls)


def _zipf(rng: random.Random, items: list):
    weights = [1.0 / (rank + 1) for rank in range(len(items))]
    return rng.choices(items, weights=weights)[0]


def _session_key(request: Request) -> str:
    return json.dumps([request.program, request.database], sort_keys=True)


def _first_seen(rng: random.Random, index: int, seen: set) -> Request:
    """The ``index``-th request on a program no earlier request used.

    Shapes and sizes cycle with ``index`` rather than being drawn, so
    every seed gets the same mix of first-seen costs.
    """
    shape = ("cycle", "complete", "inflationary", "datalog")[index % 4]
    step = index // 4
    for _ in range(10_000):
        if shape in ("inflationary", "datalog"):
            request = _reach_request(rng, shape, 3, 3 + step % 2)
        else:
            n = 8 + step % 9 if shape == "cycle" else 5 + step % 4
            request = _cold_exact_walk(rng, shape, n, "first-seen")
        request.cls = "first-seen"
        if _session_key(request) not in seen:
            seen.add(_session_key(request))
            return request
    raise RuntimeError(f"no unseen {shape} program left")


def http_churn(seed: int, total: int) -> Traffic:
    rng = random.Random(f"http-churn:{seed}")
    hot = _hot_programs(rng)
    # The hot computations are answered once in set-up.  Verbatim repeats
    # replay only these, and every other computation in the run is new,
    # so each repeat is a result-cache hit and each other request a miss,
    # however the two clients interleave.
    hot_set = [_hot_request(p, "repeat") for p in hot for _ in range(HOT_EVENTS)]
    seen = {_session_key(request) for request in hot_set}
    counts = _apportion(total, CHURN_SHARES)
    classes = _interleave(rng, [[cls] * count for cls, count in counts.items()])
    timed: list[Request] = []
    deck: list[Request] = []
    repeats = first_seen = 0
    for start in range(0, len(classes), ROUND):
        cover = list(hot)
        rng.shuffle(cover)
        for cls in classes[start:start + ROUND]:
            if cls == "first-seen":
                timed.append(_first_seen(rng, first_seen, seen))
                first_seen += 1
            elif cls == "new-event":
                program = cover.pop() if cover else _zipf(rng, hot)
                if not program.pool:
                    program = next(p for p in hot if p.pool)
                timed.append(_hot_request(program, "new-event"))
            else:
                # Alternate Zipf popularity with a shuffled deck of the
                # whole hot set, so every hot result is read often enough
                # never to leave the 1024-entry result cache.
                repeats += 1
                if repeats % 2:
                    template = _zipf(rng, hot_set)
                else:
                    if not deck:
                        deck = list(hot_set)
                        rng.shuffle(deck)
                    template = deck.pop()
                timed.append(Request(**{**template.__dict__, "cls": "repeat"}))
    return Traffic(hot_set, timed)


GENERATORS = {
    "cold-exact": cold_exact,
    "warm-sample": warm_sample,
    "http-churn": http_churn,
}


def generate(workload: str, seed: int, total: int) -> Traffic:
    return GENERATORS[workload](seed, total)
