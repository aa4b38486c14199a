"""The three benchmark workloads.

Each workload's inputs are a function of its seed alone (the catalogue
is fixed, the seed draws the traffic); it is then driven through the
library's public surfaces:

* ``warm-2d`` — many customers ask about a few products.  Simulated
  CarDB (the paper's dataset, monochromatic), 14 hot queries picked by
  the paper's protocol (one per reverse-skyline size), their safe
  regions warmed during set-up, then a closed loop of composite why-not
  questions from distinct non-member customers, a quarter of them
  approximate, with a probe ``SR(q)`` and a product insert every ten
  operations.  R-tree Λ windows and verification probes dominate; SFS
  and region folds are small because the hot safe regions are cached.
* ``cold-3d`` — new-product what-if.  Uniform 3-D, bichromatic, no DSL
  cache; every query is new: ``SR(q)`` is timed first, then one
  customer's question; of every three rounds one also answers an
  approximate question on another new query and one inserts a product.
  BBRS, per-member dynamic skylines and the region fold dominate; index
  probing is small.
* ``serve-mixed`` — reads beside writes over HTTP.  Uniform 2-D
  bichromatic, the service and HTTP server in-process on one event loop,
  two keep-alive connections in a closed loop over four hot queries;
  one connection replaces every eighth request by a product insert or
  delete, the other replaces one request in four by an approximate
  question and another by ``/safe-region`` for a query never seen.  The
  only workload where admission, coalescing, leases, drains and cache
  invalidation do real work.

Operation kinds are interleaved by count, so every timing is sampled
across the whole run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import WhyNotConfig
from repro.core import batch
from repro.core.engine import WhyNotEngine
from repro.data.cardb import generate_cardb
from repro.data.workload import build_workload
from repro.serve import (
    ServeConfig,
    WhyNotHTTPServer,
    WhyNotService,
    canonical_json,
    http_json,
    serialize_safe_region,
)

from wnbench.correctness import (
    check_record,
    digest,
    oracle_culprits,
    record_answer,
    served_matches,
)

__all__ = ["WORKLOADS", "Phase"]

#: Seed of the catalogues: datasets, hot queries, the single-caller
#: insert batch and the never-seen queries whose ``SR(q)`` warm-2d and
#: serve-mixed time.  They are the same for every run, like the paper's
#: fixed datasets; ``--seed`` draws the traffic: who asks, cold-3d's new
#: queries, serve-mixed's log of writes.
CATALOGUE_SEED = 1

#: Sample size ``k`` of the approximate safe region (Section VI.B).
APPROX_K = 10

#: Counters the determinism check compares between two same-seed passes.
DETERMINISTIC_COUNTERS = (
    "index.queries",
    "index.node_accesses",
    "dsl_cache.region_misses",
    "safe_region.peak_boxes",
)


@dataclass
class Phase:
    """What one measured phase did."""

    #: Seconds per operation kind: question, approx, safe_region, mutation.
    latencies: dict = field(default_factory=dict)
    #: Operations attempted and failed (errors, sheds) while running.
    attempted: int = 0
    failed: int = 0
    #: Wall time of the phase.
    wall_s: float = 0.0
    #: What to replay to repeat the phase exactly (operation counts).
    ops: object = None
    #: Items the correctness gate inspects after the phase.
    answers: list = field(default_factory=list)
    #: Workload-specific facts (e.g. HTTP 200s seen by the clients).
    extra: dict = field(default_factory=dict)

    def add(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def count(self, *kinds) -> int:
        return sum(len(self.latencies.get(kind, ())) for kind in kinds)


def _keep_going(phase: Phase, done: int, ops, deadline, min_questions) -> bool:
    """Loop condition: a fixed operation count when replaying, else the
    deadline and a floor on exact questions (so that the p90 always has
    enough samples beyond it, even on a slow host)."""
    if ops is not None:
        return done < ops
    return time.perf_counter() < deadline or phase.count("question") < min_questions


def bit_reversed(count: int) -> list:
    """``0 .. 2**bits - 1`` (``2**bits >= count``) in bit-reversed order:
    the van der Corput sequence scaled to integers, whose first ``2**k``
    entries are evenly spaced for every ``k``."""
    bits = max(1, (count - 1).bit_length())
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]


def stratified(keys, rng) -> list:
    """Positions of ``keys`` in an order whose every prefix is an even
    sample of their distribution.

    Ranks are visited in bit-reversed order, rotated by a random offset,
    so a run that stops after any number of questions has asked a
    stratified sample, and the seed decides which.
    """
    ranked = np.argsort(np.asarray(keys), kind="stable")
    n = int(ranked.size)
    offset = int(rng.integers(n))
    return [int(ranked[(r + offset) % n]) for r in bit_reversed(n) if r < n]


def window_area(customers, query, span) -> np.ndarray:
    """Normalised volume of each customer's window around ``query``: the
    proxy for how much work its question costs (Λ grows with it)."""
    return np.prod(np.abs(customers - np.asarray(query)) / span, axis=1)


def _radical_inverse(i: int, base: int) -> float:
    scale, value = 1.0, 0.0
    while i:
        scale /= base
        value += scale * (i % base)
        i //= base
    return value


def halton(count: int, dim: int, rng, lo: float, hi: float) -> np.ndarray:
    """``count`` points of the Halton sequence in ``[lo, hi]**dim``,
    rotated by a random offset: quasi-random queries whose every prefix
    covers the box evenly, so runs of any length ask comparable mixes."""
    bases = (2, 3, 5)[:dim]
    points = np.array(
        [[_radical_inverse(i + 1, b) for b in bases] for i in range(count)]
    )
    return lo + (hi - lo) * ((points + rng.random(dim)) % 1.0)


def _split_stratified(positions, keys, rng) -> tuple:
    """Two disjoint stratified orders of ``positions`` (alternate ranks
    of ``keys``), one for exact and one for approximate questions."""
    ranked = np.asarray(positions)[np.argsort(keys, kind="stable")]
    return tuple(
        [int(pool[i]) for i in stratified(np.arange(pool.size), rng)]
        for pool in (ranked[0::2], ranked[1::2])
    )


def _config(traced: bool, **options) -> WhyNotConfig:
    return WhyNotConfig(trace=traced, **options)


def _numeric(snapshot: dict) -> dict:
    return {
        k: v for k, v in snapshot.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


class _EngineWorkload:
    """Shared shape of the single-caller workloads.

    Product inserts are interleaved with the questions by operation
    count, so that, like every other timing, they are sampled across the
    whole run rather than in one burst that a passing host hiccup can
    swamp.  Each answer is checked against the product matrix of the
    epoch it was computed at.
    """

    name = ""
    monochromatic = False
    BACKEND = "rtree"
    #: Size of the fixed catalogue-update batch (a run uses a prefix).
    INSERT_POOL = 256

    def counters(self, dep) -> dict:
        return _numeric(dep["engine"].obs.metrics.snapshot())

    def close(self, dep) -> None:
        dep["engine"].close()

    def shutdown(self) -> None:
        pass

    def _begin(self, dep) -> Phase:
        dep["snapshots"] = {}
        dep["inserted"] = 0
        return Phase()

    def _insert(self, dep, phase: Phase) -> None:
        point = self.insert_points[dep["inserted"] % self.INSERT_POOL]
        dep["inserted"] += 1
        start = time.perf_counter()
        dep["engine"].insert_products([point])
        phase.add("mutation", time.perf_counter() - start)
        phase.attempted += 1

    def _ask(self, dep, phase, kind, why_not, query) -> None:
        engine = dep["engine"]
        start = time.perf_counter()
        answer = batch.answer_why_not(
            engine, why_not, query, approximate=(kind == "approx"), k=APPROX_K
        )
        phase.add(kind, time.perf_counter() - start)
        phase.attempted += 1
        epoch = engine.dataset_epoch
        if epoch not in dep["snapshots"]:
            dep["snapshots"][epoch] = (engine.products, engine.customers)
        phase.answers.append((epoch, record_answer(answer)))

    def _build_region(self, dep, phase, query) -> None:
        start = time.perf_counter()
        dep["engine"].safe_region(query)
        phase.add("safe_region", time.perf_counter() - start)

    def check(self, dep, phase: Phase) -> list:
        """``(answer index, problem)`` pairs; empty when all are correct."""
        policy = dep["engine"].config.policy
        problems = []
        for i, (epoch, rec) in enumerate(phase.answers):
            products, customers = dep["snapshots"][epoch]
            for problem in check_record(
                products, customers, rec, policy, self.monochromatic
            ):
                problems.append((i, f"c={rec.why_not}: {problem}"))
        return problems

    def explain_sample(self, dep, phase: Phase, count: int = 8) -> list:
        """``(surface, why_not, query)`` triples for the EXPLAIN sample."""
        picks = phase.answers[:: max(1, len(phase.answers) // count)][:count]
        return [
            (surface, rec.why_not, rec.query)
            for _, rec in picks
            for surface in ("explain", "mwp", "mqp", "mwq")
        ]


class Warm2D(_EngineWorkload):
    """Operations cycle in tens: one product insert, one ``SR(q)`` for a
    probe query never seen, eight questions about the hot queries."""

    name = "warm-2d"
    monochromatic = True
    ROWS = 10_000
    #: One hot query per reverse-skyline size, as in the paper's protocol.
    RSL_TARGETS = tuple(range(2, 16))
    #: Every fourth question about each hot query is approximate.
    APPROX_EVERY = 4
    CYCLE = 10
    MAX_PROBES = 1024

    def __init__(self, seed: int) -> None:
        data = generate_cardb(self.ROWS, seed=CATALOGUE_SEED)
        self.points = data.points
        self.bounds = data.bounds
        scout = WhyNotEngine(self.points, backend=self.BACKEND, bounds=self.bounds)
        picked = build_workload(scout, targets=self.RSL_TARGETS, seed=CATALOGUE_SEED)
        scout.close()
        self.queries = [w.query for w in picked]
        lo, span = self.bounds.lo, self.bounds.hi - self.bounds.lo
        catalogue = np.random.default_rng(CATALOGUE_SEED)
        self.insert_points = list(lo + span * catalogue.uniform(size=(self.INSERT_POOL, 2)))
        rng = np.random.default_rng(seed)
        self.streams = {"question": [], "approx": []}
        for w in picked:
            others = np.flatnonzero(~np.isin(np.arange(self.ROWS), w.rsl_positions))
            keys = window_area(self.points[others], w.query, span)
            exact, approx = _split_stratified(others, keys, rng)
            self.streams["question"].append(exact)
            self.streams["approx"].append(approx)
        # Probe queries are part of the catalogue (the same every run, so
        # their heterogeneous build costs do not vary the metric's mix)
        # and lie where the data does: the hot queries' box.
        hot = np.asarray(self.queries)
        self.probes = halton(self.MAX_PROBES, 2, catalogue, 0.0, 1.0) * (
            hot.max(axis=0) - hot.min(axis=0)
        ) + hot.min(axis=0)

    def setup(self, traced: bool) -> dict:
        engine = WhyNotEngine(
            self.points, backend=self.BACKEND, bounds=self.bounds,
            config=_config(traced),
        )
        for q in self.queries:
            engine.safe_region(q)
            engine.safe_region(q, approximate=True, k=APPROX_K)
        return {"engine": engine}

    def run(self, dep, seconds=None, ops=None, min_questions=0) -> Phase:
        phase = self._begin(dep)
        hot = len(self.queries)
        asked = {"question": [0] * hot, "approx": [0] * hot}
        questions = 0
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        i = 0
        while _keep_going(phase, i, ops, deadline, min_questions):
            slot, cycle = i % self.CYCLE, i // self.CYCLE
            if slot == self.CYCLE - 1:
                self._insert(dep, phase)
            elif slot == self.CYCLE // 2 - 1:
                self._build_region(dep, phase, self.probes[cycle % self.MAX_PROBES])
            else:
                h, t = questions % hot, questions // hot
                kind = "approx" if t % self.APPROX_EVERY == self.APPROX_EVERY - 1 else "question"
                stream = self.streams[kind][h]
                self._ask(dep, phase, kind, stream[asked[kind][h] % len(stream)], self.queries[h])
                asked[kind][h] += 1
                questions += 1
            i += 1
        phase.wall_s = time.perf_counter() - start
        phase.ops = i
        return phase


class Cold3D(_EngineWorkload):
    """Every ``SR(q)`` is cold: the engine runs without the per-customer
    DSL cache, so each build pays BBRS, the members' dynamic skylines
    and the fold, and the cost does not drift down as a cache fills over
    the run.  The approximate store is the paper's offline pass, built
    in set-up, so approximate questions are stationary too.  Every third
    round also answers an approximate question on another new query and
    inserts one product."""

    name = "cold-3d"
    ROWS = 400
    DIM = 3
    EVERY = 3
    #: Rounds generated up front (a power of two); a run wraps past them.
    MAX_ROUNDS = 512

    def __init__(self, seed: int) -> None:
        catalogue = np.random.default_rng(CATALOGUE_SEED)
        self.products = catalogue.uniform(0.0, 1.0, size=(self.ROWS, self.DIM))
        self.customers_m = catalogue.uniform(0.0, 1.0, size=(self.ROWS, self.DIM))
        self.insert_points = list(
            catalogue.uniform(0.0, 1.0, size=(self.INSERT_POOL, self.DIM))
        )
        rng = np.random.default_rng(seed)
        self.queries = halton(self.MAX_ROUNDS, self.DIM, rng, 0.2, 0.8)
        self.approx_queries = halton(self.MAX_ROUNDS, self.DIM, rng, 0.2, 0.8)
        # Round j's customers sit at evenly spread ranks of window area
        # (the same rotated bit-reversal as ``stratified``), each a
        # non-member by the oracle over the catalogue — inserts only add
        # blockers, so it stays one after any inserts.
        shift = rng.random()
        fractions = [
            (r / self.MAX_ROUNDS + shift) % 1.0 for r in bit_reversed(self.MAX_ROUNDS)
        ]
        self.askers = [
            self._non_member(q, f) for q, f in zip(self.queries, fractions)
        ]
        self.approx_askers = [
            self._non_member(q, 1.0 - f)
            for q, f in zip(self.approx_queries, fractions)
        ]

    def _non_member(self, query, fraction: float) -> int:
        """The first oracle non-member of ``RSL(query)`` at or above the
        ``fraction`` rank of window area (wrapping around)."""
        ranked = np.argsort(window_area(self.customers_m, query, 1.0), kind="stable")
        start = int(fraction * self.ROWS)
        policy = WhyNotConfig().policy
        for step in range(self.ROWS):
            c = int(ranked[(start + step) % self.ROWS])
            if oracle_culprits(self.products, self.customers_m[c], query, policy).size:
                return c
        raise ValueError("every customer is in the reverse skyline")

    def setup(self, traced: bool) -> dict:
        engine = WhyNotEngine(
            self.products, customers=self.customers_m, backend=self.BACKEND,
            config=_config(traced, dsl_cache=False),
        )
        engine.approx_store(APPROX_K).precompute()
        return {"engine": engine}

    def run(self, dep, seconds=None, ops=None, min_questions=0) -> Phase:
        phase = self._begin(dep)
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        j = 0
        while _keep_going(phase, j, ops, deadline, min_questions):
            r = j % self.MAX_ROUNDS
            self._build_region(dep, phase, self.queries[r])
            self._ask(dep, phase, "question", self.askers[r], self.queries[r])
            if j % self.EVERY == self.EVERY - 1:
                self._ask(
                    dep, phase, "approx", self.approx_askers[r],
                    self.approx_queries[r],
                )
            elif j % self.EVERY == 1:
                self._insert(dep, phase)
            j += 1
        phase.wall_s = time.perf_counter() - start
        phase.ops = j
        return phase


class ServeMixed:
    """HTTP workload; every method drives one private event loop."""

    name = "serve-mixed"
    ROWS = 2000
    HOT = 4
    CONNECTIONS = 2
    MUTATE_EVERY = 8
    APPROX_EVERY = 4
    REGION_EVERY = 4
    BACKEND = "rtree"
    MAX_MUTATIONS = 20_000
    MAX_REGIONS = 4096

    def __init__(self, seed: int) -> None:
        catalogue = np.random.default_rng(CATALOGUE_SEED)
        self.products = catalogue.uniform(0.0, 1.0, size=(self.ROWS, 2))
        self.customers_m = catalogue.uniform(0.0, 1.0, size=(self.ROWS, 2))
        self.queries = [
            [float(v) for v in catalogue.uniform(0.3, 0.7, size=2)]
            for _ in range(self.HOT)
        ]
        rng = np.random.default_rng(seed)
        # streams[k][h]: connection k's askers about hot query h; the
        # approximate questions (connection 1 only) have their own.
        everyone = np.arange(self.ROWS)
        self.streams = [[] for _ in range(self.CONNECTIONS)]
        self.approx_streams = []
        for q in self.queries:
            keys = window_area(self.customers_m, q, 1.0)
            first, second = _split_stratified(everyone, keys, rng)
            self.streams[0].append(first)
            self.streams[1].append(second)
            self.approx_streams.append(stratified(keys, rng))
        # Fresh ``/safe-region`` queries are catalogue, like warm-2d's
        # probes: the same build mix every run.
        self.fresh_queries = halton(self.MAX_REGIONS, 2, catalogue, 0.3, 0.7).tolist()
        self.mutations = []
        count = self.ROWS
        for j in range(self.MAX_MUTATIONS):
            if j % 2 == 0:
                point = [float(v) for v in rng.uniform(0.0, 1.0, size=2)]
                self.mutations.append(("insert_products", {"points": [point]}))
                count += 1
            else:
                position = int(rng.integers(0, count))
                self.mutations.append(
                    ("delete_products", {"positions": [position]})
                )
                count -= 1
        self.loop = asyncio.new_event_loop()

    # -- lifecycle ------------------------------------------------------
    def setup(self, traced: bool) -> dict:
        return self.loop.run_until_complete(self._setup(traced))

    async def _setup(self, traced: bool) -> dict:
        engine = WhyNotEngine(
            self.products, customers=self.customers_m, backend=self.BACKEND,
            config=_config(traced),
        )
        service = WhyNotService(engine, ServeConfig(default_deadline_s=60.0))
        await service.start()
        server = WhyNotHTTPServer(service, host="127.0.0.1", port=0)
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            for q in self.queries:
                status, _ = await http_json(
                    server.host, server.port, "POST", "/safe-region",
                    {"query": q}, reader, writer,
                )
                if status != 200:
                    raise RuntimeError(f"warm-up /safe-region returned {status}")
        finally:
            writer.close()
            await writer.wait_closed()
        return {"engine": engine, "service": service, "server": server}

    def close(self, dep) -> None:
        async def stop():
            await dep["server"].stop()
            await dep["service"].stop()

        self.loop.run_until_complete(stop())

    def shutdown(self) -> None:
        """Join the loop's default-executor threads, then close it."""
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def counters(self, dep) -> dict:
        return _numeric(dep["engine"].obs.metrics.snapshot())

    # -- measured phase -------------------------------------------------
    def run(self, dep, seconds=None, ops=None, min_questions=0) -> Phase:
        return self.loop.run_until_complete(
            self._run(dep, seconds, ops, min_questions)
        )

    def _request(self, k: int, i: int, state: dict) -> tuple:
        """``(kind, path, payload, sequence number)`` of request ``i`` on
        connection ``k``; which kind comes next depends on counts only."""
        if k == 0 and i % self.MUTATE_EVERY == self.MUTATE_EVERY - 1:
            seq = state["mutations"]
            state["mutations"] += 1
            op, params = self.mutations[seq]
            return "mutation", "/mutate", {"op": op, **params}, seq
        if k == 1 and i % self.REGION_EVERY == 1:
            seq = state["regions"]
            state["regions"] += 1
            payload = {"query": self.fresh_queries[seq % self.MAX_REGIONS]}
            return "safe_region", "/safe-region", payload, seq
        approximate = k == 1 and i % self.APPROX_EVERY == self.APPROX_EVERY - 1
        counter = "approx" if approximate else k
        seq = state["asked"][counter]
        state["asked"][counter] += 1
        h = (seq + k) % self.HOT
        stream = self.approx_streams[h] if approximate else self.streams[k][h]
        payload = {
            "why_not": stream[(seq // self.HOT) % len(stream)],
            "query": self.queries[h],
            "approximate": approximate,
        }
        return ("approx" if approximate else "question"), "/why-not", payload, seq

    async def _run(self, dep, seconds, ops, min_questions) -> Phase:
        server = dep["server"]
        phase = Phase()
        phase.extra = {"read_200": 0}
        done = [0] * self.CONNECTIONS
        state = {
            "mutations": 0,
            "regions": 0,
            "asked": {"approx": 0, **{k: 0 for k in range(self.CONNECTIONS)}},
        }
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None

        async def connection(k: int) -> None:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            i = 0
            try:
                while _keep_going(
                    phase, i, None if ops is None else ops[k], deadline,
                    min_questions,
                ):
                    kind, path, payload, seq = self._request(k, i, state)
                    t0 = time.perf_counter()
                    status, body = await http_json(
                        server.host, server.port, "POST", path, payload,
                        reader, writer,
                    )
                    elapsed = time.perf_counter() - t0
                    phase.attempted += 1
                    i += 1
                    if status != 200:
                        phase.failed += 1
                        continue
                    phase.add(kind, elapsed)
                    if kind != "mutation":
                        phase.extra["read_200"] += 1
                    result = digest(canonical_json(body.get("result")))
                    phase.answers.append((kind, seq, payload, body["epoch"], result))
            finally:
                done[k] = i
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(connection(k) for k in range(self.CONNECTIONS)))
        phase.wall_s = time.perf_counter() - start
        phase.ops = tuple(done)
        return phase

    # -- correctness ----------------------------------------------------
    def check(self, dep, phase: Phase) -> list:
        """Replay the mutation log on a twin engine, epoch by epoch, and
        compare every served answer with the twin's.  Returns
        ``(operation index, problem)`` pairs."""
        problems = []
        by_epoch: dict[int, list] = {}
        for i, (kind, seq, payload, epoch, result) in enumerate(phase.answers):
            if kind == "mutation":
                if epoch != seq + 1:
                    problems.append((i, f"mutation {seq} published epoch {epoch}"))
                continue
            by_epoch.setdefault(epoch, []).append((i, kind, payload, result))
        twin = WhyNotEngine(
            self.products.copy(), customers=self.customers_m.copy(),
            backend=self.BACKEND,
        )
        try:
            applied = 0
            for epoch in sorted(by_epoch):
                while applied < epoch:
                    op, params = self.mutations[applied]
                    getattr(twin, op)(**params)
                    applied += 1
                for i, kind, payload, result in by_epoch[epoch]:
                    if kind == "safe_region":
                        direct = serialize_safe_region(
                            twin.safe_region(payload["query"])
                        )
                        same = digest(canonical_json(direct)) == result
                    else:
                        same = served_matches(twin, payload, result)
                    if not same:
                        problems.append((
                            i,
                            f"epoch {epoch} {kind} {payload}: served answer "
                            "differs from the replayed twin",
                        ))
        finally:
            twin.close()
        return problems

    def explain_sample(self, dep, phase: Phase, count: int = 8) -> list:
        """EXPLAIN sample over the hot queries at the final epoch."""
        picks = [a for a in phase.answers if a[0] == "question"]
        picks = picks[:: max(1, len(picks) // count)][:count]
        return [
            (surface, payload["why_not"], np.asarray(payload["query"]))
            for _, _, payload, _, _ in picks
            for surface in ("explain", "mwp", "mqp", "mwq")
        ]


WORKLOADS = {cls.name: cls for cls in (Warm2D, Cold3D, ServeMixed)}
