"""Correctness gate: every measured answer against an independent reference.

Runs after the timed phase.  Single-caller answers are checked against
the brute-force oracle in :mod:`repro.prefs.oracle`:

* ``Λ`` (the explanation's culprits) must equal the oracle's set exactly;
* every MWP, MQP and MWQ candidate the answer offers as verified must
  really admit the customer into the reverse skyline of its (moved)
  query.  The answers sit on window boundaries by construction, so this
  test forgives products that are inside the window by less than a
  relative ``1e-9`` of the coordinates — rounding, not a wrong answer.

Served answers are compared with a twin engine replayed to the epoch
each response was served at (``canonical_json`` equality).

Answers are kept as small records (digests instead of the Λ arrays) so
that holding a run's answers for the gate barely moves the process's
peak memory, which is itself a benchmark metric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core import batch
from repro.prefs.oracle import oracle_lambda_positions
from repro.serve import canonical_json, serialize_answer

__all__ = [
    "BOUNDARY_RTOL",
    "AnswerRecord",
    "check_record",
    "digest",
    "oracle_admits",
    "oracle_culprits",
    "record_answer",
    "served_matches",
]

BOUNDARY_RTOL = 1e-9


def digest(payload) -> str:
    """Short stable digest of an int array or a string."""
    data = (
        payload.encode()
        if isinstance(payload, str)
        else np.ascontiguousarray(payload, dtype=np.int64).tobytes()
    )
    return hashlib.sha1(data).hexdigest()


@dataclass(frozen=True)
class AnswerRecord:
    """What the gate needs of one composite answer."""

    why_not: int
    query: np.ndarray
    member: bool
    culprit_count: int
    culprit_digest: str
    #: ``(label, customer point, query point)``: the customer must be in
    #: the reverse skyline of the query point.
    claims: tuple


def record_answer(answer) -> AnswerRecord:
    """Keep what :func:`check_record` inspects of a ``WhyNotAnswer``:
    every candidate the answer does not itself flag as failing."""
    c = answer.explanation.why_not
    q = answer.query
    claims = []
    for cand in answer.mwp.candidates:
        if cand.verified is not False:
            claims.append(("MWP", cand.point, q))
    for cand in answer.mqp.candidates:
        if cand.verified is not False:
            claims.append(("MQP", c, cand.point))
    for cand in answer.mwq.query_candidates:
        if cand.verified is not False:
            claims.append(("MWQ", c, cand.point))
    for q_cand, c_cand in answer.mwq.pairs:
        if c_cand.verified is not False:
            claims.append(("MWQ", c_cand.point, q_cand.point))
    culprits = np.sort(np.asarray(answer.explanation.culprit_positions))
    return AnswerRecord(
        why_not=int(answer.why_not),
        query=q,
        member=bool(answer.already_member),
        culprit_count=int(culprits.size),
        culprit_digest=digest(culprits),
        claims=tuple(claims),
    )


def oracle_culprits(products, why_not, query, policy, exclude=()) -> np.ndarray:
    """The oracle's Λ positions.

    Products outside the closed window box around ``why_not`` are
    dropped before the oracle's per-product loop: no dominance policy
    can select them, so the result is the oracle's over all products.
    """
    c = np.asarray(why_not, dtype=np.float64)
    radii = np.abs(c - np.asarray(query, dtype=np.float64))
    near = np.flatnonzero(np.all(np.abs(products - c) <= radii, axis=1))
    local = {int(p): i for i, p in enumerate(near)}
    excluded = [local[int(p)] for p in exclude if int(p) in local]
    found = oracle_lambda_positions(
        products[near], c, query, policy=policy, exclude=excluded
    )
    return near[found]


def _shrunk_query(why_not, query) -> np.ndarray:
    """``query`` pulled toward ``why_not`` by the boundary tolerance in
    every dimension, so the window only holds clearly-inside products."""
    c = np.asarray(why_not, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(c))), float(np.max(np.abs(q))))
    radii = np.maximum(np.abs(q - c) - BOUNDARY_RTOL * scale, 0.0)
    return c + np.sign(q - c) * radii


def oracle_admits(products, why_not, query, policy, exclude=()) -> bool:
    """Is ``why_not`` in the reverse skyline of ``query`` (up to the
    boundary tolerance), by the oracle?"""
    shrunk = _shrunk_query(why_not, query)
    return oracle_culprits(products, why_not, shrunk, policy, exclude).size == 0


def check_record(products, customers, rec: AnswerRecord, policy, monochromatic) -> list:
    """Problems found in one recorded answer (empty when correct).

    ``rec.why_not`` is a row position of ``customers``; ``products`` is
    the product matrix the answer was computed on.
    """
    exclude = (rec.why_not,) if monochromatic else ()
    problems = []
    expected = oracle_culprits(
        products, customers[rec.why_not], rec.query, policy, exclude
    )
    if rec.culprit_count != expected.size or rec.culprit_digest != digest(expected):
        problems.append(
            f"Λ has {rec.culprit_count} culprits, oracle has {expected.size}"
        )
    if rec.member != (expected.size == 0):
        problems.append("membership verdict disagrees with the oracle")
    if rec.member:
        return problems
    if not rec.claims:
        problems.append("no verified modification offered")
    for label, point, query_point in rec.claims:
        if not oracle_admits(products, point, query_point, policy, exclude):
            problems.append(
                f"{label}: {point} is not admitted by query {query_point}"
            )
    return problems


def served_matches(twin, request: dict, result_digest: str) -> bool:
    """Does one served ``/why-not`` result equal the twin's answer to
    the same request?"""
    direct = batch.answer_why_not(
        twin,
        request["why_not"],
        request["query"],
        approximate=request["approximate"],
    )
    return digest(canonical_json(serialize_answer(direct))) == result_digest
