"""Masks/sec benchmark: precomputed path vs naive per-token simulation.

Both paths answer the same query — the full packed validity row for
the decode's current state — over the same seeded random walk through
valid tokens.  The precomputed path is a row copy plus the
context-dependent remainder; the naive baseline re-walks every
vocabulary token's bytes at every step (what a masking layer without
ahead-of-time precompute has to do).  The ≥10× ratio between them is
the CI acceptance gate and lands in ``BENCH_throughput.json``.
"""

from __future__ import annotations

import random
import time

from .beam import BeamMaskSession, xor_patch
from .masks import MaskSession, MaskTable, build_mask_table
from .vocab import Vocabulary, synthetic_vocab

__all__ = [
    "beam_schedule",
    "random_walk_states",
    "run_beam_bench",
    "run_mask_bench",
]


def random_walk_states(
    table: MaskTable, steps: int, seed: int = 2006
) -> list[int]:
    """A seeded decode trajectory: from state 0, repeatedly pick a
    uniformly random valid token and advance (reset on dead ends), and
    return the state visited at each step."""
    rng = random.Random(seed)
    session = MaskSession(table)
    states = []
    for _ in range(steps):
        states.append(session.state)
        row = session.mask()
        valid = [
            i for i in range(len(table.vocab)) if row[i >> 3] >> (i & 7) & 1
        ]
        if not valid:
            session.reset()
            continue
        session.advance(rng.choice(valid))
    return states


def _rate(query, states, reps: int = 3) -> float:
    """Best-of-``reps`` masks/sec for ``query(state)`` over a fixed
    trajectory (one untimed warmup pass first)."""
    for state in states:
        query(state)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for state in states:
            query(state)
        best = min(best, time.perf_counter() - start)
    return len(states) / best


def run_mask_bench(
    grammar,
    options=None,
    vocab: Vocabulary | None = None,
    *,
    steps: int = 400,
    naive_steps: int = 40,
    seed: int = 2006,
    reps: int = 3,
    ci_max_len=None,
    ci_budget=None,
) -> dict:
    """Measure the precomputed and naive masks/sec on one grammar.

    The naive baseline runs over a prefix of the same trajectory
    (``naive_steps``) because it is orders of magnitude slower; both
    rates are per-mask, so the ratio is fair.
    """
    vocab = vocab or synthetic_vocab()
    kwargs = {}
    if ci_max_len is not None:
        kwargs["ci_max_len"] = ci_max_len
    if ci_budget is not None:
        kwargs["ci_budget"] = ci_budget
    table = build_mask_table(grammar, vocab, options, **kwargs)

    states = random_walk_states(table, steps, seed=seed)
    session = MaskSession(table)

    def precomputed(state: int):
        session.state = state
        return session.mask()

    masks_per_s = _rate(precomputed, states, reps=reps)
    naive_per_s = _rate(table.naive_row, states[:naive_steps], reps=1)

    counters = dict(session.counters)
    served = counters["masks_served"] or 1
    return {
        "grammar": table.grammar_name,
        "vocab_size": len(vocab),
        "vocab_hash": vocab.vocab_hash[:16],
        "states": table.n_states,
        "ci": table.ci_count,
        "cd": len(table.cd_ids),
        "ci_fraction": table.ci_count / len(vocab),
        "build_ms": table.build_ms,
        "steps": len(states),
        "masks_per_s": masks_per_s,
        "naive_masks_per_s": naive_per_s,
        "speedup": masks_per_s / naive_per_s if naive_per_s else 0.0,
        "ci_tokens_per_mask": counters["ci_tokens"] / served,
        "cd_checks_per_mask": counters["cd_checks"] / served,
    }


# ----------------------------------------------------------------------
# beam: batched advance+mask vs independent per-lane sessions
# ----------------------------------------------------------------------
def beam_schedule(
    table: MaskTable, width: int, steps: int, seed: int = 2006
) -> list:
    """A seeded beam trajectory: per step one valid token id per lane
    (``("advance", ids)``) or a full-beam reset when any lane dead-
    ends (``("reset",)``).  Both the beam session and the independent
    baselines replay the identical operation list."""
    rng = random.Random(seed)
    lanes = [MaskSession(table) for _ in range(width)]
    n = len(table.vocab)
    ops: list = []
    for _ in range(steps):
        ids = []
        for lane in lanes:
            row = lane.mask()
            valid = [
                i for i in range(n) if row[i >> 3] >> (i & 7) & 1
            ]
            if not valid:
                ids = None
                break
            ids.append(rng.choice(valid))
        if ids is None:
            ops.append(("reset",))
            for lane in lanes:
                lane.reset()
            continue
        ops.append(("advance", ids))
        for lane, tok in zip(lanes, ids):
            lane.advance(tok)
    return ops


def _beam_rate(run, reps: int = 3) -> float:
    """Best-of-``reps`` seconds for ``run()`` (one warmup pass)."""
    run()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_beam_bench(
    grammar,
    options=None,
    vocab: Vocabulary | None = None,
    *,
    width: int = 32,
    steps: int = 200,
    seed: int = 2006,
    reps: int = 3,
    path: str = "auto",
) -> dict:
    """Beam-of-``width`` masks/sec vs ``width`` independent sessions.

    Both sides replay the same seeded schedule and serve the same
    masks per step (one per lane), so the ratio isolates exactly what
    the batched engine saves: per-lane Python call overhead.  Also
    measures the wire saving of delta-encoding consecutive MASKS
    payloads against shipping full rows.
    """
    vocab = vocab or synthetic_vocab()
    table = build_mask_table(grammar, vocab, options)
    ops = beam_schedule(table, width, steps, seed=seed)
    masks_total = width * len(ops)

    beam = BeamMaskSession(table, width, path=path)

    def run_beam():
        beam.reset(width)
        for op in ops:
            if op[0] == "reset":
                beam.reset(width)
                beam.masks_packed()
            else:
                beam.advance_masks(op[1])

    lanes = [MaskSession(table) for _ in range(width)]

    def run_sessions():
        for lane in lanes:
            lane.reset()
        for op in ops:
            if op[0] == "reset":
                for lane in lanes:
                    lane.reset()
            else:
                for lane, tok in zip(lanes, op[1]):
                    lane.advance(tok)
            for lane in lanes:
                lane.mask()

    beam_s = _beam_rate(run_beam, reps=reps)
    sessions_s = _beam_rate(run_sessions, reps=reps)

    # Wire accounting: per step, per lane, a delta payload (3 bytes
    # per changed row byte + 3 bytes of frame overhead) vs the full
    # row — the MASKS frame picks whichever is smaller, full rows
    # counted once more as the resync/cold baseline.
    beam.reset(width)
    rb = table.row_bytes
    prev = list(beam.masks())
    delta_bytes = 0
    full_bytes = 0
    for op in ops:
        if op[0] == "reset":
            beam.reset(width)
        else:
            beam.advance(op[1])
        rows = beam.masks()
        for lane, row in enumerate(rows):
            full_bytes += rb
            patch = xor_patch(prev[lane], row)
            delta_bytes += min(len(patch) + 3, rb + 1)
        prev = rows

    return {
        "grammar": table.grammar_name,
        "vocab_size": len(vocab),
        "states": table.n_states,
        "width": width,
        "steps": len(ops),
        "path": beam.path,
        "beam_masks_per_s": masks_total / beam_s,
        "sessions_masks_per_s": masks_total / sessions_s,
        "speedup": sessions_s / beam_s if beam_s else 0.0,
        "beam_step_us": beam_s / len(ops) * 1e6,
        "sessions_step_us": sessions_s / len(ops) * 1e6,
        "wire_delta_bytes": delta_bytes,
        "wire_full_bytes": full_bytes,
        "wire_delta_ratio": (
            delta_bytes / full_bytes if full_bytes else 0.0
        ),
    }
