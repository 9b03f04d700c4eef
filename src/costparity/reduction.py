"""Request tracking and the tracked product.

The memory element is a pair (o, r): an overflow counter o ∈ [0, n] and
a request function r mapping each odd color to ⊥ (no open request) or
to the cost the oldest open request of that color has incurred so far,
capped by the active bound b.  Traversing an edge updates (o, r) in four
steps: add the edge cost to open requests, reset everything and bump o
on an excess over b, close requests answered by the target's color, and
open the target's own request.  Streett games track one entry per pair
alike, and both game classes share the one step and its one charge
decoder (``_RequestTracker``); ``Tracker`` and ``StreettTracker`` name
it per class.
The tracker, the product and the certificates carry r as one int, a
request word of open bits and cost fields, whose step is a few table
lookups and integer operations; the table of fields words is shared by
every tracker with the same number of pairs and field width, since its
entries do not depend on the bound.  Code that reads single entries
(the prefix rules' cycle tests and shortcut) works on the tuple of ⊥ or
costs that ``unpack`` gives.

On top of the tracking sit the domination preorder ⊑, dominating
cycles, settled prefixes, the shortcut rule for binary-cost games, and
the reachable product with the tracking memory, whose parity winner
characterizes bounded-cost strategy existence.  It is explored once
over (vertex, request function) nodes (``_LevelProduct``), one copy per
overflow level, and steps over walked vertices (one successor, no
request, no answer that the chain's exit does not give too) in one
move; ``unroll`` flattens the copies for
the classical Streett reduction, and the verifier's spoiler probes run
on it too.
The settle and shortcut rules exist once, on an incremental prefix
(``_PrefixStack``) that the finite-duration engine in ``solver`` grows
and shrinks: its verdict is the winner of a settled prefix.
"""

from __future__ import annotations

from operator import sub
from typing import Mapping, Sequence

from .core import BINARY, BudgetExceededError, CostGame

BOT = None  # ⊥


def _relevant_mask(values: Sequence[int | None]) -> int:
    """Bit i set iff color i is relevant: open and not dominated by a
    larger color with at least the same incurred cost."""
    mask = 0
    best = -1
    for i in range(len(values) - 1, -1, -1):
        x = values[i]
        if x is not None and x > best:
            mask |= 1 << i
            best = x
    return mask


def _r_dominated(values_a: Sequence[int | None], values_b: Sequence[int | None]) -> bool:
    """r_a ⊑ r_b on aligned value tuples: every relevant request of r_a
    is covered by a relevant request of r_b at least as large in index
    and incurred cost.  On memory states, (o, r) ⊑ (o', r') iff o < o',
    or o = o' and r ⊑ r'."""
    mask_a, mask_b = _relevant_mask(values_a), _relevant_mask(values_b)
    best = -1  # the largest relevant entry of r_b at index i or above
    for i in range(len(values_a) - 1, -1, -1):
        if mask_b >> i & 1 and values_b[i] > best:
            best = values_b[i]
        if mask_a >> i & 1 and values_a[i] > best:
            return False
    return True


# open mask → fields word, one table per (d, field width), shared by
# every tracker of that shape
_SPANS: dict[tuple[int, int], dict[int, int]] = {}
_SPAN_LIMIT = 1 << 12


class _RequestTracker:
    """The request tracker of both game classes: entry i of r belongs
    to pair i of the Streett image (``request_mask`` / ``answer_mask``).

    r is one int, a request word.  Its low d bits are the open mask;
    above them sit d fields of F = b.bit_length() + 1 bits, field i
    holding the cost pair i has incurred, 0 while the pair is closed.
    So words and tuples over {⊥} ∪ [0, b] correspond one to one
    (``pack`` / ``unpack``).  A step adds the edge cost under the open
    fields, each component clamped to b+1: an open entry overflows
    after the step iff it would unclamped, and otherwise the clamp
    changed nothing.  A field thus never exceeds 2b+1 < 2^F, so no carry
    crosses fields, and one add of 2^(F−1)−1−b to every field
    (``_bias``) sets a field's top bit (``_tops``) iff it exceeds b.
    An overflow resets the word; then the target closes the pairs it
    answers (``& keep``) and opens its fresh requests at 0 (``| fresh``).

    So a step is a few table lookups and integer operations: the
    (keep, fresh) pair of each vertex, built up front, and two tables
    filled on first use, each entry a pure function of its key: the
    fields word of an open mask (``_spans``) and the clamped charge of
    an edge cost or of a walked move (``core._walk_rows``; ``_clamped``).  The
    fields word does not depend on b, so every tracker with the same d
    and field width F reads one module-level span table (``_SPANS``),
    which is cleared once it holds ``_SPAN_LIMIT`` entries; the charge
    table belongs to the tracker.
    """

    def __init__(self, game, bound: int):
        if bound < 0:
            raise ValueError("bound must be non-negative")
        self.game = game
        self.bound = bound
        self.n = game.n
        self.d = d = game.d
        width = bound.bit_length() + 1
        self._field = (1 << width) - 1
        self._shifts = shifts = tuple(d + i * width for i in range(d))
        self._ones = ones = sum(1 << s for s in shifts)
        self._bias = ((1 << width - 1) - 1 - bound) * ones
        self._tops = ones << width - 1
        self._low = low = (1 << d) - 1
        qmask, amask = game.request_mask, game.answer_mask
        # per vertex, the word mask of the pairs a step into it keeps
        # (those it does not close), and the open bits it sets
        self._spans = _SPANS.setdefault((d, width), {})
        self._clamped: dict = {}
        keeps = {a: self._span(low & ~a) for a in set(amask.values())}
        self._targets = {v: (keeps[a], qmask[v] & ~a) for v, a in amask.items()}

    def _fields(self, mask: int) -> int:
        """The open bits and the fields of the pairs in ``mask``, one set
        bit at a time."""
        mask &= self._low
        word, field, shifts = mask, self._field, self._shifts
        while mask:
            bit = mask & -mask
            word |= field << shifts[bit.bit_length() - 1]
            mask ^= bit
        return word

    def _span(self, mask: int) -> int:
        """The fields word of an open mask from the shared table, filled
        on a miss; a full table is cleared first."""
        spans = self._spans
        span = spans.get(mask)
        if span is None:
            if len(spans) >= _SPAN_LIMIT:
                spans.clear()
            span = spans[mask] = self._fields(mask)
        return span

    def pack(self, values: Sequence[int | None]) -> int:
        """The request word of a tuple whose entries are ⊥ or in [0, b]."""
        if len(values) != self.d:
            raise ValueError(f"request tuple of length {len(values)} for {self.d} pairs")
        word = 0
        for i, (x, s) in enumerate(zip(values, self._shifts)):
            if x is not None:
                if not 0 <= x <= self.bound:
                    raise ValueError(f"request entry {x} outside [0, {self.bound}]")
                word |= 1 << i | x << s
        return word

    def unpack(self, word: int) -> tuple:
        """The tuple of a request word: ⊥ or the cost, pair by pair."""
        field = self._field
        return tuple(word >> s & field if word >> i & 1 else BOT
                     for i, s in enumerate(self._shifts))

    def initial_state(self) -> tuple[int, int]:
        return (0, self.initial_r(self.game.initial))

    def initial_r(self, vertex: int) -> int:
        return self._targets[vertex][1]

    def update(self, o: int, r: int, cost, target: int) -> tuple[int, int, bool]:
        """One memory step; returns (o', r', overflowed)."""
        try:
            r += self._clamped[cost] & self._spans[r & self._low]
        except KeyError:  # fill whichever table missed
            charge = self._clamped.get(cost)
            if charge is None:
                charge = self._clamped[cost] = self._packed(cost)
            r += charge & self._span(r & self._low)
        keep, fresh = self._targets[target]
        if r + self._bias & self._tops:
            return min(o + 1, self.n), fresh, True
        return o, r & keep | fresh, False

    def _packed(self, cost) -> int:
        """The charge word of an edge cost or of a walked move's (total,
        cuts) (``core._walk_rows``): each pair's charge, clamped to b+1,
        in its field.  Under cuts a pair pays the total less the cost of
        the first cut that holds it, so the cuts claim the fields of their
        pairs in chain order (from the shared span table), each only the
        fields that no earlier cut claimed, and the total fills the rest."""
        word = claimed = 0
        if isinstance(cost, tuple) and cost and isinstance(cost[-1], tuple):
            cost, cuts = cost
            for m, cut in cuts:
                fields = self._span(m) & ~self._low & ~claimed
                if fields:
                    rest = cost - cut if isinstance(cost, int) else tuple(map(sub, cost, cut))
                    word |= self._spread(rest) & fields
                    claimed |= fields
        return word | self._spread(cost) & ~claimed

    def _spread(self, cost) -> int:
        """A cost clamped to b+1 in every field: a parity cost, one int
        for every pair, or a Streett cost tuple, pair by pair."""
        cap = self.bound + 1
        if isinstance(cost, int):
            return min(cost, cap) * self._ones
        return sum(min(w, cap) << s for w, s in zip(cost, self._shifts))


class Tracker(_RequestTracker):
    """The tracker of a cost-parity game: entry i of r belongs to the
    i-th odd color in ascending order (``game.odd_colors``), and one
    edge cost applies to every pair.  A walked move's charge may differ
    by pair; it comes as (total, cuts) (``core._walk_rows``)."""


class StreettTracker(_RequestTracker):
    """The tracker of a cost-Streett game, one entry per pair: ⊥, or the
    cost the oldest open request of that pair has incurred under the
    pair's own cost function, each in its field of the request word.  A
    target in P_c closes pair c, and one in Q_c (outside P_c) opens it.
    It differs from ``Tracker`` in name only, so that the two classes'
    steps can be counted apart; ``streett`` re-exports it."""


# --- dominating cycles and settled prefixes ---------------------------------

def _cycle_kind(color: Mapping[int, int], vertices: Sequence[int], k: int, k2: int,
                start: tuple, end: tuple) -> int | None:
    """The winner of the infix k..k2 if it is a dominating cycle: 0 for
    an even one, 1 for an odd one, else None.  Its ends share vertex and
    overflow below saturation and carry the request tuples ``start`` and
    ``end``."""
    top = max(color[vertices[i]] for i in range(k, k2 + 1))
    if top % 2 == 0:
        return 0 if _r_dominated(end, start) else None
    return 1 if _r_dominated(start, end) else None


class _PrefixStack:
    """An annotated prefix that grows and shrinks at its end, kept with
    what the settle and shortcut rules read: the positions of each
    (vertex, overflow) in ascending order, cumulative costs and
    relevance masks, whose run back from the top bounds the shortcut's
    scan (``step``).  The finite-duration engine runs on it.  Its
    request functions are the tracker's words, unpacked only where
    entries are read: the cycle tests of ``verdict`` and, in binary
    games, the relevance masks and the shortcut."""

    def __init__(self, game: CostGame, bound: int):
        self.tracker = Tracker(game, bound)
        self.binary = game.encoding == BINARY
        self.n = game.n
        self.color = game.color
        self.vertices: list[int] = []
        self.overflows: list[int] = []
        self.requests: list[int] = []
        self.cum: list[int] = []
        self.relm: list[int] = []
        self.buckets: dict[tuple[int, int], list[int]] = {}

    def push(self, v: int, o: int, r: int, cost: int, m: int | None = None) -> None:
        """Pushes position (v, o, r) reached at ``cost``; ``m`` is the
        relevance mask of r if known (``step`` gives it), read in binary
        games only."""
        i = len(self.vertices)
        if m is None:
            m = _relevant_mask(self.tracker.unpack(r)) if self.binary else 0
        self.vertices.append(v)
        self.overflows.append(o)
        self.requests.append(r)
        self.cum.append(self.cum[-1] + cost if i else cost)
        self.relm.append(m)
        self.buckets.setdefault((v, o), []).append(i)

    def pop(self) -> None:
        self.buckets[(self.vertices.pop(), self.overflows.pop())].pop()
        for column in (self.requests, self.cum, self.relm):
            column.pop()

    def verdict(self) -> int | None:
        """The winner of the prefix once it is settled, else None: 1 at
        saturation of the top position, or the winner of the dominating
        cycle that ends there with the earliest start."""
        i = len(self.vertices) - 1
        o = self.overflows[i]
        if o == self.n:
            return 1
        unpack, requests = self.tracker.unpack, self.requests
        end = None
        for k in self.buckets[(self.vertices[i], o)]:
            if k == i:
                break
            if end is None:
                end = unpack(requests[i])
            winner = _cycle_kind(self.color, self.vertices, k, i, unpack(requests[k]), end)
            if winner is not None:
                return winner
        return None

    def step(self, t: int, w: int) -> tuple[int, int, int, int]:
        """The move from the top position to t at cost w: (o', r', the
        charged cost, the relevance mask of r' in a binary game, else 0),
        r' a request word, so ``push`` takes it as it is.  In a binary
        game the shortcut fast-forwards the latest cycle back to (t, o')
        that has positive cost, keeps the relevance mask of r' throughout
        and fits one more traversal under the bound, so the scan back
        for it stops at the first position with another relevance mask:
        it adds s·k to every open entry, s the cycle's cost and k maximal
        with c* + s·k ≤ b for the largest open entry c* (one amount added
        to every open entry keeps the mask), and charges w + s·k."""
        tr = self.tracker
        b = tr.bound
        o2, r2, _ = tr.update(self.overflows[-1], self.requests[-1], w, t)
        if not self.binary:
            return o2, r2, w, 0
        values = tr.unpack(r2)
        m2 = _relevant_mask(values)
        if not m2:
            return o2, r2, w, 0
        top = j = len(self.vertices) - 1
        cstar = max(x for x in values if x is not None)
        while j >= 0 and self.relm[j] == m2:
            if self.vertices[j] == t and self.overflows[j] == o2:
                s = self.cum[top] - self.cum[j] + w
                if s > 0 and cstar + s <= b:
                    times = (b - cstar) // s
                    rstar = tr.pack(tuple(x if x is None else x + s * times for x in values))
                    return o2, rstar, w + s * times, m2
            j -= 1
        return o2, r2, w, m2


# --- the tracked product ---------------------------------------------------

class _LevelProduct:
    """The tracked product, explored once over (vertex, request word)
    nodes: the one such search, for decisions and the verifier's spoiler
    probes alike.  It reads ``initial`` of ``game``, a CostGame, a
    CostStreettGame or a ``semantics._StrategyArena``, and ``rows``, the
    arena's moves with each move into a walked vertex walked on to its
    exit at the chain's per-pair charge (``game.walked_exits``, or
    ``game.exits`` for the pass-through vertices alone; see
    ``core._walk_rows``), so one tracker step covers the chain and no
    node is made for the vertices it skips.  The tracker also reads
    ``n``, ``d``, ``request_mask`` and ``answer_mask``.  A tracker step
    never depends on o apart from the saturation clamp, so the product
    with the memory (o, r) is n+1 copies of this graph, with overflow
    edges one level up.  ``succ[i]`` lists node i's successors, one per
    arena move in move order; a move into j targets ``nodes[j][0]``, its
    exit, which no other move of the row shares.  ``overflow[i]`` is the
    set of ids that i's overflow moves reach (for the rows with one),
    ``pred[j]`` the ascending sources of j's other moves."""

    def __init__(self, game, tracker, budget: int, what: str, rows):
        self.game = game
        self.budget = budget
        self.what = what
        update = tracker.update
        _, r0 = tracker.initial_state()
        index: dict[tuple[int, int], int] = {(game.initial, r0): 0}
        order: list[tuple[int, int]] = [(game.initial, r0)]
        succ: list[tuple[int, ...]] = []
        pred: list[list[int]] = [[]]
        over: dict[int, list[int]] = {}  # the rows with an overflow move
        for i, (v, r) in enumerate(order):  # grows while it is walked
            row = []
            for t, w in rows[v]:
                _, r2, ovf = update(0, r, w, t)
                key = (t, r2)
                j = index.get(key)
                if j is None:
                    j = len(order)
                    if j >= budget:
                        raise BudgetExceededError(f"{what} exceeds budget {budget} states")
                    index[key] = j
                    order.append(key)
                    pred.append([])
                if ovf:
                    over.setdefault(i, []).append(j)
                else:
                    pred[j].append(i)
                row.append(j)
            succ.append(tuple(row))
        self.nodes = order
        self.index = index
        self.succ = tuple(succ)
        self.pred = tuple(pred)
        self.overflow = {i: frozenset(js) for i, js in over.items()}

    @property
    def size(self) -> int:
        return len(self.nodes)

    def unroll(self) -> tuple[tuple, tuple]:
        """The flat reachable product from (v_I, 0, r_{v_I}) in
        breadth-first order: states (v, o, r) and successor ids, one per
        move of ``succ``.  A move from level o lies at level min(o +
        overflowed, n), so no tracker step is needed."""
        n = self.game.n
        succ, overflow = self.succ, self.overflow
        index = {(0, 0): 0}
        order = [(0, 0)]
        rows: list[tuple[int, ...]] = []
        for i, o in order:  # grows while it is walked
            over = overflow.get(i, ())
            row = []
            for j in succ[i]:
                key = (j, min(o + 1, n)) if j in over else (j, o)
                k = index.get(key)
                if k is None:
                    k = len(order)
                    if k >= self.budget:
                        raise BudgetExceededError(
                            f"{self.what} exceeds budget {self.budget} states")
                    index[key] = k
                    order.append(key)
                row.append(k)
            rows.append(tuple(row))
        nodes = self.nodes
        states = tuple((nodes[i][0], o, nodes[i][1]) for i, o in order)
        return states, tuple(rows)
