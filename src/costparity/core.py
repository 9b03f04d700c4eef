"""Arenas, cost games and finite-state strategies.

A cost game is a finite directed game graph whose vertices are split
between Player 0 (circles) and Player 1 (boxes), colored by naturals,
with a natural-number cost on every edge.  Every vertex must have at
least one successor so that all plays are infinite.

All values here are immutable after construction; operations are pure
functions and safe to call concurrently on shared games.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from operator import add, attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

UNARY = "unary"
BINARY = "binary"

# states a tracked product may reach: the solver's, and the verifier's
DEFAULT_PRODUCT_BUDGET = 5_000_000
# vertices a subdivided game may have
SUBDIVISION_BUDGET = 1_000_000


class FormatError(ValueError):
    """Raised on malformed .cpg/.cst/.strat/QDIMACS input."""


class BudgetExceededError(RuntimeError):
    """Raised when a construction would exceed its vertex budget."""


class Vertex(NamedTuple):
    """A vertex: a named tuple, so it equals the plain tuple (id, owner,
    color), and ``_replace`` makes a changed copy."""

    id: int
    owner: int
    color: int


class Edge(NamedTuple):
    """An edge: a named tuple, equal to the plain tuple (source, target, cost)."""

    source: int
    target: int
    cost: int


_new_vertex = partial(tuple.__new__, Vertex)
_new_edge = partial(tuple.__new__, Edge)


class _Arena:
    """The views that a CostGame and a CostStreettGame derive alike from
    their vertices and edges.  A subclass gives its edges as (source,
    target, cost) triples (``_triples``) and says what its update keys
    hold as cost (``_key_cost``)."""

    @cached_property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def owner(self) -> dict[int, int]:
        return {i: o for i, o, _ in self.vertices}

    @cached_property
    def successors(self) -> dict[int, tuple]:
        """id → ((target, cost), ...), targets in ascending order."""
        out: dict[int, list] = {u: [] for u in self.owner}
        for s, t, w in self._triples:
            if s in out:
                out[s].append((t, w))
        return {u: tuple(row) if len(row) < 2 else tuple(sorted(row)) for u, row in out.items()}

    @cached_property
    def pass_through(self) -> frozenset[int]:
        """The vertices with one successor that request and answer nothing;
        in a cost-parity game, those of an even color below every odd color
        in use.  The tracker's step into one opens and closes nothing."""
        answer = self.answer_mask
        return frozenset(v for v in _forced(self.successors, self.request_mask) if not answer[v])

    @cached_property
    def exits(self) -> dict[int, tuple]:
        """``successors`` with each move into a pass-through vertex walked
        on to its exit (``_walk_rows``): the rows certificates read."""
        return _walk_rows(self.successors, self.pass_through, self.answer_mask)[1]

    @cached_property
    def _walks(self) -> tuple[frozenset[int], dict[int, tuple]]:
        return _walk_rows(self.successors, _forced(self.successors, self.request_mask),
                          self.answer_mask, self.initial)

    @cached_property
    def walked(self) -> frozenset[int]:
        """The walked vertices (``_walk_rows``), the pass-through ones among them."""
        return self._walks[0]

    @cached_property
    def walked_exits(self) -> dict[int, tuple]:
        """``successors`` with each move into a walked vertex walked on to
        its exit (``_walk_rows``), own rows only where a product from
        ``initial`` reads them: the rows decisions read."""
        return self._walks[1]

    @cached_property
    def edge_cost(self) -> dict[tuple[int, int], object]:
        """(source, target) → the edge's cost."""
        return {(s, t): w for s, t, w in self._triples}

    @cached_property
    def update_key(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        """(source, target) → the key a strategy's update table uses for
        the edge: (source, key cost, target), in edge order."""
        return {(e.source, e.target): (e.source, self._key_cost(e), e.target) for e in self.edges}

    def _require(self, validate, what: str) -> None:
        """Raises ValueError listing ``validate(self)``'s violations, if
        any.  A passed check is remembered, since the arena is frozen:
        a valid arena is validated once, an invalid one on every call."""
        if "_valid" not in vars(self):
            report = validate(self)
            if report:
                raise ValueError(f"invalid {what}: " + "; ".join(report))
            vars(self)["_valid"] = True


def _forced(successors: Mapping[int, tuple], request: Mapping[int, int]) -> frozenset[int]:
    """The vertices with one successor that request nothing."""
    return frozenset(v for v, row in successors.items() if len(row) == 1 and not request[v])


def _plus(a, b):
    """The sum of two edge costs: ints, or Streett cost tuples pair by pair."""
    return a + b if isinstance(a, int) else tuple(map(add, a, b))


def _walk_rows(successors: Mapping[int, tuple], forced: frozenset[int],
               answer: Mapping[int, int], initial: int | None = None
               ) -> tuple[frozenset[int], dict[int, tuple]]:
    """(the walked vertices of ``forced``, the rows): id → ((target,
    charge), ...), aligned with ``successors``, where a move into a
    walked vertex walks on to its exit.  Two kinds of move keep their
    own target: one whose chain ends in a cycle of walked vertices, and
    one whose exit would repeat another target of its row, so a row's
    targets stay distinct.

    ``forced`` holds vertices with one successor that request nothing: the
    pass-through vertices, or all such vertices (``_forced``).  A forced
    vertex's chain runs from it along the successors of forced vertices.
    It is walked if it answers only pairs that its exit answers too, its
    exit being the first vertex after it on its chain that is not
    walked; so each chain is settled once, backward from its end, the
    first vertex on it that is not forced.  A chain that ends in a cycle
    of forced vertices has no end: there, exactly the vertices that
    answer nothing are walked, on to the first answering vertex ahead,
    if any (a second round over them alone).  So every pass-through
    vertex is walked.

    A walked move's charge says what each pair pays: the cost it incurs
    until the chain first answers it, or the move's whole cost to the
    exit when nothing on the chain does.  It is that total cost (an int,
    or a Streett cost tuple pair by pair) when no vertex on the chain
    answers, else (total, cuts).  The cuts are a (pairs mask, cost) per
    answering vertex on the chain, in chain order: the pairs it answers
    and its cost to the exit.  A pair pays the total less the cost of the
    first cut that holds it, if any (``reduction._RequestTracker._packed``).
    Each vertex's cost to the exit is summed from the next one's, and its
    cuts are the next one's, with one more in front where it answers; so
    the moves that enter a chain between the same answering vertices
    share their cuts, and a parity charge hashes in a few items however
    many pairs there are.

    The tracked product takes a walked move in one tracker step
    (``reduction._LevelProduct``), and that is exact.  No vertex on the
    chain opens a request, each pair it answers the exit answers too,
    and costs are non-negative.  So the chain overflows iff some open
    pair passes the bound before the chain answers it, which is iff the
    one step's charge takes it past; after an overflow nothing is open
    until the exit, so both routes give (min(o+1, n), the exit's fresh
    requests), and otherwise both close at the exit every pair that the
    chain answers.  Skipped vertices decide no cycle: they request
    nothing, and each cycle through them passes their exit, whose
    answers cover theirs (for parity, no odd color lies between a
    skipped even color and the exit's).

    A walked vertex's own row is its one move walked on, ((exit,
    charge),), or its successors row when its chain ends in a cycle.
    With ``initial`` given, the own rows are built only where a tracked
    product from ``initial`` reads them, at ``initial`` and at the
    targets that rows keep; every other walked vertex is no node of such
    a product, and its row stays its successors row.
    """
    rows = dict(successors)
    # forced vertex → (its exit, its cost to it, the cuts after it, the
    # cuts from it on) if it is walked, False if not, None on a cycle's chain
    ahead: dict[int, tuple | bool | None] = {}
    # parity costs are ints, summed inline; Streett costs are tuples (``_plus``)
    ints = all(isinstance(successors[v][0][1], int) for v in islice(forced, 1))
    while True:
        looped = []
        for p in forced:
            if p in ahead:
                continue
            path = []
            v = p
            while v in forced and v not in ahead:
                ahead[v] = None  # met again on this walk, it closes a cycle
                path.append(v)
                v = successors[v][0][0]
            end = ahead[v] if v in forced else False
            if end is None:
                looped += path
                continue
            x, dist, _, cuts = end or (v, None, (), ())
            mask = answer[x]
            for q in reversed(path):
                a = answer[q]
                if a & ~mask:  # q is not walked: the vertices before it stop at q
                    ahead[q] = False
                    x, dist, cuts, mask = q, None, (), a
                    continue
                w = successors[q][0][1]
                dist = w if dist is None else w + dist if ints else _plus(w, dist)
                after = cuts
                if a:
                    cuts = ((a, dist),) + after
                ahead[q] = (x, dist, after, cuts)
        if not any(answer[v] for v in looped):
            break
        forced = frozenset(v for v in looped if not answer[v])
        for v in looped:
            if answer[v]:
                ahead[v] = False
            else:
                del ahead[v]
    walked = [v for v, end in ahead.items() if end]
    own = walked if initial is None else [initial]
    walked = frozenset(walked + looped)
    # the other rows change where a move enters a chain
    for u in successors.keys() - walked:
        row = successors[u]
        if len(row) == 1:
            t, w = row[0]
            end = ahead.get(t)
            if end:
                x, dist, _, cuts = end
                dist = w + dist if ints else _plus(w, dist)
                rows[u] = ((x, (dist, cuts) if cuts else dist),)
            continue
        out = [(end[0], (_plus(w, end[1]), end[3]) if end[3] else _plus(w, end[1]))
               if (end := ahead.get(t)) else (t, w) for t, w in row]
        targets = [t for t, _ in out]
        if len(set(targets)) < len(targets):
            out = [move if move[0] == t or targets.count(move[0]) == 1 else (t, w)
                   for move, (t, w) in zip(out, row)]
            own += [t for t, _ in out if t in walked]
        rows[u] = tuple(out)
    for q in own:
        if end := ahead.get(q):
            x, dist, after, _ = end
            rows[q] = ((x, (dist, after) if after else dist),)
    return walked, rows


@dataclass(frozen=True)
class CostGame(_Arena):
    """Arena with coloring Ω (on vertices) and cost function (on edges).

    ``encoding`` selects the solver regime: ``unary`` games carry only
    abstract costs 0/1 (ε and increment edges) and admit the bound cap
    b ≤ n; ``binary`` games carry arbitrary naturals and cap at n·W.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    initial: int
    encoding: str = UNARY

    _key_cost = staticmethod(attrgetter("cost"))

    @property
    def _triples(self) -> tuple[Edge, ...]:
        return self.edges

    @cached_property
    def color(self) -> dict[int, int]:
        return {i: c for i, _, c in self.vertices}

    @cached_property
    def odd_colors(self) -> tuple[int, ...]:
        """D, the odd colors in use, ascending."""
        return tuple(sorted(c for c in set(self.color.values()) if c % 2 == 1))

    @property
    def d(self) -> int:
        return len(self.odd_colors)

    @cached_property
    def request_mask(self) -> dict[int, int]:
        """id → bit i set iff the vertex requests the i-th odd color (pair
        i of the Streett image ``streett.streett_from_cost_parity``)."""
        bit = {c: 1 << i for i, c in enumerate(self.odd_colors)}
        return self._by_color(lambda c: bit.get(c, 0))

    @cached_property
    def answer_mask(self) -> dict[int, int]:
        """id → bit i set iff the vertex's even color answers the i-th odd color."""
        odd = self.odd_colors
        return self._by_color(lambda c: 0 if c % 2 else (1 << bisect_left(odd, c)) - 1)

    def _by_color(self, of_color) -> dict[int, int]:
        """id → ``of_color(c)`` for the vertex's color c, computed once per color."""
        color = self.color
        table = {c: of_color(c) for c in set(color.values())}
        return {v: table[c] for v, c in color.items()}

    @cached_property
    def max_cost(self) -> int:
        """W, the largest edge cost."""
        return max((e.cost for e in self.edges), default=0)


@dataclass(frozen=True)
class StrategySpec:
    """Finite-state (Mealy) strategy for one player.

    Memory states are the integers 0..len(states)−1 (``states`` exists so
    builders can keep descriptive labels).  ``update`` is total on
    M × E with edges keyed by the game's ``update_key``: (source, cost,
    target) in a CostGame, (source, 0, target) in a CostStreettGame;
    ``next_move`` maps every (owned vertex, state) pair to a successor
    vertex.
    """

    player: int
    states: tuple
    initial: int
    update: Mapping[tuple[int, tuple[int, int, int]], int]
    next_move: Mapping[tuple[int, int], int]

    @property
    def size(self) -> int:
        return len(self.states)


def make_game(vertices: Iterable[tuple[int, int, int]],
              edges: Iterable[tuple[int, int, int]],
              initial: int,
              encoding: str = UNARY) -> CostGame:
    """Build a CostGame from (id, owner, color) and (source, target, cost)
    triples.  Each becomes a Vertex or an Edge by ``tuple.__new__``, with
    no Python-level call; a tuple of another length is kept as it is,
    and the first view that reads it (``require_valid`` reads all) raises
    ValueError."""
    return CostGame(tuple(map(_new_vertex, vertices)), tuple(map(_new_edge, edges)),
                    initial, encoding)


def _arena_report(game: _Arena) -> tuple[list[str], Sequence]:
    """The violations of the rules every arena keeps, parity or Streett:
    distinct ids, owners 0 or 1, an existing initial vertex, edges
    between known vertices, at most one edge from a vertex to another,
    and a successor for every vertex.  Also the edges between known
    vertices: the ones a class's own checks read, as this report names
    the others.

    The vertex rules and the edge rules are each checked on the whole
    arena at once, the edge rules on ``successors`` (every edge with a
    known source lies in its source's row); only a group that fails is
    walked one by one, to name its violations in order."""
    report: list[str] = []
    ids = game.owner
    if len(ids) < len(game.vertices) or not {*ids.values()} <= {0, 1}:
        seen_ids: set[int] = set()
        for v in game.vertices:
            if v.id in seen_ids:
                report.append(f"vertex {v.id}: duplicate id")
            seen_ids.add(v.id)
            if v.owner not in (0, 1):
                report.append(f"vertex {v.id}: owner must be 0 or 1, got {v.owner}")
    if game.initial not in ids:
        report.append(f"game: initial vertex {game.initial} does not exist")
    edges, succ = game.edges, game.successors
    if (sum(map(len, succ.values())) == len(edges)
            and ids.keys() >= {*map(attrgetter("target"), edges)}
            and not any(a[0] == b[0] for row in succ.values() if len(row) > 1
                        for a, b in zip(row, row[1:]))):
        terminal = [] if all(succ.values()) else [u for u, row in succ.items() if not row]
        known = edges
    else:
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if e.source not in ids:
                report.append(f"edge {e.source}->{e.target}: unknown source")
            elif e.target not in ids:
                report.append(f"edge {e.source}->{e.target}: unknown target")
            elif (e.source, e.target) in seen:
                report.append(f"edge {e.source}->{e.target}: parallel edge")
            else:
                seen.add((e.source, e.target))
        terminal = ids.keys() - {s for s, _ in seen}
        known = [e for e in edges if e.source in ids and e.target in ids]
    report.extend(f"vertex {i}: terminal vertex (no outgoing edge)" for i in sorted(terminal))
    return report, known


def validate_game(game: CostGame) -> list[str]:
    """Violations (empty = valid): the arena rules (``_arena_report``),
    then the encoding, the colors and the costs."""
    report, edges = _arena_report(game) if game.vertices else (["game: no vertices"], ())
    if game.encoding not in (UNARY, BINARY):
        report.append(f"game: unknown encoding {game.encoding!r}")
    color = game.color  # one color per id: all of them unless an id repeats
    if len(color) < len(game.vertices) or min(color.values(), default=0) < 0:
        report.extend(f"vertex {v.id}: negative color {v.color}"
                      for v in game.vertices if v.color < 0)
    costs = list(map(attrgetter("cost"), edges))
    if min(costs, default=0) < 0 or game.encoding == UNARY and max(costs, default=0) > 1:
        for e in edges:
            if e.cost < 0:
                report.append(f"edge {e.source}->{e.target}: negative cost {e.cost}")
            elif game.encoding == UNARY and e.cost > 1:
                report.append(
                    f"edge {e.source}->{e.target}: non-abstract cost {e.cost} in unary game")
    return report


def require_valid(game: CostGame) -> None:
    game._require(validate_game, "game")


def subdivide_costs(game: CostGame) -> CostGame:
    """Replace every cost-w edge (w ≥ 2) by a path of w increment edges.

    The w−1 fresh vertices get color 0 and the source's owner (no player
    gains choices on a forced path).  The result carries the ``unary``
    encoding flag.
    """
    require_valid(game)
    extra = sum(e.cost - 1 for e in game.edges if e.cost >= 2)
    if game.n + extra > SUBDIVISION_BUDGET:
        raise BudgetExceededError(f"subdivision blow-up: needs {game.n + extra} vertices, "
                                  f"budget {SUBDIVISION_BUDGET}")
    vertices = list(game.vertices)
    edges: list[Edge] = []
    next_id = max(v.id for v in game.vertices) + 1
    for e in sorted(game.edges, key=lambda e: (e.source, e.target)):
        if e.cost < 2:
            edges.append(e)
            continue
        owner = game.owner[e.source]
        chain = [e.source]
        for _ in range(e.cost - 1):
            vertices.append(Vertex(next_id, owner, 0))
            chain.append(next_id)
            next_id += 1
        chain.append(e.target)
        for a, b in zip(chain, chain[1:]):
            edges.append(Edge(a, b, 1))
    return CostGame(tuple(vertices), tuple(edges), game.initial, UNARY)


def export_dot(game: CostGame) -> str:
    """Deterministic DOT rendering; circles for Player 0, boxes for Player 1."""
    lines = ["digraph costgame {"]
    for v in sorted(game.vertices, key=lambda v: v.id):
        shape = "circle" if v.owner == 0 else "box"
        peri = ", peripheries=2" if v.id == game.initial else ""
        lines.append(f'  v{v.id} [shape={shape}, label="{v.id}:{v.color}"{peri}];')
    for e in sorted(game.edges, key=lambda e: (e.source, e.target)):
        lines.append(f'  v{e.source} -> v{e.target} [label="{e.cost}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- .cpg text format ------------------------------------------------------
#
# line 1:  costparity <n> <initial-id> <encoding>
# then n lines:  <id> <color> <owner> <succ:cost>[,<succ:cost>...] [# comment]

def _read_header(text: str, suffix: str, magic: str, fields,
                 bad: str = "bad header") -> tuple[list, list[str]]:
    """The fields of the header ``<magic> <f1> <f2> <f3>`` of a .cpg, .cst or .strat
    text, read by the callables ``fields`` (``bad`` begins the message if one
    fails), and the non-blank lines, comments stripped, the header first."""
    lines = [s for s in (l.split("#", 1)[0].strip() for l in text.splitlines()) if s]
    if not lines:
        raise FormatError(f"empty {suffix} file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != magic:
        raise FormatError(f"bad header: {lines[0]!r}")
    try:
        return [read(f) for read, f in zip(fields, head[1:])], lines
    except ValueError as exc:
        raise FormatError(f"{bad}: {lines[0]!r}") from exc


def _parse_vertex_line(line: str, parse_cost) -> tuple[Vertex, list[tuple[int, object]]]:
    """``<id> <color> <owner> <succ:cost>[,...]`` → (vertex, [(succ, cost)]),
    shared by .cpg and .cst; ``parse_cost`` reads one cost field."""
    parts = line.split()
    if len(parts) != 4:
        raise FormatError(f"bad vertex line: {line!r}")
    try:
        vid, color, owner = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise FormatError(f"bad vertex line: {line!r}") from exc
    succs = []
    for succ in parts[3].split(","):
        if ":" not in succ:
            raise FormatError(f"bad successor {succ!r} in line: {line!r}")
        t, w = succ.split(":", 1)
        try:
            succs.append((int(t), parse_cost(w)))
        except ValueError as exc:
            raise FormatError(f"bad successor {succ!r} in line: {line!r}") from exc
    return Vertex(vid, owner, color), succs


def parse_cpg(text: str) -> CostGame:
    (n, initial, encoding), lines = _read_header(text, ".cpg", "costparity", (int, int, str),
                                                 "bad header numbers")
    if encoding not in (UNARY, BINARY):
        raise FormatError(f"unknown encoding {encoding!r}")
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} vertex lines, found {len(lines) - 1}")
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    for line in lines[1:]:
        v, succs = _parse_vertex_line(line, int)
        vertices.append(v)
        edges.extend(Edge(v.id, t, w) for t, w in succs)
    game = CostGame(tuple(vertices), tuple(edges), initial, encoding)
    require_valid(game)
    return game


def _vertex_lines(game: _Arena, cost_text) -> list[str]:
    """The vertex lines of a .cpg or .cst file, in id order: id, color,
    owner and the successors as ``target:cost``, ``cost_text(cost)``."""
    return [f"{v.id} {v.color} {v.owner} "
            + ",".join(f"{t}:{cost_text(w)}" for t, w in game.successors[v.id])
            for v in sorted(game.vertices, key=lambda v: v.id)]


def format_cpg(game: CostGame) -> str:
    lines = [f"costparity {game.n} {game.initial} {game.encoding}", *_vertex_lines(game, str)]
    return "\n".join(lines) + "\n"


# --- .strat text format ----------------------------------------------------
#
# header:  strategy <player> <num-states> <initial-state>
# update:  u <state> <source-id> <cost> <target-id> <next-state>
# moves:   n <vertex-id> <state> <target-id>

def format_strat(strat: StrategySpec) -> str:
    lines = [f"strategy {strat.player} {strat.size} {strat.initial}"]
    for (m, (s, w, t)), m2 in sorted(strat.update.items()):
        lines.append(f"u {m} {s} {w} {t} {m2}")
    for (v, m), t in sorted(strat.next_move.items()):
        lines.append(f"n {v} {m} {t}")
    return "\n".join(lines) + "\n"


def parse_strat(text: str) -> StrategySpec:
    (player, nstates, initial), lines = _read_header(text, ".strat", "strategy", (int,) * 3)
    update: dict[tuple[int, tuple[int, int, int]], int] = {}
    next_move: dict[tuple[int, int], int] = {}
    for line in lines[1:]:
        parts = line.split()
        try:
            if parts[0] == "u" and len(parts) == 6:
                m, s, w, t, m2 = map(int, parts[1:])
                update[(m, (s, w, t))] = m2
            elif parts[0] == "n" and len(parts) == 4:
                v, m, t = map(int, parts[1:])
                next_move[(v, m)] = t
            else:
                raise FormatError(f"bad line: {line!r}")
        except ValueError as exc:
            raise FormatError(f"bad line: {line!r}") from exc
    # a total table has at least one update entry per state (every game
    # has an edge); a header-only file may still declare a single state
    if nstates > max(1, len(update)):
        raise FormatError(f"{nstates} states but only {len(update)} update entries")
    return StrategySpec(player, tuple(range(nstates)), initial, update, next_move)


def validate_strategy(game: CostGame, strat: StrategySpec) -> list[str]:
    """Well-formedness of a strategy against a game: totality and move legality.

    ``game`` is a CostGame or a CostStreettGame; both key their edges
    through ``update_key``.
    """
    report: list[str] = []
    if strat.player not in (0, 1):
        report.append(f"player must be 0 or 1, got {strat.player}")
    nstates = strat.size
    if not (0 <= strat.initial < nstates):
        report.append(f"initial state {strat.initial} out of range")
    # a table with fewer entries than the walk would visit cannot be
    # total; say so once instead of once per missing entry
    edges = game.update_key.values()
    owned = [v for v, owner in game.owner.items() if owner == strat.player]
    if len(strat.update) < nstates * len(edges):
        report.append(f"update table has {len(strat.update)} entries, "
                      f"not {nstates} states × {len(edges)} edges")
    else:
        for m in range(nstates):
            for ek in edges:
                m2 = strat.update.get((m, ek))
                if m2 is None:
                    report.append(f"update missing for state {m}, edge {ek}")
                elif not (0 <= m2 < nstates):
                    report.append(f"update ({m}, {ek}) leaves the state space")
    if len(strat.next_move) < nstates * len(owned):
        report.append(f"next_move table has {len(strat.next_move)} entries, "
                      f"not {nstates} states × {len(owned)} owned vertices")
    else:
        for v in owned:
            succs = {t for t, _ in game.successors[v]}
            for m in range(nstates):
                t = strat.next_move.get((v, m))
                if t is None:
                    report.append(f"next_move missing for vertex {v}, state {m}")
                elif t not in succs:
                    report.append(f"next_move({v}, {m}) = {t} is not a successor")
    return report


def strategy_from_functions(game: CostGame, player: int, initial_label,
                            update_fn, next_move_fn) -> StrategySpec:
    """Tabulate a strategy given by callables into an explicit StrategySpec.

    Memory states are discovered by closure under ``update_fn`` over all
    edges of the arena, starting from ``initial_label``; they are numbered
    in discovery order, which makes the result deterministic.  ``game``
    is a CostGame, a CostStreettGame or a classical StreettGame, read
    through ``owner`` and ``update_key``: ``update_fn`` sees each edge as
    its ``update_key``.  The update table has one entry per label and
    edge; ``BudgetExceededError`` is raised as soon as the labels found
    would need more than ``DEFAULT_PRODUCT_BUDGET`` entries.
    """
    edges = list(game.update_key.values())
    index: dict = {initial_label: 0}
    labels = [initial_label]
    frontier = [initial_label]
    while frontier:
        label = frontier.pop()
        for ek in edges:
            nxt = update_fn(label, ek)
            if nxt not in index:
                if (len(labels) + 1) * len(edges) > DEFAULT_PRODUCT_BUDGET:
                    raise BudgetExceededError(
                        f"strategy update table exceeds budget {DEFAULT_PRODUCT_BUDGET} entries")
                index[nxt] = len(labels)
                labels.append(nxt)
                frontier.append(nxt)
    update = {(index[l], ek): index[update_fn(l, ek)] for l in labels for ek in edges}
    next_move = {(v, index[label]): next_move_fn(v, label)
                 for v, owner in game.owner.items() if owner == player for label in labels}
    return StrategySpec(player, tuple(labels), 0, update, next_move)


# merge work allowed per entry a certificate's DFS records
_MERGE_WORK = 4


def strategy_from_product(game: CostGame, player: int, initial_label,
                          update_fn, next_move_fn) -> StrategySpec:
    """Tabulate a strategy over the plays consistent with it, with
    compatible memory states merged.

    A DFS walks the (vertex, memory) product from the initial vertex and
    ``initial_label``.  At a vertex of ``player`` it follows only the
    strategy's own move ``next_move_fn(v, m)``; at an opponent's vertex
    it follows every successor.  The labels it meets, numbered in
    discovery order, are the memory values that consistent plays visit.
    Per label it records only what those plays use: its move at each
    visited vertex of ``player``, and its update along each edge
    followed.  ``BudgetExceededError`` is raised as soon as the labels
    found would need more than ``DEFAULT_PRODUCT_BUDGET`` entries in a
    table over M × E.

    ``_merge_compatible`` folds the labels into classes, and the table
    is filled over them, numbered and labelled by their first members.
    An update no member recorded stays in the class; a move no member
    recorded is the vertex's first successor.

    The result is exact.  Each position (v, C) of a play of the merged
    table has a member m of C with (v, m) visited by the DFS: at the
    start m is ``initial_label``.  At a vertex of ``player`` the table
    takes m's move, which C holds; at an opponent's vertex the DFS
    followed every edge from (v, m).  Either way m's update along the
    edge taken was recorded and visited, and the table's update lands
    in its class.  So the merged table's plays are the consistent plays
    of ``update_fn`` and ``next_move_fn``, and every cost is theirs.
    """
    succ = game.successors
    key = game.update_key
    owner = game.owner
    index: dict = {initial_label: 0}
    labels = [initial_label]
    moves: list[dict] = [{}]  # per label: vertex → the move recorded there
    steps: list[dict] = [{}]  # per label: edge key → the next label's number
    seen = {(game.initial, 0)}
    stack = [(game.initial, 0)]
    while stack:
        v, i = stack.pop()
        m = labels[i]
        if owner[v] == player:
            t = moves[i][v] = next_move_fn(v, m)
            targets = (t,)
        else:
            targets = [t for t, _ in succ[v]]
        step = steps[i]
        for t in targets:
            ek = key[(v, t)]
            m2 = update_fn(m, ek)
            j = index.get(m2)
            if j is None:
                if (len(labels) + 1) * len(key) > DEFAULT_PRODUCT_BUDGET:
                    raise BudgetExceededError(
                        f"strategy update table exceeds budget {DEFAULT_PRODUCT_BUDGET} entries")
                j = index[m2] = len(labels)
                labels.append(m2)
                moves.append({})
                steps.append({})
            step[ek] = j
            if (t, j) not in seen:
                seen.add((t, j))
                stack.append((t, j))
    root = _merge_compatible(moves, steps)
    roots = [i for i, r in enumerate(root) if r == i]
    number = {r: k for k, r in enumerate(roots)}
    cls = [number[r] for r in root]
    update = {(k, ek): cls[steps[r][ek]] if ek in steps[r] else k
              for k, r in enumerate(roots) for ek in key.values()}
    next_move = {(v, k): moves[r].get(v, succ[v][0][0])
                 for v, o in owner.items() if o == player for k, r in enumerate(roots)}
    return StrategySpec(player, tuple(labels[r] for r in roots), 0, update, next_move)


def _merge_compatible(moves: list[dict], steps: list[dict]) -> list[int]:
    """Merges compatible memory labels, in place; returns each label's
    class, named by its least label.

    ``moves[i]`` maps vertices to label i's moves, ``steps[i]`` edge
    keys to its next labels.  Two classes merge when their moves agree
    at every vertex both hold; their next labels along a shared edge
    must then merge too, and a conflict anywhere undoes the attempt
    (union-find with an undo log).  Labels are tried in discovery order
    against the classes so far, first fit.  Afterwards ``moves[r]`` and
    ``steps[r]`` hold the entries of all of r's class.

    The work, counted in pairs of classes merged, failed attempts
    included, stops at ``_MERGE_WORK`` times the entries recorded; the
    labels not yet tried then stay as they are.  Every class formed by
    then is compatible, so the result is exact either way.
    """
    parent = list(range(len(moves)))
    budget = _MERGE_WORK * sum(len(m) + len(s) for m, s in zip(moves, steps))
    work = 0
    log: list = []  # undo: (table, key) of an added entry, (None, label) of a parent set
    logged = log.append

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def union(a, b) -> bool:
        """Merges the classes of a and b and all that it forces; False
        on a conflict or when the work runs out, with the log to undo."""
        nonlocal work
        pending = [(a, b)]
        pop, push = pending.pop, pending.append
        while pending:
            a, b = pop()
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                continue
            if b < a:
                a, b = b, a
            work += 1
            if work > budget:
                return False
            parent[b] = a
            logged((None, b))
            move, step = moves[a], steps[a]
            for v, t in moves[b].items():
                u = move.get(v)
                if u is None:
                    move[v] = t
                    logged((move, v))
                elif u != t:
                    return False
            for ek, j in steps[b].items():
                k = step.get(ek)
                if k is None:
                    step[ek] = j
                    logged((step, ek))
                else:
                    push((k, j))
        return True

    classes: list[int] = []
    for x in range(len(moves)):
        if work > budget:
            break
        if parent[x] != x:
            continue  # forced into the class of an earlier label
        for c in classes:
            if parent[c] == c and union(c, x):
                break
            while log:
                table, k = log.pop()
                if table is None:
                    parent[k] = k
                else:
                    del table[k]
            if work > budget:
                break
        else:
            classes.append(x)
        log.clear()
    return [find(i) for i in range(len(moves))]


def _reset_spoiler(game: CostGame, tracker, move, share) -> StrategySpec:
    """Spoiler strategy with the overflow counter reset to the least
    value reachable under the product strategy.

    ``tracker`` is the game's request tracker (``Tracker`` or
    ``StreettTracker``) and ``move(v, o, r)`` the solved product's
    Player 1 choice at (v, o, r), or None where it has none.  Memory
    follows the tracker's update except at overflow positions, where
    the counter restarts at o_v = min{o : (v, o, r_v) reachable under
    the product strategy} instead of incrementing.

    o_v is found one overflow level at a time (``_first_levels``);
    ``share(o)`` names the class of level o: levels of one class have
    the same moves.
    """
    succ = game.successors
    cost = game.edge_cost
    n = game.n
    o_min = _first_levels(game, tracker, move, share)

    def upd(label, ek):
        s, _, t = ek
        o2, r2, ovf = tracker.update(label[0], label[1], cost[(s, t)], t)
        return (o_min.get(t, n), r2) if ovf else (o2, r2)

    def nxt(v, label):
        t = move(v, *label)
        return t if t is not None else succ[v][0][0]

    return strategy_from_product(game, 1, (0, tracker.initial_r(game.initial)), upd, nxt)


def _first_levels(game: CostGame, tracker, move, share) -> dict[int, int]:
    """v → o_v, the least o with (v, o, r_v) reachable from the initial
    state under ``move`` (see ``_reset_spoiler``), for every v that the
    spoiler's plays reach by an overflow.

    A step that does not overflow keeps o, and one that does enters
    level o+1 at (t, r_t).  So level o's states are the closure of its
    entry set, the (t, r_t) that level o−1's overflow steps reach,
    under the steps that do not; the levels are walked in turn, each
    over (v, r) pairs, and o_v is the first level that meets (v, r_v).
    Within a class of ``share`` the closure is a function of the entry
    set.  So the walk stops at a level o whose entry set repeats one of
    an earlier level of its class: level o meets no (v, r_v) first, and
    the spoiler's plays reach no level from o on.  They start at level
    0, a step that does not overflow keeps the level, and an overflow
    from a level below o lands at o_t ≤ o, which is not o.  Neither is
    level n walked: a vertex first met there has o_v = n, the value
    ``_reset_spoiler`` reads for a vertex missing here.
    """
    succ, owner, cost, n = game.successors, game.owner, game.edge_cost, game.n
    update, initial_r = tracker.update, tracker.initial_r
    o_min: dict[int, int] = {}

    def walk(o, entry):
        """Walks level o from ``entry``; returns the next one's entry set."""
        up = set()
        seen = set(entry)
        stack = list(entry)
        while stack:
            v, r = stack.pop()
            if v not in o_min and r == initial_r(v):
                o_min[v] = o
            if owner[v] == 1:
                t = move(v, o, r)
                moves = (succ[v][0][0] if t is None else t,)
            else:
                moves = [t for t, _ in succ[v]]
            for t in moves:
                _, r2, ovf = update(o, r, cost[(v, t)], t)
                if ovf:
                    up.add((t, r2))
                elif (t, r2) not in seen:
                    seen.add((t, r2))
                    stack.append((t, r2))
        return frozenset(up)

    o, entry = 0, frozenset([(game.initial, initial_r(game.initial))])
    cls, met = None, set()  # the class walked, the entry sets of its levels
    while entry and o < n:
        if share(o) != cls:
            cls, met = share(o), set()
        elif entry in met:
            break
        met.add(entry)
        entry = walk(o, entry)
        o += 1
    return o_min


def _least_bound(probe, lo: int, hi: int, guess=None):
    """Least b in [lo, hi] whose probe succeeds, searched upward from lo.

    ``probe(b)`` returns (ok, result), and it succeeds at every bound
    above one where it succeeds.  It runs at lo, then at lo+1, lo+2,
    lo+4, ... (clamped at hi) until it succeeds, and the last gap is
    bisected; so no probe lies above hi, nor above lo + 2(b − lo) for
    the answer b.  Returns b and the probe's result at b, or None and
    the result at hi when even hi fails.

    ``guess``, if given, is a bound known to succeed, checked first: a
    guess at most lo answers lo at once, else the probe runs at
    guess − 1, and if that fails, the answer is the guess.  Both return
    the result None, as the answer was never probed.  Otherwise the
    search above runs on [lo, guess − 1] and reuses the success at
    guess − 1.  A guess above hi is ignored.
    """
    if guess is not None and guess <= hi:
        if guess <= lo:
            return lo, None
        known = probe(guess - 1)
        if not known[0]:
            return guess, None
        hi, fresh = guess - 1, probe

        def probe(b):
            return known if b == hi else fresh(b)
    b, step = lo, 1
    ok, res = probe(b)
    failed = lo - 1  # the greatest bound known to fail
    while not ok:
        if b >= hi:
            return None, res
        failed, b = b, min(hi, lo + step)
        step *= 2
        ok, res = probe(b)
    while failed + 1 < b:
        mid = (failed + 1 + b) // 2
        ok, mid_res = probe(mid)
        if ok:
            b, res = mid, mid_res
        else:
            failed = mid
    return b, res
