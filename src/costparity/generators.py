"""Programmatic constructions of the lower-bound instance families.

Each generator returns the game together with its published target
bound and, where defined, reference strategies whose exact costs and
sizes the verification pipeline confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Union

from .core import (BINARY, DEFAULT_PRODUCT_BUDGET, UNARY, BudgetExceededError, CostGame, Edge,
                   FormatError, StrategySpec, Vertex, _new_edge, _new_vertex, require_valid,
                   strategy_from_functions)
from .streett import CostStreettGame, StreettEdge, StreettPair, require_valid_streett


FAMILY_TABLE_BUDGET = 2 * DEFAULT_PRODUCT_BUDGET  # see _require_family_budget


@dataclass(frozen=True)
class ReferenceStrategy:
    name: str
    strategy: StrategySpec
    claimed_cost: int
    claimed_size: int


@dataclass(frozen=True)
class GeneratedInstance:
    family: str
    d: int
    game: Union[CostGame, CostStreettGame]
    target_bound: int
    reference_strategies: tuple[ReferenceStrategy, ...] = ()

    def manifest(self) -> str:
        strats = ",".join(f"{r.name}:{r.claimed_cost}:{r.claimed_size}"
                          for r in self.reference_strategies)
        return (f"family={self.family} d={self.d} bound={self.target_bound}"
                f" strategies={strats}\n")


# --- QBF ----------------------------------------------------------------------

@dataclass(frozen=True)
class QbfFormula:
    """Closed QBF in prenex 3-CNF: quantifiers over variables 1..n, at
    least one clause, each clause exactly three literals (±variable
    index)."""

    prefix: tuple[str, ...]  # 'e' or 'a' per variable, in order
    clauses: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        return len(self.prefix)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def check(self) -> None:
        if not self.clauses:
            raise ValueError("a formula needs at least one clause")
        for q in self.prefix:
            if q not in ("e", "a"):
                raise ValueError(f"bad quantifier {q!r}")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} must have exactly 3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range")

    @property
    def normalized(self) -> bool:
        if not self.prefix or self.prefix[0] != "e" or self.prefix[-1] != "e":
            return False
        return all(a != b for a, b in zip(self.prefix, self.prefix[1:]))


def normalize_qbf(phi: QbfFormula) -> QbfFormula:
    """Insert dummy quantified variables to obtain strict alternation
    with ∃ outermost and innermost; clauses are remapped accordingly."""
    phi.check()
    out: list[tuple[str, Optional[int]]] = []
    for i, q in enumerate(phi.prefix):
        if not out:
            if q == "a":
                out.append(("e", None))
        elif out[-1][0] == q:
            out.append(("a" if q == "e" else "e", None))
        out.append((q, i + 1))
    if out[-1][0] == "a":
        out.append(("e", None))
    remap = {old: new + 1 for new, (_, old) in enumerate(out) if old is not None}
    clauses = tuple(tuple(remap[l] if l > 0 else -remap[-l] for l in cl)
                    for cl in phi.clauses)
    return QbfFormula(tuple(q for q, _ in out), clauses)


def eval_qbf(phi: QbfFormula) -> bool:
    """Exact semantics by recursion over the quantifier prefix."""
    phi.check()

    def clause_value(cl, assign):
        return any(assign[abs(l)] == (l > 0) for l in cl)

    def rec(i: int, assign: dict[int, bool]) -> bool:
        if i > phi.n:
            return all(clause_value(cl, assign) for cl in phi.clauses)
        values = (True, False)
        if phi.prefix[i - 1] == "e":
            return any(rec(i + 1, {**assign, i: v}) for v in values)
        return all(rec(i + 1, {**assign, i: v}) for v in values)

    return rec(1, {})


def _qdimacs_ints(fields: list[str], line: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError as exc:
        raise FormatError(f"bad number in line: {line!r}") from exc


def parse_qdimacs(text: str) -> QbfFormula:
    """QDIMACS subset: a ``p cnf`` line, ``e``/``a`` scope lines, and
    0-terminated clause lines.  Clauses with fewer than three literals
    are padded by repeating the last literal."""
    nvars = None
    order: list[tuple[str, int]] = []
    clauses: list[tuple[int, int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"bad problem line: {line!r}")
            nvars, _ = _qdimacs_ints(parts[2:], line)
        elif parts[0] in ("e", "a"):
            if parts[-1] != "0":
                raise FormatError(f"scope line not 0-terminated: {line!r}")
            order.extend((parts[0], v) for v in _qdimacs_ints(parts[1:-1], line))
        else:
            if parts[-1] != "0":
                raise FormatError(f"clause line not 0-terminated: {line!r}")
            lits = _qdimacs_ints(parts[:-1], line)
            if not 1 <= len(lits) <= 3:
                raise FormatError(f"clause must have 1..3 literals: {line!r}")
            while len(lits) < 3:
                lits.append(lits[-1])
            clauses.append(tuple(lits))
    if nvars is None:
        raise FormatError("missing problem line")
    if not clauses:
        raise FormatError("no clause line: a formula needs at least one clause")
    declared = [v for _, v in order]
    if sorted(declared) != list(range(1, nvars + 1)):
        raise FormatError("scope lines must declare each variable exactly once")
    for cl in clauses:
        for lit in cl:
            if lit == 0 or abs(lit) > nvars:
                raise FormatError(f"literal {lit} out of range for {nvars} variables")
    remap = {v: i + 1 for i, v in enumerate(declared)}
    prefix = tuple(q for q, _ in order)
    remapped = tuple(tuple(remap[l] if l > 0 else -remap[-l] for l in cl)
                     for cl in clauses)
    return QbfFormula(prefix, remapped)


def format_qdimacs(phi: QbfFormula) -> str:
    lines = [f"p cnf {phi.n} {phi.m}"]
    for i, q in enumerate(phi.prefix):
        lines.append(f"{q} {i + 1} 0")
    for cl in phi.clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


def qbf_to_game(phi: QbfFormula) -> GeneratedInstance:
    """Finitary parity game in which Player 0 realizes bound 3n+5 iff
    the formula is true.

    Round structure: truth values are picked by opening requests
    (setting x_j false requests color 4j+1, true requests 4j+3 one step
    later), Player 1 picks a clause, Player 0 picks a literal, and a
    forced check path answers the matching request with cost 3n+5 while
    a mismatched pick costs 3n+6.
    """
    phi = normalize_qbf(phi)
    game, psi, treq, fneg, entry_of = _qbf_arena(phi)
    _qbf_distance_audit(game, phi, psi, treq, fneg, entry_of)
    return GeneratedInstance("qbf", phi.n, game, 3 * phi.n + 5)


def _qbf_arena(phi: QbfFormula):
    """The game of a normalized formula, with the vertices the distance
    audit reads: the clause-picking vertex ψ, the true- and false-request
    vertices of each variable, and the entry of each literal's check
    gadget.

    Ids are handed out in order: the entries a_1..a_n, ψ, four vertices
    per variable (false request, its middle vertex, true-request entry,
    true request), one path per literal's check gadget, then one vertex
    per clause.  Every edge costs 1.  Each vertex and edge is built once,
    as a ``Vertex`` or an ``Edge`` (the check gadgets' from zipped
    columns), and the game holds them as they are."""
    n = phi.n
    # a_j entry vertices, then ψ
    vertices = list(map(_new_vertex, zip(range(n), (0 if q == "e" else 1 for q in phi.prefix),
                                         repeat(0))))
    vertices.append(_new_vertex((n, 1, 0)))
    psi = n
    edges: list[Edge] = []
    treq = {}  # j -> color 4j+3 vertex
    fneg = {}  # j -> color 4j+1 vertex
    for j in range(1, n + 1):
        aj, exit_j = j - 1, j if j < n else psi
        f = fneg[j] = len(vertices)  # then fmid, tin, treq
        t = treq[j] = f + 3
        vertices += map(_new_vertex, ((f, 1, 4 * j + 1), (f + 1, 1, 0), (f + 2, 1, 0),
                                      (t, 1, 4 * j + 3)))
        edges += map(_new_edge, ((aj, f, 1), (aj, f + 2, 1), (f, f + 1, 1), (f + 2, t, 1),
                                 (t, exit_j, 1), (f + 1, exit_j, 1)))

    # one check gadget per distinct literal occurring in the formula: a
    # path from its entry, through the 3j subdivision vertices of the
    # 3j+1-step approach and w1, w2, w3, back to a_1
    literals = sorted({l for cl in phi.clauses for l in cl},
                      key=lambda l: (abs(l), l < 0))
    entry_of: dict[int, int] = {}
    for lit in literals:
        j = abs(lit)
        entry = entry_of[lit] = len(vertices)
        w1, w2 = (4 * j, 4 * j + 4) if lit > 0 else (4 * j + 2, 4 * j + 2)
        colors = (4 * j,) + (0,) * (3 * j) + (w1, w2, 4 * (n + 1))
        w3 = entry + len(colors) - 1
        vertices += map(_new_vertex, zip(range(entry, w3 + 1), repeat(1), colors))
        edges += map(_new_edge, zip(range(entry, w3), range(entry + 1, w3 + 1), repeat(1)))
        edges.append(_new_edge((w3, 0, 1)))

    for cl in phi.clauses:
        cv = len(vertices)
        vertices.append(_new_vertex((cv, 0, 0)))
        edges.append(_new_edge((psi, cv, 1)))
        # repeated literals share one edge
        edges += map(_new_edge, zip(repeat(cv), map(entry_of.__getitem__, sorted(set(cl))),
                                    repeat(1)))

    game = CostGame(tuple(vertices), tuple(edges), 0, UNARY)
    require_valid(game)
    return game, psi, treq, fneg, entry_of


def _qbf_distance_audit(game: CostGame, phi: QbfFormula, psi, treq, fneg,
                        entry_of) -> None:
    """The proof's step counts, enforced: a true-request reaches the
    clause-picking vertex in 3(n−j)+1 steps, a false-request in
    3(n−j)+2, and every check gadget first answers its own literal
    after 3j+2 (positive) or 3j+1 (negative) steps: the nearest vertex
    of the answering color lies exactly that far from the entry.

    Only the distances these checks read are searched: once backward
    from ψ, along each vertex's in-edges, and once forward from each
    gadget entry along ``game.successors``, each search cut at the most
    steps it checks."""
    n = phi.n
    to_psi = _bfs_dist(_in_edges(game), psi, 3 * n - 1)
    for j in range(1, n + 1):
        if to_psi.get(treq[j]) != 3 * (n - j) + 1:
            raise AssertionError(f"true-request distance broken at {j}")
        if to_psi.get(fneg[j]) != 3 * (n - j) + 2:
            raise AssertionError(f"false-request distance broken at {j}")
    succ, color = game.successors, game.color
    for lit, entry in entry_of.items():
        j = abs(lit)
        want_color = 4 * j + 4 if lit > 0 else 4 * j + 2
        steps = 3 * j + 2 if lit > 0 else 3 * j + 1
        first = min((dd for v, dd in _bfs_dist(succ, entry, steps).items()
                     if color[v] == want_color), default=None)
        if first != steps:
            raise AssertionError(f"check gadget broken for literal {lit}")


def _in_edges(game: CostGame) -> dict[int, list]:
    """id → the edges into the vertex, in edge order."""
    into: dict[int, list] = {u: [] for u in game.owner}
    for e in game.edges:
        into[e.target].append(e)
    return into


def _bfs_dist(rows, source: int, depth: int) -> dict[int, int]:
    """Step distances from ``source`` along ``rows`` to every vertex it
    reaches within ``depth`` steps.  ``rows`` maps a vertex to tuples
    whose first item is a next vertex: its successor row (target, cost),
    or its in-edges (source, target, cost) for a backward search."""
    dist = {source: 0}
    queue = [source]
    for u in queue:  # grows while it is walked, in order of distance
        k = dist[u] + 1
        if k > depth:
            break
        for move in rows[u]:
            t = move[0]
            if t not in dist:
                dist[t] = k
                queue.append(t)
    return dist


# --- Player 0 memory / tradeoff family -----------------------------------------

def _p0_arena(d: int) -> tuple[list[Vertex], list[tuple[int, int]],
                               dict[int, tuple[str, int, int, int]], int]:
    """2d gadgets of d columns × 3 rows; requests 1..2d−1 in Player 1's
    gadgets, answers 2..2d in Player 0's, every path d+2 steps long."""
    vertices: list[Vertex] = []
    edges: list[tuple[int, int]] = []
    role: dict[int, tuple[str, int, int, int]] = {}  # id -> (row, gadget, column, color)

    def add_vertex(owner, color, row, g, x):
        vid = len(vertices)
        vertices.append(Vertex(vid, owner, color))
        role[vid] = (row, g, x, color)
        return vid

    entries = []
    exits = []
    for g in range(1, 2 * d + 1):
        his = g <= d
        gown = 1 if his else 0
        top, mid, bot = [], [], []
        for x in range(d):
            color = 2 * x + 1 if his else 2 * x + 2
            top.append(add_vertex(gown, 0, "top", g, x))
            mid.append(add_vertex(1, color, "mid", g, x))
            bot.append(add_vertex(1, 0, "bot", g, x))
        for x in range(d):
            edges.append((top[x], mid[x]))
            edges.append((mid[x], bot[x]))
            if x + 1 < d:
                edges.append((top[x], top[x + 1]))
                edges.append((bot[x], bot[x + 1]))
        entries.append(top[0])
        exits.append(bot[d - 1])
    for g in range(2 * d):
        edges.append((exits[g], entries[(g + 1) % (2 * d)]))
    return vertices, edges, role, entries[0]


def _require_family_budget(game, sizes) -> None:
    """Before any table is built, the family's claimed states × |E| update
    entries fit ``FAMILY_TABLE_BUDGET``, which admits every family up to d = 11."""
    entries = sum(sizes) * len(game.edges)
    if entries > FAMILY_TABLE_BUDGET:
        raise BudgetExceededError(f"reference strategies need {entries} update entries "
                                  f"together, budget {FAMILY_TABLE_BUDGET}")


def _p0_strategy(d: int, j: int, game: CostGame,
                 role: dict[int, tuple[str, int, int, int]]) -> StrategySpec:
    top = 2 * d - 1
    m_init = tuple(2 * i + 1 for i in range(j - 1)) + (top,) * (d - j + 1)

    def clamp(seq: tuple[int, ...]) -> tuple[int, ...]:
        return seq[:j - 1] + (top,) * (d - j + 1)

    def upd(seq, ek):
        _, _, t = ek
        if t == game.initial:
            return m_init
        row, g, x, color = role[t]
        if row != "mid" or color % 2 == 0:
            return seq
        if seq[g - 1] >= color:
            return seq
        tail = tuple(min(color + 2 * k, top) for k in range(d - g + 1))
        return clamp(seq[:g - 1] + tail)

    def nxt(v, seq):
        # she owns only her gadgets' tops (gadgets d+1..2d): right up to
        # the column of the wanted entry, an odd number at most 2d−1,
        # then down; a top left of that column has a right move
        _, g, x, _ = role[v]
        want = "top" if x < (seq[g - d - 1] - 1) // 2 else "mid"
        return min(t for t, _ in game.successors[v] if role[t][0] == want)

    return strategy_from_functions(game, 0, m_init, upd, nxt)


def _p0_references(d: int, game: CostGame, role, cost) -> tuple[ReferenceStrategy, ...]:
    """σ_1, …, σ_d; σ_j claims cost ``cost(j)`` and |IncSeq_d^j| states, the odd
    sequences ending in the 2d−1 plateau with at most j−1 entries below it:
    one per set of k < j of the d−1 odd numbers below 2d−1, ascending."""
    sizes = [sum(math.comb(d - 1, k) for k in range(j)) for j in range(1, d + 1)]
    _require_family_budget(game, sizes)
    return tuple(ReferenceStrategy(f"sigma{j}", _p0_strategy(d, j, game, role), cost(j), size)
                 for j, size in enumerate(sizes, 1))


def p0_memory_family(d: int) -> GeneratedInstance:
    """The d-odd-color family where playing at cost d²+2d needs 2^{d−1}
    memory; σ_j trades cost d²+3d−j for |IncSeq_d^j| states."""
    if d < 1:
        raise ValueError("d must be at least 1")
    vertices, raw_edges, role, initial = _p0_arena(d)
    game = CostGame(tuple(vertices), tuple(Edge(u, v, 1) for u, v in raw_edges), initial, UNARY)
    require_valid(game)
    return GeneratedInstance("p0mem", d, game, d * d + 2 * d,
                             _p0_references(d, game, role, lambda j: d * d + 3 * d - j))


def binary_tradeoff_family(d: int) -> GeneratedInstance:
    """The same arena under integer costs: 2^c into a vertex colored
    2c−1 or 2c, 2^d − 2^c out of it, 2^{d−1} between gadgets.

    Every gadget traversal costs 2^d regardless of the path, so the
    σ_j chain stays strict with costs (d+1)·2^d + d·2^{d−1} − 2^j.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    vertices, raw_edges, role, initial = _p0_arena(d)

    def colored_c(vid: int) -> Optional[int]:
        row, _, x, color = role[vid]
        return x + 1 if row == "mid" else None

    edges = []
    for u, v in raw_edges:
        c_in = colored_c(v)
        c_out = colored_c(u)
        if c_in is not None:
            w = 2 ** c_in
        elif c_out is not None:
            w = 2 ** d - 2 ** c_out
        elif role[v][0] == "top" and role[v][2] == 0 and role[u][0] == "bot":
            w = 2 ** (d - 1)  # inter-gadget edge
        else:
            w = 0
        edges.append(Edge(u, v, w))
    game = CostGame(tuple(vertices), tuple(edges), initial, BINARY)
    require_valid(game)
    refs = _p0_references(d, game, role, lambda j: (d + 1) * 2 ** d + d * 2 ** (d - 1) - 2 ** j)
    return GeneratedInstance("bintrade", d, game, (d + 1) * 2 ** d + (d - 2) * 2 ** (d - 1), refs)


# --- Player 1 memory / tradeoff families -----------------------------------------

def _p1_arena(d: int, id_base: int = 0) -> tuple[list, list, dict, int]:
    """Spoiler-memory arena: d request gadgets for Player 0, a chain of choice
    vertices with cost-5 edges (subdivision vertices colored like the
    edge's target, as the proof prescribes), and d answer gadgets."""
    vertices: list[Vertex] = []
    edges: list[tuple[int, int]] = []
    info: dict[str, dict] = {"G0_hi": {}, "G0_lo": {}, "G1_entry": {}, "c": {}}

    def add_vertex(owner, color):
        vid = id_base + len(vertices)
        vertices.append(Vertex(vid, owner, color))
        return vid

    v_init = add_vertex(0, 4 * d)
    prev_exit = v_init
    for jj in range(1, d + 1):
        A = add_vertex(0, 0)
        B = add_vertex(0, 4 * jj - 3)
        C = add_vertex(0, 0)
        D = add_vertex(0, 0)
        E = add_vertex(0, 0)
        F = add_vertex(0, 0)
        G = add_vertex(0, 4 * jj - 1)
        H = add_vertex(0, 0)
        edges += [(prev_exit, A), (A, B), (B, C), (C, D), (D, H),
                  (A, E), (E, F), (F, G), (G, H)]
        info["G0_hi"][jj] = B
        info["G0_lo"][jj] = G
        prev_exit = H
    c_prev = None
    for jj in range(1, d + 1):
        cj = add_vertex(0, 4 * (jj - 1))
        info["c"][jj] = cj
        if jj == 1:
            edges.append((prev_exit, cj))
        else:
            # cost-5 edge, subdivided; fresh vertices take the target's color
            node = c_prev
            for _ in range(4):
                s = add_vertex(0, 4 * (jj - 1))
                edges.append((node, s))
                node = s
            edges.append((node, cj))
        c_prev = cj
    for jj in range(1, d + 1):
        A1 = add_vertex(1, 0)
        B1 = add_vertex(1, 4 * jj - 2)
        C1 = add_vertex(1, 0)
        D1 = add_vertex(1, 0)
        E1 = add_vertex(1, 0)
        F1 = add_vertex(1, 4 * jj - 2)
        H1 = add_vertex(1, 4 * jj)
        edges += [(info["c"][jj], A1), (A1, B1), (B1, C1), (C1, D1), (D1, H1),
                  (A1, E1), (E1, F1), (F1, H1), (H1, v_init)]
        info["G1_entry"][jj] = A1
    return vertices, edges, info, v_init


def _p1_strategy_functions(game: CostGame, info: dict, v_init: int):
    """τ on the spoiler-memory arena of ``info`` inside ``game``: it
    remembers which request Player 0 posed in each of her d gadgets
    (2^d states) and answers the one in the entered gadget as late as
    the arena allows."""
    hi_of = {v: jj for jj, v in info["G0_hi"].items()}
    lo_of = {v: jj for jj, v in info["G0_lo"].items()}
    entry_of = {v: jj for jj, v in info["G1_entry"].items()}

    def upd(mask, ek):
        _, _, t = ek
        if t == v_init:
            return 0
        if t in hi_of:
            return mask | (1 << (hi_of[t] - 1))
        if t in lo_of:
            return mask & ~(1 << (lo_of[t] - 1))
        return mask

    def nxt(v, mask):
        jj = entry_of.get(v)
        succs = game.successors[v]
        if jj is None:
            return succs[0][0]
        # the entry A1 moves to B1 (color 4j−2) or E1 (color 0).
        # request 4j−3 open: take the long way to the late 4j−2;
        # request 4j−1 open: take the long way to the 4j answer
        lower = bool(mask >> (jj - 1) & 1)
        return min(t for t, _ in succs if (game.color[t] == 0) == lower)

    return upd, nxt


def p1_memory_family(d: int) -> GeneratedInstance:
    """Spoiler-memory game: the spoiler needs 2^d states to force 5(d−1)+7."""
    if d < 1:
        raise ValueError("d must be at least 1")
    vertices, raw_edges, info, v_init = _p1_arena(d)
    game = CostGame(tuple(vertices), tuple(Edge(u, v, 1) for u, v in raw_edges), v_init, UNARY)
    require_valid(game)
    _require_family_budget(game, [2 ** d])
    upd, nxt = _p1_strategy_functions(game, info, v_init)
    tau = strategy_from_functions(game, 1, 0, upd, nxt)
    bound = 5 * (d - 1) + 7
    return GeneratedInstance("p1mem", d, game, bound,
                             (ReferenceStrategy("tau", tau, bound, 2 ** d),))


def p1_tradeoff_family(d: int) -> GeneratedInstance:
    """Fan-out union of the spoiler-memory games: τ_j commits to subgame j and
    realizes cost 5(j−1)+7 with 2^j states."""
    if d < 1:
        raise ValueError("d must be at least 1")
    vertices = [Vertex(0, 1, 0)]  # union root, Player 1
    edges: list[tuple[int, int]] = []
    sub = []
    base = 1
    for jj in range(1, d + 1):
        vs, es, info, v_init = _p1_arena(jj, id_base=base)
        vertices += vs
        edges += es
        edges.append((0, v_init))
        sub.append((jj, info, v_init))
        base += len(vs)
    game = CostGame(tuple(vertices), tuple(Edge(u, v, 1) for u, v in edges), 0, UNARY)
    require_valid(game)
    _require_family_budget(game, [2 ** jj for jj, _, _ in sub])
    refs = []
    for jj, info, v_init in sub:
        upd_j, nxt_j = _p1_strategy_functions(game, info, v_init)

        def nxt(v, mask, nxt_j=nxt_j, v_init=v_init):
            if v == 0:
                return v_init
            return nxt_j(v, mask)

        tau = strategy_from_functions(game, 1, 0, upd_j, nxt)
        refs.append(ReferenceStrategy(f"tau{jj}", tau, 5 * (jj - 1) + 7, 2 ** jj))
    return GeneratedInstance("p1trade", d, game, 5 * (d - 1) + 7, tuple(refs))


# --- Streett counter family -------------------------------------------------------

def streett_counter_family(d: int) -> GeneratedInstance:
    """Counter family: d+1 pairs whose optimal strategy implements a
    binary counter, with cost 3(2^d − 1) + 2."""
    if d < 0:
        raise ValueError("d must be non-negative")
    npairs = d + 1
    vertices: list[Vertex] = []

    def add_vertex(owner):
        vid = len(vertices)
        vertices.append(Vertex(vid, owner, 0))
        return vid

    P = add_vertex(0)
    Q = add_vertex(0)
    m = add_vertex(0)
    ans, trap, ret = {}, {}, {}
    raw: list[tuple[int, int]] = [(P, Q), (Q, m)]
    for c in range(npairs):
        ans[c] = add_vertex(1)
        trap[c] = add_vertex(1)
        ret[c] = add_vertex(0)
        raw += [(m, ans[c]), (ans[c], trap[c]), (ans[c], ret[c]),
                (trap[c], trap[c]), (trap[c], P), (ret[c], m)]
    pairs = []
    for c in range(npairs):
        q = frozenset({Q} | {ret[k] for k in range(c + 1, npairs)})
        p = frozenset({P, ans[c]} | {trap[k] for k in range(c)})
        pairs.append(StreettPair(q, p))
    ones = (1,) * npairs
    edges = tuple(StreettEdge(u, v, ones) for u, v in raw)
    game = CostStreettGame(tuple(vertices), edges, tuple(pairs), P)
    require_valid_streett(game)

    ans_of = {v: c for c, v in ans.items()}
    trap_of = {v: c for c, v in trap.items()}
    ret_of = {v: c for c, v in ret.items()}
    full = (1 << npairs) - 1

    def upd(mask, ek):
        _, _, t = ek
        if t == Q:
            return full
        if t == P:
            return 0
        if t in ans_of:
            return mask & ~(1 << ans_of[t])
        if t in trap_of:
            return mask & ((1 << (trap_of[t] + 1)) - 1)
        if t in ret_of:
            return mask | ((1 << ret_of[t]) - 1)
        return mask

    def nxt(v, mask):
        if v == m:
            c = (mask & -mask).bit_length() - 1 if mask else 0
            return ans[c]
        return game.successors[v][0][0]

    sigma = strategy_from_functions(game, 0, 0, upd, nxt)
    bound = 3 * (2 ** d - 1) + 2
    return GeneratedInstance("streett", d, game, bound,
                             (ReferenceStrategy("counter", sigma, bound,
                                                sigma.size),))
