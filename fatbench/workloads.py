"""The four benchmark workloads: inputs, operation, digest and invariant.

Every input is a fixed-seed random Whitehead walk from the canonical
marked graph ``symplectic_graph(g)``; each walk starts from its own fresh
copy of that graph, so no two walks share a cached expansion table.  A
workload's pool is the concatenation of the items of its walks, and a
run cycles over the pool in order.

Calls into the program go through module attributes (``johnson.tau_path``,
not a name imported from it) so that the traced run sees them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

from fatmagnus import cocycle, fatgraph, johnson, magnus
from fatmagnus.algebra import TruncatedTensor


@dataclass(frozen=True)
class Workload:
    name: str
    genus: int
    walk_len: int
    walks: int           # walks in the full-size pool
    sizes: str           # input sizes, for the record
    items: Callable[[Any], list]       # MovePath -> the operation inputs
    op: Callable[[Any], Any]           # one timed operation
    serial: Callable[[Any], str]       # canonical text of a result
    # paper invariant on (input, result); None where it does not apply
    check: Callable[[Any, Any], bool | None]
    check_all: bool      # check every operation, else the first it applies to


# -- canonical serialization from the public terms() ------------------------


def terms_text(terms) -> str:
    """(word, coefficient) pairs in (degree, word) order, whatever order
    they arrive in, so the text does not depend on the storage layout."""
    ordered = sorted(terms, key=lambda wc: (len(wc[0]), wc[0]))
    return " ".join(f"{','.join(map(str, w))}:{c}" for w, c in ordered)


def tensor_text(t: TruncatedTensor) -> str:
    return terms_text(t.terms())


def tensors_text(ts) -> str:
    return "|".join(tensor_text(t) for t in ts)


def graded_text(tau) -> str:
    return "/".join(f"{k}={tensors_text(v)}" for k, v in tau.values.items())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- walks ------------------------------------------------------------------


def random_walk(genus: int, steps: int, rng: random.Random):
    """A path of random Whitehead moves from a fresh canonical graph."""
    start = fatgraph.symplectic_graph(genus)
    cur, moves = start, []
    for _ in range(steps):
        mv = fatgraph.whitehead(cur, rng.choice(cur.graph.movable_edges()))
        moves.append(mv)
        cur = mv.result
    return fatgraph.MovePath(start, tuple(moves))


def generate(wl: Workload, seed: int, walks: int):
    """The pool of operation inputs and the edge ids that rebuild it."""
    rng = random.Random(f"{wl.name}/{seed}")
    paths = [random_walk(wl.genus, wl.walk_len, rng) for _ in range(walks)]
    pool = [item for p in paths for item in wl.items(p)]
    return pool, [p.edge_ids for p in paths]


def rebuild(wl: Workload, recipes) -> list:
    """Fresh objects for the same inputs, so no table cache carries over."""
    return [item for ids in recipes for item in wl.items(
        fatgraph.apply_path(fatgraph.symplectic_graph(wl.genus), ids))]


# -- tables_g4n6 -------------------------------------------------------------

TABLE_DEGREE = 6


def table_op(mg):
    table = magnus.MagnusTable(mg, TABLE_DEGREE)
    return table, [table.ell(h) for h in sorted(mg.graph.half_edges)]


def theta_closes(mg, out) -> bool:
    """theta multiplies to 1 around every vertex but the tail's."""
    table = out[0]
    G = mg.graph
    unit = TruncatedTensor.unit(mg.genus(), TABLE_DEGREE)
    tail_v = G.vertex_of[G.tail]
    for vi, v in enumerate(G.vertices):
        if vi == tail_v:
            continue
        prod = unit
        for x in reversed(v):
            prod = prod * table.theta(x)
        if prod != unit:
            return False
    return True


# -- tau_walk_g3m4 -----------------------------------------------------------

TAU_DEGREE = 4


def tau_matches_solver(path, tau) -> bool | None:
    """The path value equals the end-to-end table-comparison solver.

    The solver needs the edges the path leaves unmoved to span homology;
    where they do not, it raises ValueError and the check does not apply.
    """
    try:
        phi = johnson.ia_between(path.initial, path.final,
                                 set(path.edge_ids), TAU_DEGREE)
    except ValueError:
        return None
    return johnson.ia_graded(phi) == tau


# -- oracle_walk_g3m3 --------------------------------------------------------

ORACLE_DEGREE = 3


def oracle_op(mv):
    return (johnson.tau_move(mv, ORACLE_DEGREE).tau,
            johnson.tau_move_oracle(mv, ORACLE_DEGREE).tau)


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="tables_g4n6", genus=4, walk_len=2, walks=28,
        sizes="genus 4, degree 6; 28 walks of 2 moves, one table per graph "
              "reached (56 tables)",
        items=lambda p: [mv.result for mv in p.moves],
        op=table_op,
        serial=lambda out: tensors_text(out[1]),
        check=theta_closes, check_all=False),
    Workload(
        name="tau_walk_g3m4", genus=3, walk_len=3, walks=56,
        sizes="genus 3, tau through degree 4; 56 paths of 3 moves",
        items=lambda p: [p],
        op=lambda p: johnson.tau_path(p, TAU_DEGREE),
        serial=graded_text,
        check=tau_matches_solver, check_all=False),
    Workload(
        name="j2_walk_g3", genus=3, walk_len=6, walks=64,
        sizes="genus 3; 64 paths of 6 moves",
        items=lambda p: [p],
        op=lambda p: cocycle.j2_path(p),
        serial=lambda v: (tensors_text(v.s.components) + "#"
                          + terms_text(v.xi.terms())),
        check=lambda p, v: v.is_integral(), check_all=True),
    Workload(
        name="oracle_walk_g3m3", genus=3, walk_len=4, walks=72,
        sizes="genus 3, degree 3; 72 walks of 4 moves, one operation per "
              "move (288 moves)",
        items=lambda p: list(p.moves),
        op=oracle_op,
        serial=lambda out: graded_text(out[0]),
        check=lambda mv, out: out[0] == out[1], check_all=True),
)}
