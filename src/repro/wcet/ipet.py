"""IPET (Implicit Path Enumeration Technique) WCET computation.

The classical formulation used by binary-level analyzers: maximise the sum of
basic-block costs weighted by execution counts, subject to CFG flow
conservation and loop-bound constraints, solved as a linear program.  On our
structured IR it serves as an independent cross-check of the structural
analysis (they must agree on loop-free code and stay within the loop-header
accounting difference otherwise).

The optional :class:`FlowFacts` argument injects results of the value-range
analysis (:mod:`repro.analysis.wcet_facts`): statically infeasible edges are
pinned to ``x_e = 0`` and derived loop bounds override declared ones when
tighter.  Every flow fact only *adds* constraints to a maximisation problem,
so the bound with facts is provably no looser than the plain bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array, csc_array

from repro import obs
from repro.ir.cfg import ControlFlowGraph, build_cfg
from repro.ir.program import Function
from repro.wcet.code_level import statement_wcet, _expr_cost
from repro.wcet.hardware_model import HardwareCostModel


class IpetError(RuntimeError):
    """Raised when the IPET linear program cannot be solved."""


@dataclass
class FlowFacts:
    """Extra path information feeding the IPET LP.

    ``infeasible_edges`` holds stable edge keys (``CFGEdge.key``, i.e.
    ``(src bid, dst bid, kind)``) of edges no execution can take; their
    variables are pinned to zero.  ``loop_bounds`` maps loop-header block
    ids to trip-count bounds; for headers that also carry a declared bound
    the *minimum* of the two is used, and headers without any declared
    bound (CFG built with ``allow_unbounded=True``) are bounded by the fact
    alone.  Facts keyed to edges/blocks absent from the CFG are ignored.
    """

    infeasible_edges: frozenset[tuple[int, int, str]] = frozenset()
    loop_bounds: dict[int, int] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.infeasible_edges and not self.loop_bounds


@dataclass
class IpetResult:
    """Outcome of the IPET longest-path computation.

    Beyond the bound itself the result carries the **LP witness** consumed
    by the independent certificate checker
    (:mod:`repro.analysis.certify.ipet_cert`) and by WCET-path reporting:

    * ``edge_counts`` -- the primal solution, execution counts keyed by
      stable edge key (``CFGEdge.key``);
    * ``block_costs`` / ``entry_cost`` -- the per-block cycle costs the
      objective was built from;
    * ``loop_bounds`` -- the *effective* per-header trip bounds actually
      constrained (declared bounds merged with flow facts);
    * ``infeasible_edges`` -- the edge keys pinned to ``x_e = 0``;
    * ``duals`` -- the solver's dual values as an optimality witness, keyed
      semantically (``flow`` per interior block id, ``entry``, ``exit``,
      ``loop`` per header id) so a checker never depends on producer row
      order.  ``None`` when the solver does not expose marginals.
    """

    wcet: float
    block_counts: dict[int, float]
    cfg: ControlFlowGraph
    edge_counts: dict[tuple[int, int, str], float] = field(default_factory=dict)
    block_costs: dict[int, float] = field(default_factory=dict)
    entry_cost: float = 0.0
    loop_bounds: dict[int, int] = field(default_factory=dict)
    infeasible_edges: frozenset[tuple[int, int, str]] = frozenset()
    duals: dict | None = None


def _block_cost(block, function: Function, model: HardwareCostModel) -> float:
    total = 0.0
    for stmt in block.statements:
        total += statement_wcet(stmt, function, model).total
    for cond in block.conditions:
        total += _expr_cost(cond, function, model, average=False).total + model.branch_cycles
    return total


def _constraint_matrices(
    cfg: ControlFlowGraph, loop_bounds: dict[int, int]
) -> tuple[csc_array, np.ndarray, csc_array, np.ndarray]:
    """``(A_eq, b_eq, A_ub, b_ub)`` over one variable per ``cfg.edges`` entry.

    Equality rows: flow conservation per interior block in ``cfg.blocks``
    order, then the entry row (out-flow == 1), then the exit row (in-flow
    == 1).  Inequality rows, in ``loop_bounds`` order: back-edge count <=
    bound * entry-edge count of the header.  Each edge adds its incidences
    as COO triplets in one pass; the CSC conversion sums duplicates (a self
    loop's +1 and -1) and the explicit zeros that leaves are dropped, so the
    matrices hold exactly the non-zeros of the dense formulation.
    """
    flow_row = {
        block.bid: i
        for i, block in enumerate(
            b for b in cfg.blocks if b is not cfg.entry and b is not cfg.exit
        )
    }
    entry_row = len(flow_row)
    exit_row = entry_row + 1
    loop_row = {bid: k for k, bid in enumerate(loop_bounds)}
    eq: list[tuple[int, int, float]] = []
    ub: list[tuple[int, int, float]] = []
    for j, edge in enumerate(cfg.edges):
        row = flow_row.get(edge.dst.bid)
        if row is not None:
            eq.append((row, j, 1.0))
        row = flow_row.get(edge.src.bid)
        if row is not None:
            eq.append((row, j, -1.0))
        if edge.src is cfg.entry:
            eq.append((entry_row, j, 1.0))
        if edge.dst is cfg.exit:
            eq.append((exit_row, j, 1.0))
        row = loop_row.get(edge.dst.bid)
        if row is not None:
            bound = loop_bounds[edge.dst.bid]
            ub.append((row, j, 1.0 if edge.kind == "back" else -float(bound)))

    def matrix(entries: list[tuple[int, int, float]], num_rows: int) -> csc_array:
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        a = coo_array((vals, (rows, cols)), shape=(num_rows, len(cfg.edges))).tocsc()
        a.eliminate_zeros()
        return a

    return (
        matrix(eq, exit_row + 1),
        np.array([0.0] * entry_row + [1.0, 1.0]),
        matrix(ub, len(loop_row)),
        np.zeros(len(loop_row)),
    )


def ipet_wcet(
    function: Function,
    model: HardwareCostModel,
    flow_facts: FlowFacts | None = None,
) -> IpetResult:
    """Compute the WCET of ``function`` through the IPET linear program.

    Variables: execution count ``x_e`` of every CFG edge.  Block counts are
    derived as the sum of incoming edge counts.  Constraints:

    * flow conservation at every block (in-flow == out-flow);
    * the entry block executes exactly once;
    * for every loop header, the back-edge count is at most ``bound`` times
      the count of the entry (non-back) edges into the header;
    * with ``flow_facts``: ``x_e = 0`` for statically infeasible edges, and
      loop bounds are tightened to ``min(declared, derived)``.

    Objective: maximise ``sum(block_cost * block_count)``.
    """
    # With flow facts a loop left unannotated by the front-end may still be
    # bounded by the facts, so defer the loop-bound check to the merge below.
    cfg = build_cfg(function, allow_unbounded=flow_facts is not None)
    edges = cfg.edges
    if not edges:
        raise IpetError(f"function {function.name!r} has an empty CFG")
    edge_index: dict[tuple[int, int, str], int] = {}
    for i, edge in enumerate(edges):
        if edge.key in edge_index:
            raise IpetError(
                f"function {function.name!r} has duplicate CFG edge {edge.key}"
            )
        edge_index[edge.key] = i
    num_vars = len(edges)

    costs = {block.bid: _block_cost(block, function, model) for block in cfg.blocks}

    # Objective: block count = sum of incoming edges (entry handled separately).
    c = np.zeros(num_vars)
    for i, edge in enumerate(edges):
        c[i] -= costs[edge.dst.bid]
    entry_cost = costs[cfg.entry.bid] if cfg.entry is not None else 0.0

    # Effective loop bounds: declared, tightened/completed by flow facts.
    effective_bounds = dict(cfg.loop_bounds)
    if flow_facts is not None:
        known = {block.bid for block in cfg.blocks}
        for header_bid, bound in flow_facts.loop_bounds.items():
            if header_bid not in known:
                continue
            declared = effective_bounds.get(header_bid)
            effective_bounds[header_bid] = (
                int(bound) if declared is None else min(declared, int(bound))
            )
    unbounded = sorted(set(cfg.back_edges) - set(effective_bounds))
    if unbounded:
        raise IpetError(
            f"function {function.name!r}: loop header block(s) "
            f"{', '.join(f'BB{b}' for b in unbounded)} have no declared or "
            "derived trip-count bound"
        )

    a_eq, b_eq, a_ub, b_ub = _constraint_matrices(cfg, effective_bounds)
    ub_headers = list(effective_bounds)

    bounds: list[tuple[float, float | None]] = [(0, None)] * num_vars
    pinned: set[tuple[int, int, str]] = set()
    if flow_facts is not None:
        for key in flow_facts.infeasible_edges:
            i = edge_index.get(key)
            if i is not None:
                bounds[i] = (0, 0)
                pinned.add(key)

    if obs.obs_enabled():
        registry = obs.metrics()
        registry.counter("ipet.solves").inc()
        registry.histogram("ipet.vars").observe(num_vars)
        registry.histogram("ipet.constraints").observe(len(b_eq) + len(b_ub))
    with obs.span("ipet.solve", function=function.name, vars=num_vars):
        result = linprog(
            c,
            A_eq=a_eq,
            b_eq=b_eq,
            A_ub=a_ub if len(b_ub) else None,
            b_ub=b_ub if len(b_ub) else None,
            bounds=bounds,
            method="highs",
        )
    if not result.success:
        raise IpetError(f"IPET LP failed for {function.name!r}: {result.message}")

    # Every block defaults to 0.0 so consumers never KeyError on blocks the
    # worst-case path does not reach; counts are the sum of incoming edges.
    counts = result.x.tolist()
    block_counts: dict[int, float] = {block.bid: 0.0 for block in cfg.blocks}
    for edge, count in zip(edges, counts):
        block_counts[edge.dst.bid] += count
    # The entry block executes once on function entry.  Only seed that count
    # when no edge flows into the entry: a back edge targeting the entry has
    # already been accumulated above, and seeding on top of it would double
    # count the entry block.
    if block_counts[cfg.entry.bid] == 0.0:
        block_counts[cfg.entry.bid] = 1.0

    # Retain the full LP witness (primal counts; duals when HiGHS exposes
    # marginals) so an independent checker can re-verify the solution
    # without re-solving.  Duals are keyed by block semantics, never by the
    # producer's matrix row order: ``_constraint_matrices`` lays out the
    # interior-flow rows in ``cfg.blocks`` order, then the entry row, then
    # the exit row, and the inequality rows follow ``ub_headers``.
    edge_counts = {edge.key: count for edge, count in zip(edges, counts)}
    duals = None
    eq_marginals = getattr(getattr(result, "eqlin", None), "marginals", None)
    if eq_marginals is not None and len(eq_marginals) == len(b_eq):
        interior = [
            b.bid for b in cfg.blocks if b is not cfg.entry and b is not cfg.exit
        ]
        duals = {
            "flow": {bid: float(eq_marginals[i]) for i, bid in enumerate(interior)},
            "entry": float(eq_marginals[len(interior)]),
            "exit": float(eq_marginals[len(interior) + 1]),
            "loop": {},
        }
        ub_marginals = getattr(getattr(result, "ineqlin", None), "marginals", None)
        if ub_marginals is not None and len(ub_marginals) == len(ub_headers):
            duals["loop"] = {
                bid: float(ub_marginals[i]) for i, bid in enumerate(ub_headers)
            }
        elif ub_headers:
            # partial witness would make the checker's duality math wrong
            duals = None

    wcet = -float(result.fun) + entry_cost
    return IpetResult(
        wcet=wcet,
        block_counts=block_counts,
        cfg=cfg,
        edge_counts=edge_counts,
        block_costs=costs,
        entry_cost=entry_cost,
        loop_bounds=dict(effective_bounds),
        infeasible_edges=frozenset(pinned),
        duals=duals,
    )
