"""Contention certificates: static-MHP pruning witness + checker.

``system_level_wcet(static_pruning=True)`` excludes task pairs from the
MHP contender derivation when the static interference analysis proves them
dependence-ordered or shared-footprint-disjoint.  An unsound exclusion
silently *lowers* the WCET bound, so the claim needs its own certificate:
the checker re-derives, for **every** cross-core (task, sharer) pair the
skeleton excludes, an independent proof that the exclusion was justified
-- its own reachability search over the HTG edges and its own footprint
walker with its own interval arithmetic, sharing no code with
:mod:`repro.analysis.static_mhp`, :mod:`repro.analysis.footprints`,
:mod:`repro.analysis.value_range` or :mod:`repro.utils.graphs`.

A pair the checker can prove neither ordered nor address-disjoint is a
typed refutation (``certify.contention.unjustified-exclusion``); a
fabricated disjointness claim or a dropped happens-before edge therefore
cannot survive checking.  What the checker does *not* prove, mirroring the
fixed-point certificate's trust boundary:

* the shared-access counts carried verbatim (they decide who is a sharer);
* the HTG edge set itself -- the checker proves the skeleton consistent
  with the graph it is handed;
* that an address-disjoint pair really does not interfere on the
  platform.  That holds only under address-aware (banked) arbitration,
  which no platform preset models: ``RoundRobinBus`` charges every
  concurrent sharer and ``FullCrossbar`` assumes every contender targets
  one port.  An accepted certificate therefore does not make a pruned
  bound safe on the presets (see :mod:`repro.analysis.static_mhp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.report import AnalysisReport, Finding

_INF = float("inf")
_UNBOUNDED = (-_INF, _INF)


@dataclass
class ContentionCertificate:
    """Serializable witness of one static-MHP pruned contender skeleton."""

    htg_name: str
    function_name: str
    mapping: dict[str, int]
    #: per-task worst-case shared-access counts (who is a sharer)
    shared: dict[str, int]
    #: per-task allowed contenders -- everything *not* listed is claimed
    #: excluded and must be re-proved by the checker
    allowed: dict[str, list[str]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": "contention",
            "htg": self.htg_name,
            "function": self.function_name,
            "mapping": dict(self.mapping),
            "shared": dict(self.shared),
            "allowed": {tid: list(o) for tid, o in sorted(self.allowed.items())},
        }


def build_contention_certificate(result, htg, function) -> ContentionCertificate:
    """Snapshot the pruning claim of a ``SystemWcetResult``.

    Requires ``result.mhp_allowed`` (i.e. a run with ``static_pruning`` on).
    """
    allowed = result.mhp_allowed
    if allowed is None:
        raise ValueError(
            "result carries no static-MHP skeleton (static_pruning was off)"
        )
    return ContentionCertificate(
        htg_name=htg.name,
        function_name=function.name,
        mapping=dict(result.task_cores),
        shared=dict(result.task_shared_accesses),
        allowed={tid: list(others) for tid, others in allowed.items()},
    )


# ---------------------------------------------------------------------- #
# independent interval arithmetic (deliberately NOT value_range.py)
# ---------------------------------------------------------------------- #
def _corners(xs, ys, op):
    vals = []
    for x in xs:
        for y in ys:
            v = op(x, y)
            if not math.isnan(v):
                vals.append(v)
    if not vals:
        return _UNBOUNDED
    return (min(vals), max(vals))


def _eval_bounds(expr, env: dict) -> tuple[float, float]:
    from repro.ir.expressions import ArrayRef, BinOp, Call, Const, UnOp, Var

    if isinstance(expr, Const):
        v = float(expr.value)
        return (v, v)
    if isinstance(expr, Var):
        return env.get(expr.name, _UNBOUNDED)
    if isinstance(expr, BinOp):
        op = expr.op
        if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return (0.0, 1.0)
        alo, ahi = _eval_bounds(expr.left, env)
        blo, bhi = _eval_bounds(expr.right, env)
        if op == "+":
            return (alo + blo, ahi + bhi)
        if op == "-":
            return (alo - bhi, ahi - blo)
        if op == "*":
            return _corners(
                (alo, ahi), (blo, bhi), lambda x, y: 0.0 if math.isnan(x * y) else x * y
            )
        if op == "/":
            if blo > 0 or bhi < 0:
                return _corners((alo, ahi), (blo, bhi), lambda x, y: x / y)
            return _UNBOUNDED
        if op == "%":
            if alo >= 0 and blo > 0 and bhi < _INF:
                return (0.0, min(ahi, bhi - 1) if ahi < _INF else bhi - 1)
            return _UNBOUNDED
        if op == "min":
            return (min(alo, blo), min(ahi, bhi))
        if op == "max":
            return (max(alo, blo), max(ahi, bhi))
        return _UNBOUNDED
    if isinstance(expr, UnOp):
        lo, hi = _eval_bounds(expr.operand, env)
        if expr.op == "-":
            return (-hi, -lo)
        if expr.op == "abs":
            if lo >= 0:
                return (lo, hi)
            if hi <= 0:
                return (-hi, -lo)
            return (0.0, max(-lo, hi))
        if expr.op == "floor":
            return (
                math.floor(lo) if lo > -_INF else -_INF,
                math.floor(hi) if hi < _INF else _INF,
            )
        return _UNBOUNDED
    if isinstance(expr, ArrayRef):
        return _UNBOUNDED
    if isinstance(expr, Call):
        args = [_eval_bounds(a, env) for a in expr.args]
        if expr.func == "min":
            return (min(a[0] for a in args), min(a[1] for a in args))
        if expr.func == "max":
            return (max(a[0] for a in args), max(a[1] for a in args))
        return _UNBOUNDED
    return _UNBOUNDED


def _itrunc(x: float) -> float:
    """The interpreter's ``int()`` truncation, endpoint-wise (monotone)."""
    if x == _INF or x == -_INF:
        return x
    return float(math.trunc(x))


def _loop_values(stmt, env: dict) -> "tuple[float, float] | None":
    """Bounds of the index values the loop *body* observes, or ``None``
    when the loop provably never runs (``int``-truncated like the
    interpreter's loop protocol)."""
    llo, lhi = _eval_bounds(stmt.lower, env)
    ulo, uhi = _eval_bounds(stmt.upper, env)
    if stmt.step > 0:
        lo = _itrunc(llo)
        hi = _itrunc(uhi) - 1 if uhi < _INF else _INF
    else:
        lo = _itrunc(ulo) + 1 if ulo > -_INF else -_INF
        hi = _itrunc(lhi)
    if lo > hi:
        return None
    return (lo, hi)


# ---------------------------------------------------------------------- #
# independent footprint derivation (deliberately NOT footprints.py)
# ---------------------------------------------------------------------- #
def _shared_array_names(function) -> set[str]:
    from repro.ir.program import Storage

    return {
        d.name
        for d in function.all_decls()
        if d.is_array and d.storage in (Storage.SHARED, Storage.INPUT, Storage.OUTPUT)
    }


def _collect_accesses(
    stmt, env: dict, shared: set, acc: dict
) -> None:
    from repro.ir.expressions import ArrayRef
    from repro.ir.statements import Assign, Block, ExprStmt, For, If, Return, While

    def record_expr(expr):
        for node in expr.walk():
            if isinstance(node, ArrayRef) and node.array in shared:
                lo, hi = _eval_bounds(node.indices[0], env)
                acc.setdefault(node.array, []).append((_itrunc(lo), _itrunc(hi)))

    if isinstance(stmt, Assign):
        for expr in stmt.expressions():
            record_expr(expr)
        if isinstance(stmt.target, ArrayRef):
            if stmt.target.array in shared:
                lo, hi = _eval_bounds(stmt.target.indices[0], env)
                acc.setdefault(stmt.target.array, []).append(
                    (_itrunc(lo), _itrunc(hi))
                )
        else:
            env.pop(stmt.target.name, None)
        return
    if isinstance(stmt, (Return, ExprStmt)):
        for expr in stmt.expressions():
            record_expr(expr)
        return
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _collect_accesses(child, env, shared, acc)
        return
    if isinstance(stmt, If):
        record_expr(stmt.cond)
        _collect_accesses(stmt.then_body, env, shared, acc)
        _collect_accesses(stmt.else_body, env, shared, acc)
        return
    if isinstance(stmt, For):
        for expr in stmt.expressions():
            record_expr(expr)
        values = _loop_values(stmt, env)
        if values is None:
            return
        name = stmt.index.name
        saved = env.get(name)
        env[name] = values
        _collect_accesses(stmt.body, env, shared, acc)
        if saved is None:
            env.pop(name, None)
        else:
            env[name] = saved
        return
    if isinstance(stmt, While):
        record_expr(stmt.cond)
        _collect_accesses(stmt.body, env, shared, acc)
        return


def _task_access_bounds(function, task, shared: set) -> dict:
    """Per shared array, the first-index windows ``task`` may access."""
    acc: dict[str, list[tuple[float, float]]] = {}
    _collect_accesses(task.statements, {}, shared, acc)
    # declared-but-unseen shared arrays count as whole-array accesses
    for name in set(task.reads) | set(task.writes):
        if name in shared and name not in acc:
            acc[name] = [_UNBOUNDED]
    return acc


def _bounds_disjoint(a: dict, b: dict) -> bool:
    for name, windows_a in a.items():
        windows_b = b.get(name)
        if not windows_b:
            continue
        for alo, ahi in windows_a:
            for blo, bhi in windows_b:
                if alo <= bhi and blo <= ahi:
                    return False
    return True


def _related_masks(htg, index: dict) -> list[int]:
    """Per task bit, the mask of every task it reaches or is reached from.

    Only edges between mapped tasks count (``index`` holds exactly the
    mapped tasks), mirroring what the timeline builder enforces: an edge
    touching an unmapped task constrains nothing.
    """
    succs: list[list[int]] = [[] for _ in index]
    preds: list[list[int]] = [[] for _ in index]
    for edge in htg.edges:
        u = index.get(edge.src)
        v = index.get(edge.dst)
        if u is not None and v is not None:
            succs[u].append(v)
            preds[v].append(u)
    return [d | a for d, a in zip(_closure(succs), _closure(preds))]


def _closure(succs: list[list[int]]) -> list[int]:
    """Per node, the mask of nodes reachable over one or more edges.

    One sweep in DFS postorder settles every successor before its
    predecessors; on a cyclic graph (the DFS met a back edge) the sweep is
    repeated until no mask changes, so every node of a cycle reaches the
    whole cycle, itself included -- what a plain search from each node
    finds.
    """
    done = [0] * len(succs)  # 0 unseen, 1 on the DFS stack, 2 finished
    postorder: list[int] = []
    cyclic = False
    for root in range(len(succs)):
        if done[root]:
            continue
        done[root] = 1
        stack = [(root, iter(succs[root]))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if not done[child]:
                    done[child] = 1
                    stack.append((child, iter(succs[child])))
                    break
                cyclic |= done[child] == 1
            else:
                stack.pop()
                done[node] = 2
                postorder.append(node)
    reach = [0] * len(succs)
    changed = True
    while changed:
        changed = False
        for node in postorder:
            mask = reach[node]
            for child in succs[node]:
                mask |= 1 << child | reach[child]
            if mask != reach[node]:
                reach[node] = mask
                changed = cyclic
    return reach


def _bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_contention_certificate(
    certificate: ContentionCertificate, htg, function
) -> AnalysisReport:
    """Re-prove every excluded contender pair ordered or address-disjoint.

    Sharers own the low bits of every mask in sorted order (the other
    mapped tasks follow), so per task the checked, excluded and ordered
    pairs are popcounts, and only excluded pairs that are not ordered and
    name a common shared array are compared window by window, in sharer
    order -- the order a pair-by-pair scan reports refutations in.
    """
    report = AnalysisReport("certify_contention")
    cert = certificate

    def fail(code: str, message: str, subject: str = "", severity: str = "error"):
        report.add(
            Finding(
                code=code,
                message=message,
                function=cert.function_name,
                subject=subject,
                severity=severity,
            )
        )

    if function.name != cert.function_name:
        fail(
            "certify.contention.coverage",
            f"certificate was built for function {cert.function_name!r}, "
            f"checked against {function.name!r}",
        )
        return report
    unknown = sorted(
        {o for others in cert.allowed.values() for o in others} - set(cert.mapping)
    )
    if unknown:
        fail(
            "certify.contention.coverage",
            f"skeleton names unmapped task(s) {', '.join(unknown)}",
        )
        return report

    sharers = sorted(tid for tid in cert.mapping if cert.shared.get(tid, 0) > 0)
    tasks = sorted(cert.mapping)
    index = {tid: i for i, tid in enumerate(sharers)}
    for tid in tasks:
        index.setdefault(tid, len(index))
    related = _related_masks(htg, index)
    all_sharers = (1 << len(sharers)) - 1
    on_core: dict[int, int] = {}
    for i, tid in enumerate(sharers):
        core = cert.mapping[tid]
        on_core[core] = on_core.get(core, 0) | 1 << i

    # array name -> sharers whose windows name it; a sharer missing from the
    # HTG has no windows and so can never be proved disjoint
    shared_names = _shared_array_names(function)
    bounds: dict[str, dict] = {}
    by_array: dict[str, int] = {}
    missing = 0
    for i, tid in enumerate(sharers):
        if tid not in htg.tasks:
            missing |= 1 << i
            continue
        bounds[tid] = _task_access_bounds(function, htg.tasks[tid], shared_names)
        for name in bounds[tid]:
            by_array[name] = by_array.get(name, 0) | 1 << i

    pairs_checked = exclusions = 0
    for tid in tasks:
        if tid not in htg.tasks:
            fail(
                "certify.contention.coverage",
                f"mapped task {tid!r} is not in the HTG",
                subject=tid,
            )
            continue
        cross = all_sharers & ~on_core.get(cert.mapping[tid], 0)
        allowed = 0
        for other in cert.allowed.get(tid, ()):
            allowed |= 1 << index[other]
        excluded = cross & ~allowed
        pairs_checked += cross.bit_count()
        exclusions += excluded.bit_count()
        ordered = excluded & related[index[tid]]
        rest = excluded & ~ordered
        disjoint = rest
        if rest:
            if tid not in bounds:
                bounds[tid] = _task_access_bounds(
                    function, htg.tasks[tid], shared_names
                )
            own = bounds[tid]
            touching = missing
            for name in own:
                touching |= by_array.get(name, 0)
            for i in _bits(rest & touching):
                other = sharers[i]
                if not missing >> i & 1 and _bounds_disjoint(own, bounds[other]):
                    continue
                disjoint ^= 1 << i
                fail(
                    "certify.contention.unjustified-exclusion",
                    f"the skeleton excludes sharer {other!r} from task {tid!r}'s "
                    "contenders, but the pair is neither dependence-ordered nor "
                    "provably footprint-disjoint",
                    subject=f"{tid}<->{other}",
                )
        # first pair first, so ``checked`` keys appear as a pair scan adds them
        for _, counter, mask in sorted(
            (
                (ordered & -ordered, "exclusions_ordered", ordered),
                (disjoint & -disjoint, "exclusions_disjoint", disjoint),
            )
        ):
            if mask:
                report.bump(counter, mask.bit_count())
    report.bump("pairs_checked", pairs_checked)
    report.bump("exclusions_checked", exclusions)
    return report
