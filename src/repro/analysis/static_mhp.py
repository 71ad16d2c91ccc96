"""Schedule-independent static may-happen-in-parallel pruning.

The system-level fixed point re-derives contender sets from the task
windows on *every* iteration, treating any pair of time-overlapping tasks
on distinct cores as interfering.  Two classes of pairs can be excluded
once, statically, before the iteration starts:

* **Ordered pairs.**  A transitive HTG dependence forces ``finish(u) <=
  start(v)`` in every timeline the builder can produce (edge delays are
  non-negative), so the half-open windows can never overlap.  Excluding
  these pairs cannot change any contender count -- it is a pure speedup.
* **Address-disjoint pairs.**  Tasks whose shared-array footprints
  (:mod:`repro.analysis.footprints`) touch no common element generate no
  interference on an interconnect with address-aware (banked)
  arbitration.  Excluding them can only *lower* contender counts, so the
  pruned bound is never looser than the unpruned one.  No platform preset
  has such an interconnect: ``RoundRobinBus`` charges every concurrent
  sharer and ``FullCrossbar`` assumes every contender targets one port,
  so there these exclusions are **not sound** -- the pruned bound can
  fall below a ``contention="dynamic"`` simulation of the same schedule
  (``random_pipeline_diagram(16, 8, 48, seed=5000)``, ``loop_chunks=6``,
  4 cores: bound 111114 cycles, makespan 116180, unpruned bound 147038).
  This is a known fault; pruning stays opt-in (``static_pruning``) and
  ``use_footprints=False`` keeps only the ordered exclusions.

The relation is *schedule-independent*: it uses only the dependence
closure and the footprints, never the candidate timeline, so one relation
serves every fixed-point iteration (and every warm restart) of a design
point.  Same-core pairs are also excluded from the skeleton -- the MHP
passes skip them anyway, so the pruned pair list starts strictly smaller.

Soundness of the ordering argument requires that every dependence the
closure uses is actually enforced by the timeline builder, which drops
edges touching unmapped tasks; the closure is therefore taken over the
mapped-task-induced subgraph (the whole HTG when every edge is mapped).

Cost.  The closure is one :class:`~repro.utils.graphs.Reachability` whose
low bits are the sharers in sorted order, so per task the same-core,
ordered and candidate counts are popcounts of a few masks.  An array-name
-> sharer-bitset index restricts the footprint comparison to unordered
cross-core pairs that name a common array; every other such pair touches
no common element and is counted address-disjoint without a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.footprints import (
    FootprintStore,
    TaskFootprint,
    default_footprint_store,
    footprints_address_disjoint,
    shared_declarations,
)
from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.program import Function
from repro.utils.graphs import Reachability


@dataclass(frozen=True)
class StaticMhpRelation:
    """Pruned contender skeleton: per task, the sharers that may contend.

    ``allowed[tid]`` lists the cross-core, unordered, non-address-disjoint
    sharers of ``tid`` -- the only tasks any MHP pass needs to test against
    ``tid``'s window.  Every leaf task has an entry (possibly empty).
    """

    allowed: dict[str, tuple[str, ...]]
    candidate_pairs: int
    pruned_same_core: int
    pruned_ordered: int
    pruned_disjoint: int
    kept_pairs: int
    footprints: dict[str, TaskFootprint] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "candidate_pairs": self.candidate_pairs,
            "pruned_same_core": self.pruned_same_core,
            "pruned_ordered": self.pruned_ordered,
            "pruned_disjoint": self.pruned_disjoint,
            "kept_pairs": self.kept_pairs,
        }


def compute_static_mhp(
    htg: HierarchicalTaskGraph,
    function: Function,
    mapping: dict[str, int],
    sharers: "list[str] | None" = None,
    store: FootprintStore | None = None,
    use_footprints: bool = True,
) -> StaticMhpRelation:
    """Compute the pruned contender skeleton for one design point.

    ``sharers`` (distinct task ids) defaults to every mapped leaf task with
    a non-zero declared shared-access count; the system-level analysis
    passes its code-level derivation instead so the two agree exactly.
    ``use_footprints=False`` restricts pruning to the (count-preserving)
    ordered pairs.
    """
    store = store if store is not None else default_footprint_store()
    leaf_ids = [t.task_id for t in htg.leaf_tasks() if t.task_id in mapping]
    if sharers is None:
        sharers = [
            t.task_id
            for t in htg.leaf_tasks()
            if t.task_id in mapping and t.total_shared_accesses > 0
        ]
    # Sharers own the low bits in sorted order, so a task's ordered sharers
    # are one mask and its kept list comes out sorted.  Only edges between
    # mapped tasks are enforced by the timeline builder, so the closure is
    # taken over the mapped-task-induced subgraph.
    ordered_sharers = sorted(sharers)
    reach = Reachability(
        ordered_sharers + list(mapping),
        [(e.src, e.dst) for e in htg.edges if e.src in mapping and e.dst in mapping],
    )
    all_sharers = (1 << len(ordered_sharers)) - 1
    on_core: dict[int, int] = {}
    for i, other in enumerate(ordered_sharers):
        on_core[mapping[other]] = on_core.get(mapping[other], 0) | 1 << i

    footprints: dict[str, TaskFootprint] = {}
    by_array: dict[str, int] = {}
    if use_footprints:
        declared = shared_declarations(function)
        for tid in leaf_ids:
            footprints[tid] = store.footprint(function, htg.task(tid), declared)
        for i, other in enumerate(ordered_sharers):
            fp = footprints[other]
            for name in fp.array_reads.keys() | fp.array_writes.keys():
                by_array[name] = by_array.get(name, 0) | 1 << i

    allowed: dict[str, tuple[str, ...]] = {}
    candidate = same_core = pruned_ordered = pruned_disjoint = kept = 0
    for tid in leaf_ids:
        own = reach.bit(tid) & all_sharers
        local = on_core.get(mapping[tid], 0)
        candidate += all_sharers.bit_count() - own.bit_count()
        same_core += (local & ~own).bit_count()
        cross = all_sharers & ~local
        unordered = cross & ~reach.related(tid)
        pruned_ordered += (cross & ~unordered).bit_count()
        if use_footprints:
            # pairs sharing no array name are address-disjoint outright
            fp = footprints[tid]
            sharing = 0
            for name in fp.array_reads.keys() | fp.array_writes.keys():
                sharing |= by_array.get(name, 0)
            keep = [
                other
                for other in reach.members(unordered & sharing)
                if not footprints_address_disjoint(fp, footprints[other])
            ]
            pruned_disjoint += unordered.bit_count() - len(keep)
        else:
            keep = reach.members(unordered)
        kept += len(keep)
        allowed[tid] = tuple(keep)
    return StaticMhpRelation(
        allowed=allowed,
        candidate_pairs=candidate,
        pruned_same_core=same_core,
        pruned_ordered=pruned_ordered,
        pruned_disjoint=pruned_disjoint,
        kept_pairs=kept,
        footprints=footprints,
    )
