"""The certificate chain's array-indexed checks against the loops they replaced.

* ``check_contention_certificate`` (bitset closure, array-name -> sharer
  index) reports the same findings, in the same order, and the same
  ``checked`` counters, key order included, as the pair-by-pair scan over a
  per-root BFS closure it replaced -- that scan lives on below, in this
  file only, as the oracle.  Cases are seeded ``random_pipeline_diagram``
  HTGs with 1, 3 and 6 loop chunks, honest and tampered (emptied or deleted
  ``allowed`` entries, dropped edges, a reversed edge closing a cycle, tasks
  moved to another core, a task removed from the HTG);
* the IPET LP built from sparse per-edge incidence gives the same
  ``wcet``, edge and block counts and duals as the dense block x edge
  builder it replaced, and the certificate checker accepts it;
* the contention checker stays independent of the producers it checks.
"""

import ast
import copy
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis import derive_flow_facts
from repro.analysis.certify import (
    build_contention_certificate,
    build_ipet_certificate,
    check_contention_certificate,
    check_ipet_certificate,
)
from repro.analysis.certify import contention_cert
from repro.analysis.certify.contention_cert import (
    _bounds_disjoint,
    _shared_array_names,
    _task_access_bounds,
)
from repro.analysis.report import AnalysisReport, Finding
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.ir.cfg import BasicBlock, CFGEdge, ControlFlowGraph
from repro.scheduling.schedule import default_core_order
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import random_pipeline_diagram
from repro.wcet import HardwareCostModel, annotate_htg_wcets, ipet, system_level_wcet


# ---------------------------------------------------------------------- #
# contention checker oracle: the pair loop over a per-root BFS closure
# ---------------------------------------------------------------------- #
def oracle_reachable_pairs(htg, mapping):
    succs = {}
    for edge in htg.edges:
        if edge.src in mapping and edge.dst in mapping:
            succs.setdefault(edge.src, []).append(edge.dst)
    pairs = set()
    for root in mapping:
        frontier = list(succs.get(root, ()))
        seen = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            pairs.add((root, node))
            frontier.extend(succs.get(node, ()))
    return pairs


def oracle_contention_check(cert, htg, function):
    report = AnalysisReport("certify_contention")

    def fail(code, message, subject=""):
        report.add(Finding(code=code, message=message, function=cert.function_name, subject=subject))

    if function.name != cert.function_name:
        fail(
            "certify.contention.coverage",
            f"certificate was built for function {cert.function_name!r}, "
            f"checked against {function.name!r}",
        )
        return report
    unknown = sorted({o for others in cert.allowed.values() for o in others} - set(cert.mapping))
    if unknown:
        fail("certify.contention.coverage", f"skeleton names unmapped task(s) {', '.join(unknown)}")
        return report

    ordered = oracle_reachable_pairs(htg, cert.mapping)
    shared_names = _shared_array_names(function)
    sharers = sorted(tid for tid in cert.mapping if cert.shared.get(tid, 0) > 0)
    bounds = {}

    def bounds_of(tid):
        if tid not in bounds:
            try:
                task = htg.task(tid)
            except KeyError:
                return None
            bounds[tid] = _task_access_bounds(function, task, shared_names)
        return bounds[tid]

    pairs_checked = exclusions = 0
    for tid in sorted(cert.mapping):
        if tid not in htg.tasks:
            fail("certify.contention.coverage", f"mapped task {tid!r} is not in the HTG", subject=tid)
            continue
        allowed_here = set(cert.allowed.get(tid, ()))
        for other in sharers:
            if other == tid or cert.mapping[other] == cert.mapping[tid]:
                continue
            pairs_checked += 1
            if other in allowed_here:
                continue
            exclusions += 1
            if (tid, other) in ordered or (other, tid) in ordered:
                report.bump("exclusions_ordered")
                continue
            fa = bounds_of(tid)
            fb = bounds_of(other)
            if fa is not None and fb is not None and _bounds_disjoint(fa, fb):
                report.bump("exclusions_disjoint")
                continue
            fail(
                "certify.contention.unjustified-exclusion",
                f"the skeleton excludes sharer {other!r} from task {tid!r}'s "
                "contenders, but the pair is neither dependence-ordered nor "
                "provably footprint-disjoint",
                subject=f"{tid}<->{other}",
            )
    report.bump("pairs_checked", pairs_checked)
    report.bump("exclusions_checked", exclusions)
    return report


# ---------------------------------------------------------------------- #
# seeded pruned design points and their tampered variants
# ---------------------------------------------------------------------- #
CORES = 3


@lru_cache(maxsize=None)
def pruned_case(seed, chunks, shape=(4, 3, 8)):
    """A random mapping of a loop-granularity HTG, its pruned certificate."""
    model = compile_diagram(random_pipeline_diagram(*shape, seed=seed))
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=CORES)
    annotate_htg_wcets(htg, model.entry, HardwareCostModel(platform, 0))
    rng = random.Random(seed)
    mapping = {t.task_id: rng.randrange(CORES) for t in htg.leaf_tasks() if not t.is_synthetic}
    order = default_core_order(htg, mapping)
    result = system_level_wcet(
        htg, model.entry, platform, mapping, order, static_pruning=True
    )
    return model.entry, htg, build_contention_certificate(result, htg, model.entry)


def _with_edges(htg, edges):
    return HierarchicalTaskGraph(htg.name, dict(htg.tasks), list(edges))


def tamper(kind, htg, cert, rng):
    cert = copy.deepcopy(cert)
    tids = sorted(cert.mapping)
    sharers = [tid for tid in tids if cert.shared.get(tid, 0) > 0]
    if kind == "empty-allowed":
        for tid in rng.sample(tids, max(1, len(tids) // 3)):
            cert.allowed[tid] = []
    elif kind == "delete-allowed":
        for tid in rng.sample(tids, max(1, len(tids) // 3)):
            cert.allowed.pop(tid, None)
    elif kind == "drop-edges":
        htg = _with_edges(htg, [e for e in htg.edges if rng.random() >= 0.1])
    elif kind == "reversed-edge":
        mapped = [e for e in htg.edges if e.src in cert.mapping and e.dst in cert.mapping]
        edge = rng.choice(mapped)
        htg = _with_edges(htg, htg.edges + [TaskEdge(edge.dst, edge.src)])
    elif kind == "moved-tasks":
        for tid in rng.sample(sharers, max(1, len(sharers) // 3)):
            cert.mapping[tid] = (cert.mapping[tid] + 1) % CORES
    elif kind == "task-not-in-htg":
        tid = rng.choice(sharers)
        tasks = {k: v for k, v in htg.tasks.items() if k != tid}
        htg = HierarchicalTaskGraph(htg.name, tasks, list(htg.edges))
    else:
        assert kind == "honest", kind
    return htg, cert


TAMPERS = [
    "honest",
    "empty-allowed",
    "delete-allowed",
    "drop-edges",
    "reversed-edge",
    "moved-tasks",
    "task-not-in-htg",
]


def assert_same_report(cert, htg, function):
    report = check_contention_certificate(cert, htg, function)
    expected = oracle_contention_check(cert, htg, function)
    assert report.findings == expected.findings
    assert list(report.checked.items()) == list(expected.checked.items())
    return report


class TestContentionCheckerMatchesPairLoop:
    @pytest.mark.parametrize("kind", TAMPERS)
    @pytest.mark.parametrize("chunks", [1, 3, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_cases(self, seed, chunks, kind):
        function, htg, cert = pruned_case(seed, chunks)
        htg, cert = tamper(kind, htg, cert, random.Random(seed * 31 + chunks))
        report = assert_same_report(cert, htg, function)
        if kind in ("honest", "reversed-edge"):
            assert report.ok, report.summary()
            assert report.checked["exclusions_checked"] > 0

    @pytest.mark.parametrize("kind", TAMPERS[1:])
    def test_every_tamper_is_refuted_somewhere(self, kind):
        # the equality above is only telling if tampering changes verdicts
        codes = set()
        for seed in range(3):
            for chunks in (1, 3, 6):
                function, htg, cert = pruned_case(seed, chunks)
                htg, cert = tamper(kind, htg, cert, random.Random(seed * 31 + chunks))
                codes |= {f.code for f in check_contention_certificate(cert, htg, function).findings}
        if kind == "reversed-edge":
            assert not codes  # a cycle only adds orderings
        elif kind == "task-not-in-htg":
            assert "certify.contention.coverage" in codes
        else:
            assert "certify.contention.unjustified-exclusion" in codes

    def test_larger_diagram(self):
        function, htg, cert = pruned_case(7, 3, shape=(8, 4, 16))
        rng = random.Random(7)
        for kind in TAMPERS:
            tampered_htg, tampered = tamper(kind, htg, cert, rng)
            assert_same_report(tampered, tampered_htg, function)

    def test_a_cycle_orders_its_members_with_each_other(self):
        # a -> b -> c -> a on three cores: every excluded pair is ordered
        function, htg, cert = pruned_case(0, 1)
        sharers = sorted(t for t in cert.mapping if cert.shared.get(t, 0) > 0)
        a, b, c = sharers[:3]
        mapping = dict(cert.mapping, **{a: 0, b: 1, c: 2})
        cycle = [TaskEdge(a, b), TaskEdge(b, c), TaskEdge(c, a)]
        cert = copy.deepcopy(cert)
        cert.mapping = mapping
        cert.allowed = {tid: [] for tid in mapping}
        report = assert_same_report(cert, _with_edges(htg, cycle), function)
        assert report.checked["exclusions_ordered"] >= 6

    def test_mismatched_function_and_unknown_names(self):
        function, htg, cert = pruned_case(1, 3)
        other = copy.deepcopy(cert)
        other.function_name = "elsewhere"
        assert_same_report(other, htg, function)
        ghost = copy.deepcopy(cert)
        ghost.allowed[sorted(ghost.allowed)[0]] = ["ghost"]
        assert_same_report(ghost, htg, function)


def test_contention_checker_imports_no_producer_module():
    source = Path(contention_cert.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    producers = (
        "repro.utils.graphs",
        "repro.analysis.static_mhp",
        "repro.analysis.footprints",
        "repro.analysis.value_range",
    )
    offending = sorted(
        name for name in imported for p in producers if name == p or name.startswith(p + ".")
    )
    assert not offending, offending
    assert "repro.analysis.report" in imported  # the walk does see imports


# ---------------------------------------------------------------------- #
# IPET oracle: the dense block x edge builder
# ---------------------------------------------------------------------- #
def dense_constraint_matrices(cfg, loop_bounds):
    edges = cfg.edges
    index = {edge.key: i for i, edge in enumerate(edges)}
    a_eq_rows, b_eq = [], []
    for block in cfg.blocks:
        if block is cfg.entry or block is cfg.exit:
            continue
        row = np.zeros(len(edges))
        for edge in edges:
            if edge.dst is block:
                row[index[edge.key]] += 1.0
            if edge.src is block:
                row[index[edge.key]] -= 1.0
        a_eq_rows.append(row)
        b_eq.append(0.0)
    row = np.zeros(len(edges))
    for edge in edges:
        if edge.src is cfg.entry:
            row[index[edge.key]] += 1.0
    a_eq_rows.append(row)
    b_eq.append(1.0)
    row = np.zeros(len(edges))
    for edge in edges:
        if edge.dst is cfg.exit:
            row[index[edge.key]] += 1.0
    a_eq_rows.append(row)
    b_eq.append(1.0)
    a_ub_rows = []
    for header_bid, bound in loop_bounds.items():
        header = cfg.block_by_id(header_bid)
        row = np.zeros(len(edges))
        for edge in edges:
            if edge.dst is header and edge.kind == "back":
                row[index[edge.key]] += 1.0
            elif edge.dst is header:
                row[index[edge.key]] -= float(bound)
        a_ub_rows.append(row)
    return (
        np.array(a_eq_rows),
        np.array(b_eq),
        np.array(a_ub_rows).reshape(len(a_ub_rows), len(edges)),
        np.zeros(len(a_ub_rows)),
    )


def ipet_functions():
    functions = {name: compile_diagram(build()).entry for name, (build, _) in ALL_USECASES.items()}
    for seed in range(3):
        functions[f"random{seed}"] = compile_diagram(
            random_pipeline_diagram(4, 3, 8, seed=seed)
        ).entry
    return functions


IPET_FUNCTIONS = ipet_functions()


@pytest.fixture(scope="module")
def cost_model():
    platform = generic_predictable_multicore()
    return HardwareCostModel(platform, platform.cores[0].core_id)


class TestSparseIpetMatchesDenseBuilder:
    @pytest.mark.parametrize("with_facts", [False, True])
    @pytest.mark.parametrize("name", sorted(IPET_FUNCTIONS))
    def test_identical_result(self, name, with_facts, cost_model, monkeypatch):
        function = IPET_FUNCTIONS[name]
        facts = derive_flow_facts(function)[0] if with_facts else None
        sparse = ipet.ipet_wcet(function, cost_model, facts)

        a_eq, b_eq, a_ub, b_ub = ipet._constraint_matrices(sparse.cfg, sparse.loop_bounds)
        d_eq, db_eq, d_ub, db_ub = dense_constraint_matrices(sparse.cfg, sparse.loop_bounds)
        assert np.array_equal(a_eq.toarray(), d_eq) and np.array_equal(b_eq, db_eq)
        assert np.array_equal(a_ub.toarray(), d_ub) and np.array_equal(b_ub, db_ub)
        assert a_eq.nnz == np.count_nonzero(d_eq) and a_ub.nnz == np.count_nonzero(d_ub)

        monkeypatch.setattr(ipet, "_constraint_matrices", dense_constraint_matrices)
        dense = ipet.ipet_wcet(function, cost_model, facts)
        assert sparse.wcet == dense.wcet
        assert sparse.edge_counts == dense.edge_counts
        assert sparse.block_counts == dense.block_counts
        assert sparse.duals == dense.duals and sparse.duals is not None
        assert sparse.loop_bounds == dense.loop_bounds
        assert sparse.infeasible_edges == dense.infeasible_edges
        report = check_ipet_certificate(
            build_ipet_certificate(sparse, function.name), function=function
        )
        assert report.ok, report.summary()

    def test_self_loop_incidences_cancel(self):
        # a header whose back edge is a self loop: the +1/-1 flow incidences
        # sum to an explicit zero, which the dense matrix never stores
        entry, head, leave = BasicBlock(0), BasicBlock(1), BasicBlock(2)
        cfg = ControlFlowGraph(
            "spin",
            blocks=[entry, head, leave],
            edges=[
                CFGEdge(entry, head),
                CFGEdge(head, head, "back"),
                CFGEdge(head, leave, "exit"),
            ],
            entry=entry,
            exit=leave,
        )
        a_eq, b_eq, a_ub, b_ub = ipet._constraint_matrices(cfg, {1: 4})
        d_eq, db_eq, d_ub, db_ub = dense_constraint_matrices(cfg, {1: 4})
        assert np.array_equal(a_eq.toarray(), d_eq) and np.array_equal(a_ub.toarray(), d_ub)
        assert a_eq.nnz == np.count_nonzero(d_eq) == 4
        assert a_ub.toarray().tolist() == [[-4.0, 1.0, 0.0]]
