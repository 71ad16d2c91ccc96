"""The bitset reachability primitive and the pair analyses built on it.

* :class:`~repro.utils.graphs.Reachability` agrees with brute-force BFS on
  random DAGs (isolated nodes, duplicate edges) and rejects cycles;
* ``topological_order`` keeps its lexicographic-on-``str`` order;
* ``compute_static_mhp`` and ``incremental_race_check`` return exactly what
  the O(n^2) pair loops they replaced return -- those loops live on below,
  in this file only, as oracles;
* both schedule validators raise the same first misordered pair;
* no ``repro`` module imports networkx, and every third-party module the
  package imports is a dependency ``pyproject.toml`` declares.
"""

import importlib.metadata
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.footprints import default_footprint_store, footprints_address_disjoint
from repro.analysis.races import SHARED_STORAGE, _scan_pair, incremental_race_check
from repro.analysis.report import AnalysisReport
from repro.analysis.static_mhp import compute_static_mhp
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir.statements import Block
from repro.parallel.model import CoreProgram, ParallelProgram
from repro.scheduling.schedule import Schedule, ScheduleError, default_core_order
from repro.usecases.workloads import random_pipeline_diagram
from repro.utils.graphs import Reachability, is_acyclic, topological_order


# ---------------------------------------------------------------------- #
# brute-force references
# ---------------------------------------------------------------------- #
def bfs_closure(nodes, edges):
    """Set of (u, v) with v reachable from u by one or more edges."""
    succ = {n: set() for n in nodes}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
        succ.setdefault(v, set())
    closure = set()
    for start in succ:
        stack, seen = list(succ[start]), set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(succ[node])
    return closure


def random_dag(rng, n, density):
    """Edges go from lower to higher rank; ranks are shuffled names."""
    names = [f"n{i}" for i in range(n)]
    rng.shuffle(names)
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    if edges:
        edges += rng.sample(edges, min(3, len(edges)))  # duplicates
    listed = names[:]
    rng.shuffle(listed)
    return listed, edges


class TestReachabilityPrimitive:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bfs_on_random_dags(self, seed):
        rng = random.Random(seed)
        nodes, edges = random_dag(rng, rng.randint(1, 40), rng.choice([0.0, 0.05, 0.2, 0.6]))
        # isolated nodes, and endpoints only known from the edge list
        listed = nodes[: len(nodes) // 2] + ["isolated_a", "isolated_b"]
        reach = Reachability(listed, edges)
        nodes = set(listed) | {n for edge in edges for n in edge}
        closure = bfs_closure(nodes, edges)
        assert set(reach.nodes) == nodes
        assert list(reach.nodes[: len(listed)]) == listed
        for u in nodes:
            desc = set(reach.members(reach.descendants(u)))
            anc = set(reach.members(reach.ancestors(u)))
            assert desc == {v for (x, v) in closure if x == u}
            assert anc == {x for (x, v) in closure if v == u}
            assert set(reach.members(reach.related(u))) == desc | anc
            for v in nodes:
                assert reach.reaches(u, v) == ((u, v) in closure)
        assert reach.descendants("isolated_a") == reach.ancestors("isolated_a") == 0

    def test_cycle_raises(self):
        with pytest.raises(ValueError):
            Reachability(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(ValueError):
            Reachability(["a"], [("a", "a")])
        assert not is_acyclic([("a", "b"), ("b", "c"), ("c", "a")])

    def test_mask_and_members_follow_node_order(self):
        reach = Reachability(["c", "a", "b"], [("a", "b")])
        assert reach.mask(["a", "c"]) == 0b011
        assert reach.members(0b111) == ["c", "a", "b"]

    @pytest.mark.parametrize("seed", range(6))
    def test_first_misordered_matches_pair_loop(self, seed):
        rng = random.Random(100 + seed)
        nodes, edges = random_dag(rng, 25, 0.15)
        closure = bfs_closure(nodes, edges)
        reach = Reachability(nodes, edges)
        for _ in range(20):
            sequence = rng.sample(nodes, rng.randint(0, len(nodes))) + ["unknown"]
            expected = next(
                (
                    (a, b)
                    for i, a in enumerate(sequence)
                    for b in sequence[i + 1:]
                    if (b, a) in closure
                ),
                None,
            )
            assert reach.first_misordered(sequence) == expected


class TestTopologicalOrder:
    def test_hand_computed_lexicographic_order(self):
        # ready at start: b, d (a waits for d, c for a and b); "b" < "d"
        order = topological_order(
            ["b", "a", "d", "c"], [("b", "c"), ("a", "c"), ("d", "a")]
        )
        assert order == ["b", "d", "a", "c"]

    def test_ties_compare_str_then_first_seen(self):
        assert topological_order([9, 10], []) == [10, 9]  # "10" < "9"
        assert topological_order([1, "1"], []) == [1, "1"]
        assert topological_order(["1", 1], []) == ["1", 1]
        # endpoints known only from edges come after the listed nodes
        assert topological_order(["z"], [("y", "x")]) == ["y", "x", "z"]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_when_installed(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(200 + seed)
        nodes, edges = random_dag(rng, 30, 0.1)
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        assert topological_order(nodes, edges) == list(
            nx.lexicographical_topological_sort(graph, key=str)
        )


# ---------------------------------------------------------------------- #
# oracles: the pair loops compute_static_mhp / incremental_race_check ran
# before the bitset rewrite
# ---------------------------------------------------------------------- #
def oracle_static_mhp(htg, function, mapping, sharers=None, use_footprints=True):
    store = default_footprint_store()
    leaf_ids = [t.task_id for t in htg.leaf_tasks() if t.task_id in mapping]
    if sharers is None:
        sharers = [
            t.task_id
            for t in htg.leaf_tasks()
            if t.task_id in mapping and t.total_shared_accesses > 0
        ]
    if all(e.src in mapping and e.dst in mapping for e in htg.edges):
        ordered = bfs_closure(htg.tasks.keys(), htg.edge_pairs())
    else:
        ordered = bfs_closure(
            set(mapping),
            [(e.src, e.dst) for e in htg.edges if e.src in mapping and e.dst in mapping],
        )
    footprints = {}
    if use_footprints:
        for tid in leaf_ids:
            footprints[tid] = store.footprint(function, htg.task(tid))
    allowed = {}
    candidate = same_core = pruned_ordered = pruned_disjoint = kept = 0
    for tid in leaf_ids:
        keep = []
        for other in sorted(sharers):
            if other == tid:
                continue
            candidate += 1
            if mapping[other] == mapping[tid]:
                same_core += 1
                continue
            if (tid, other) in ordered or (other, tid) in ordered:
                pruned_ordered += 1
                continue
            if use_footprints and footprints_address_disjoint(
                footprints[tid], footprints[other]
            ):
                pruned_disjoint += 1
                continue
            keep.append(other)
        kept += len(keep)
        allowed[tid] = tuple(keep)
    counters = {
        "candidate_pairs": candidate,
        "pruned_same_core": same_core,
        "pruned_ordered": pruned_ordered,
        "pruned_disjoint": pruned_disjoint,
        "kept_pairs": kept,
    }
    return allowed, counters


def _oracle_scan(a, b, ordered, shared_names, mapping, function, report, footprint_of):
    report.bump("pairs_checked")
    if (a.task_id, b.task_id) in ordered or (b.task_id, a.task_id) in ordered:
        report.bump("pairs_ordered")
        return
    if not (
        a.writes & b.writes & shared_names
        or (a.writes & b.reads | a.reads & b.writes) & shared_names
    ):
        report.bump("pairs_disjoint")
        return
    _scan_pair(a, b, shared_names, mapping, function, report, footprint_of)


def oracle_race_check(htg, mapping, order, function, prev_findings=None, changed=None):
    """The pre-bitset scan; ``changed`` selects the skip-clean-pairs path."""
    report = AnalysisReport("race_checker")
    shared_names = frozenset(
        d.name for d in function.all_decls() if d.storage in SHARED_STORAGE
    )
    store = default_footprint_store()

    def footprint_of(task):
        return store.footprint(function, task)

    tasks = [t for t in htg.leaf_tasks() if t.task_id in mapping]
    report.bump("tasks", len(tasks))
    report.bump("shared_variables", len(shared_names))
    happens_before = set(htg.edge_pairs())
    for core_tasks in order.values():
        happens_before.update(zip(core_tasks, core_tasks[1:]))
    ordered = bfs_closure(htg.tasks.keys(), happens_before)
    args = (ordered, shared_names, mapping, function, report, footprint_of)
    if changed is None:
        for i, a in enumerate(tasks):
            for b in tasks[i + 1:]:
                _oracle_scan(a, b, *args)
        return report
    report.bump("closure_reused")
    index = {t.task_id: i for i, t in enumerate(tasks)}
    for a in tasks:
        if a.task_id not in changed:
            continue
        ia = index[a.task_id]
        for b in tasks:
            if b.task_id == a.task_id:
                continue
            ib = index[b.task_id]
            if b.task_id in changed and ib < ia:
                continue
            first, second = (b, a) if ib < ia else (a, b)
            _oracle_scan(first, second, *args)
    total = len(tasks) * (len(tasks) - 1) // 2
    report.bump("pairs_reused", total - report.checked.get("pairs_checked", 0))
    for finding in prev_findings:
        a_id, _, b_id = finding.subject.partition("<->")
        if a_id not in changed and b_id not in changed:
            report.add(replace(finding, provenance="reused"))
    return report


# ---------------------------------------------------------------------- #
# seeded workloads
# ---------------------------------------------------------------------- #
def seeded_case(seed, chunks=3, drop_edges=0.0, cores=4):
    """A loop-granularity HTG (sibling chunks) of a random pipeline diagram,
    optionally with a share of its dependence edges dropped to seed races."""
    model = compile_diagram(random_pipeline_diagram(5, 3, 16, seed=seed))
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    rng = random.Random(seed)
    if drop_edges:
        thinned = HierarchicalTaskGraph(htg.name)
        for task in htg.tasks.values():
            thinned.add_task(task)
        for e in htg.edges:
            if rng.random() >= drop_edges:
                thinned.add_edge(e.src, e.dst, e.payload_bytes, e.variables)
        htg = thinned
    mapping = {t.task_id: rng.randrange(cores) for t in htg.leaf_tasks()}
    return model, htg, mapping, rng


class TestStaticMhpMatchesPairLoop:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("use_footprints", [True, False])
    def test_full_mapping(self, seed, use_footprints):
        model, htg, mapping, _ = seeded_case(seed)
        relation = compute_static_mhp(
            htg, model.entry, mapping, use_footprints=use_footprints
        )
        allowed, counters = oracle_static_mhp(
            htg, model.entry, mapping, use_footprints=use_footprints
        )
        assert relation.allowed == allowed
        assert relation.as_dict() == counters
        assert counters["pruned_ordered"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_explicit_sharers_and_unmapped_edges(self, seed):
        model, htg, mapping, rng = seeded_case(seed, chunks=2)
        # unmapping tasks drops the edges touching them from the closure
        for tid in rng.sample(sorted(mapping), 4):
            del mapping[tid]
        assert any(e.src not in mapping or e.dst not in mapping for e in htg.edges)
        sharers = rng.sample(sorted(mapping), len(mapping) // 2)
        for use_footprints in (True, False):
            relation = compute_static_mhp(
                htg, model.entry, mapping, sharers=sharers, use_footprints=use_footprints
            )
            allowed, counters = oracle_static_mhp(
                htg, model.entry, mapping, sharers=sharers, use_footprints=use_footprints
            )
            assert relation.allowed == allowed
            assert relation.as_dict() == counters


class TestRaceCheckMatchesPairLoop:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("drop_edges", [0.0, 0.3])
    def test_cold(self, seed, drop_edges):
        model, htg, mapping, _ = seeded_case(seed, drop_edges=drop_edges)
        order = default_core_order(htg, mapping)
        report, _ = incremental_race_check(htg, mapping, order, model.entry)
        expected = oracle_race_check(htg, mapping, order, model.entry)
        assert report.findings == expected.findings
        assert report.checked == expected.checked
        if drop_edges:
            assert report.findings

    @pytest.mark.parametrize("seed", range(5))
    def test_skip_clean_pairs(self, seed):
        model, htg, mapping, rng = seeded_case(seed, drop_edges=0.3)
        order = default_core_order(htg, mapping)
        first, state = incremental_race_check(htg, mapping, order, model.entry)
        for changed in (set(), set(rng.sample(sorted(mapping), 5)), set(mapping)):
            report, _ = incremental_race_check(
                htg, mapping, order, model.entry, prev_state=state, changed_tasks=changed
            )
            expected = oracle_race_check(
                htg, mapping, order, model.entry,
                prev_findings=first.findings, changed=changed,
            )
            assert report.findings == expected.findings
            assert report.checked == expected.checked

    def test_chunk_siblings_reach_the_footprint_proof(self):
        model, htg, mapping, _ = seeded_case(0, chunks=4)
        order = default_core_order(htg, mapping)
        report, _ = incremental_race_check(htg, mapping, order, model.entry)
        assert report.checked.get("chunk_pairs_proved_disjoint", 0) > 0
        assert report.checked == oracle_race_check(htg, mapping, order, model.entry).checked


# ---------------------------------------------------------------------- #
# validators: same first violating pair and message
# ---------------------------------------------------------------------- #
def oracle_first_violation(htg, sequence):
    closure = bfs_closure(htg.tasks.keys(), htg.edge_pairs())
    for i, a in enumerate(sequence):
        for b in sequence[i + 1:]:
            if (b, a) in closure:
                return a, b
    return None


class TestValidatorsReportTheFirstMisorderedPair:
    def _misordered(self, seed):
        model, htg, mapping, rng = seeded_case(seed, chunks=2, cores=2)
        order = default_core_order(htg, mapping)
        for tids in order.values():
            rng.shuffle(tids)
        return htg, mapping, order

    @pytest.mark.parametrize("seed", range(4))
    def test_schedule_validate(self, seed):
        htg, mapping, order = self._misordered(seed)
        platform = generic_predictable_multicore(cores=2)
        expected = None
        for core, tids in order.items():
            pair = oracle_first_violation(htg, tids)
            if pair is not None:
                expected = f"core {core}: order places {pair[0]!r} before its dependency {pair[1]!r}"
                break
        assert expected is not None
        with pytest.raises(ScheduleError) as excinfo:
            Schedule(htg.name, mapping, order).validate(htg, platform)
        assert str(excinfo.value) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_program_validate(self, seed):
        htg, mapping, order = self._misordered(seed)
        programs = {core: CoreProgram(core, list(tids)) for core, tids in order.items()}
        program = ParallelProgram(
            "p", programs, [], {}, Schedule(htg.name, mapping, order), "platform"
        )
        expected = None
        for cp in programs.values():
            pair = oracle_first_violation(htg, cp.task_ids())
            if pair is not None:
                expected = f"core {cp.core_id}: task {pair[0]!r} ordered before its dependence {pair[1]!r}"
                break
        with pytest.raises(ValueError) as excinfo:
            program.validate(htg)
        assert str(excinfo.value) == expected

    def test_hand_built_chain(self):
        htg = HierarchicalTaskGraph("chain")
        for tid in ("a", "b", "c", "d"):
            htg.add_task(Task(tid, TaskKind.BLOCK, Block()))
        htg.add_edge("a", "b")
        htg.add_edge("b", "c")
        platform = generic_predictable_multicore(cores=2)
        mapping = {"a": 0, "b": 0, "c": 0, "d": 1}
        # d is unrelated; c before b is the first violation, then c before a
        order = {1: ["d"], 0: ["c", "a", "b"]}
        with pytest.raises(ScheduleError, match=r"core 0: order places 'c' before its dependency 'a'"):
            Schedule("chain", mapping, order).validate(htg, platform)
        Schedule("chain", mapping, {1: ["d"], 0: ["a", "b", "c"]}).validate(htg, platform)


# ---------------------------------------------------------------------- #
# dependency hygiene
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def repro_imports():
    """Import every ``repro.*`` module in a fresh interpreter and report what
    loaded: the module count, whether networkx is in ``sys.modules``, and
    the top-level names repro's own import statements pulled in from
    outside the standard library (what the declared packages load in turn
    is theirs to declare)."""
    script = (
        "import builtins, importlib, json, pkgutil, sys\n"
        "real_import = builtins.__import__\n"
        "direct = set()\n"
        "def spy(name, globals=None, locals=None, fromlist=(), level=0):\n"
        "    if level == 0 and (globals or {}).get('__name__', '').startswith('repro'):\n"
        "        direct.add(name.partition('.')[0])\n"
        "    return real_import(name, globals, locals, fromlist, level)\n"
        "builtins.__import__ = spy\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "third_party = sorted(direct - set(sys.stdlib_module_names) - {'repro'})\n"
        "print(json.dumps({'modules': len(names), 'networkx': 'networkx' in sys.modules,\n"
        "                  'third_party': third_party}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_no_repro_module_imports_networkx(repro_imports):
    assert repro_imports["modules"] > 50, repro_imports
    assert not repro_imports["networkx"], "networkx imported"


def _distribution_name(requirement):
    """``"scipy>=1.8 ; python_version..."`` -> ``"scipy"`` (PEP 503 normalised)."""
    name = re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_third_party_module_repro_imports_is_declared(repro_imports):
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    declared = {_distribution_name(dep) for dep in project["dependencies"]}
    owners = importlib.metadata.packages_distributions()
    assert repro_imports["third_party"], "the import spy saw no third-party import"
    for module in repro_imports["third_party"]:
        dists = {_distribution_name(d) for d in owners.get(module, ())}
        assert dists & declared, (
            f"repro imports {module!r} (distribution {sorted(dists) or 'unknown'}), "
            f"which pyproject.toml does not declare ({sorted(declared)})"
        )
