"""The benchmark's three workloads and the per-op correctness checks.

An *op* is what a user of the flow waits on: one cold flow (``cold-large``),
one design point (``dse``) or one edit plus re-analysis (``edit``).  Ops run
in *rounds*; a round is the unit whose outputs repeat exactly (one op, one
grid pass, one editor session), so the run can stop at any round boundary
and the deterministic metrics, taken over the first ``fixed_rounds`` rounds,
never depend on how many rounds fitted in the time.

Only the op itself is timed.  Input generation, the reference runs and
every check happen outside the timed section; a failed check (or an op that
raises) is recorded on the op as a failure reason instead of aborting.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.adl.platforms import generic_predictable_multicore
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline, PipelineResult
from repro.model.diagram import Diagram
from repro.parallel.codegen import parallel_program_to_c
from repro.sim import simulate_parallel_program
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import EDIT_KINDS, random_edit_script, random_pipeline_diagram
from repro.utils.rng import make_rng
from repro.wcet.cache import WcetAnalysisCache

#: Timer hook: runs the op, returns (result, seconds).  The runner swaps in
#: one that also switches the layer clock and repro.obs on for traced ops.
Measure = Callable[[Callable[[], PipelineResult]], "tuple[PipelineResult, float]"]


#: Iterations of the host-speed probe, and the probe time in seconds that
#: op times are scaled to: a fixed constant, about the probe's time on the
#: 2 GHz Xeon (2 vCPUs, KVM) the benchmark was tuned on.
PROBE_LOOPS = 100_000
PROBE_REFERENCE_S = 0.008


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The benchmark shares its host: the same op, on the same input, can take
    twice as long from one second to the next when the host is loaded.  The
    probe, taken right before and after each op, slows down with it, so an
    op's time scaled by ``PROBE_REFERENCE_S`` / probe time reads what it
    would on an unloaded host."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, as it would
    read on a host where the probe takes ``PROBE_REFERENCE_S``."""
    return seconds * PROBE_REFERENCE_S / probe_s


def plain_measure(op: Callable[[], PipelineResult]) -> tuple[PipelineResult, float]:
    gc.collect()
    started = time.perf_counter()
    result = op()
    return result, time.perf_counter() - started


@dataclass
class Op:
    """What the runner keeps of one op (the PipelineResult is dropped)."""

    round: int
    label: str
    seconds: float
    #: mean host_probe time right before and right after the op
    probe_s: float = PROBE_REFERENCE_S
    failure: str | None = None
    bound: float | None = None
    speedup: float | None = None
    makespan: float | None = None
    identity: str | None = None
    cache_stats: dict[str, int] = field(default_factory=dict)
    incremental: dict[str, int] | None = None


def identity_digest(result: PipelineResult) -> str:
    """Digest of the bound, the mapping, the per-core order and the
    emitted C."""
    schedule = result.schedule
    payload = json.dumps(
        [
            repr(result.system_wcet),
            sorted(schedule.mapping.items()),
            sorted((core, list(tids)) for core, tids in schedule.order.items()),
            parallel_program_to_c(result.parallel_program, result.htg),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def seeded_inputs(diagram: Diagram, seed: int) -> dict[str, Any]:
    """Uniform random values for every external input of ``diagram``."""
    rng = make_rng(seed)
    values: dict[str, Any] = {}
    for block, port in diagram.external_inputs:
        shape = diagram.blocks[block].input_port(port).shape
        values[f"{block}.{port}"] = rng.uniform(-1.0, 1.0, size=shape if shape else ())
    return values


def check_result(
    op: Op, result: PipelineResult, diagram: Diagram, platform, inputs: dict[str, Any]
) -> list[str]:
    """The checks every op gets; returns the failed ones (empty = passed).

    * the generated parallel program, simulated on ``inputs``, computes the
      outputs the model-level reference ``Diagram.simulate`` computes;
    * its makespan under ``contention="dynamic"`` is at most the bound;
    * the certificate chain is accepted when the run certified.
    """
    problems: list[str] = []
    reference = diagram.simulate(steps=1, input_provider=inputs)[0]
    sim = simulate_parallel_program(
        result.parallel_program,
        result.htg,
        result.model.entry,
        platform,
        result.model.run_inputs(inputs),
        contention="dynamic",
    )
    op.makespan = sim.makespan
    for block, port in diagram.external_outputs:
        expected = np.asarray(reference[f"{block}.{port}"], dtype=float)
        got = np.asarray(sim.env[result.model.output_key(block, port)], dtype=float)
        if expected.shape != got.shape or not np.allclose(got, expected, rtol=1e-9, atol=1e-12):
            problems.append(f"output {block}.{port} differs from Diagram.simulate")
    if sim.makespan > result.system_wcet + 1e-6:
        problems.append(
            f"dynamic-contention makespan {sim.makespan:.0f} > bound {result.system_wcet:.0f}"
        )
    if result.config.certify and not (result.certificates and result.certificates.ok):
        problems.append("certificate chain refuted")
    return problems


def run_op(
    round_index: int,
    label: str,
    measure: Measure,
    op_fn: Callable[[], PipelineResult],
    check: Callable[[Op, PipelineResult], list[str]],
) -> tuple[Op, PipelineResult | None]:
    """Time ``op_fn``, then check its result outside the timed section."""
    probe_before = host_probe()
    try:
        result, seconds = measure(op_fn)
    except Exception as exc:  # an op that raises is a failed op
        return Op(round_index, label, 0.0, failure=f"raised {type(exc).__name__}: {exc}"), None
    op = Op(
        round_index,
        label,
        seconds,
        probe_s=(probe_before + host_probe()) / 2,
        bound=result.system_wcet,
        speedup=result.wcet_speedup,
        identity=identity_digest(result),
        cache_stats=dict(result.cache_stats),
    )
    report = result.artifacts.get("incremental_report")
    if report is not None:
        op.incremental = {
            "stages_reused": report.stages_reused,
            "stages_recomputed": report.stages_recomputed,
            "regions_recomputed": report.regions_recomputed,
        }
    try:
        problems = check(op, result)
    except Exception as exc:  # a check that cannot run fails the op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        op.failure = "; ".join(problems)
    return op, result


class Workload:
    """Base class: ``setup`` makes the inputs and warms up, ``run_round``
    runs one round of ops."""

    name = ""
    #: Rounds every run makes.  They define the deterministic metrics and
    #: the traced pass; sized so that at ``run_seconds`` = 20 no further
    #: round fits, which keeps the sample count, and so the percentile the
    #: tail reports, the same from run to run.
    fixed_rounds = 1
    #: True when every round repeats the ops of the first, which
    #: :meth:`check_repeat` holds the repeats to; the traced run then runs
    #: one round.
    repeats = False
    #: True when the end-to-end metrics count each op once, with the median
    #: of its rounds' times (see :class:`Edit`).
    per_op_median = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first_round: list[Op] = []
        #: labels of repeated-round ops whose outputs differ from round 0
        self.repeat_mismatches: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int, measure: Measure) -> list[Op]:
        raise NotImplementedError

    def check_repeat(self, ops: list[Op]) -> None:
        """For workloads whose rounds repeat the same inputs: fail each op
        whose bound, schedule or emitted C differs from the same op of the
        first round, and record it as a repeat mismatch.  An op of the
        first round that failed its checks fails again in every repeat."""
        if not self.first_round:
            self.first_round.extend(ops)
            return
        for op, first in zip(ops, self.first_round):
            reasons = [op.failure] if op.failure else []
            if op.identity != first.identity:
                reasons.append("bound, schedule or emitted C differs from the first round")
                self.repeat_mismatches.append(op.label)
            elif first.failure and first.failure not in reasons:
                reasons.append(first.failure)
            op.failure = "; ".join(reasons) or None


class ColdLarge(Workload):
    """Cold certified, statically pruned flows on large random diagrams."""

    name = "cold-large"
    #: Each op is a different diagram, and their times differ by up to 2x,
    #: so a run needs as many of them as the time allows.
    fixed_rounds = 8
    SHAPE = (16, 8, 48)  # stages x width x vector size: ~600 leaf tasks

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.platform = generic_predictable_multicore(cores=4)
        self.config = ToolchainConfig(loop_chunks=6, certify=True, static_pruning=True)
        self.diagrams: dict[int, Diagram] = {}

    def _diagram_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def setup(self) -> None:
        warm = random_pipeline_diagram(3, 2, 8, seed=self.seed)
        Pipeline(self.platform, self.config, wcet_cache=WcetAnalysisCache()).run(warm)
        self.diagrams = {
            i: random_pipeline_diagram(*self.SHAPE, seed=self._diagram_seed(i))
            for i in range(self.fixed_rounds)
        }

    def run_round(self, index: int, measure: Measure) -> list[Op]:
        diagram = self.diagrams.get(index) or random_pipeline_diagram(
            *self.SHAPE, seed=self._diagram_seed(index)
        )
        inputs = seeded_inputs(diagram, self._diagram_seed(index))
        op, _ = run_op(
            index,
            f"diagram seed {self._diagram_seed(index)}",
            measure,
            lambda: Pipeline(self.platform, self.config, wcet_cache=WcetAnalysisCache()).run(
                diagram
            ),
            lambda op, result: check_result(op, result, diagram, self.platform, inputs),
        )
        return [op]


class Dse(Workload):
    """One design-space grid pass per round, sharing a fresh cache.

    Every point uses the default config, so the metaheuristics search with
    the same scheduler seed in every run; ``--seed`` picks the simulation
    inputs of the checks.
    """

    name = "dse"
    fixed_rounds = 2
    repeats = True
    USECASES = ("egpws", "polka", "weaa")
    SCHEDULERS = ("wcet_list", "acet_list", "simulated_annealing", "genetic")
    CORES = (2, 4, 8)

    def setup(self) -> None:
        self.diagrams = {name: ALL_USECASES[name][0]() for name in self.USECASES}
        self.inputs = {
            name: ALL_USECASES[name][1](seed=self.seed) for name in self.USECASES
        }
        self.platforms = {c: generic_predictable_multicore(cores=c) for c in self.CORES}
        warm_cache = WcetAnalysisCache()
        for diagram in self.diagrams.values():
            Pipeline(self.platforms[2], ToolchainConfig(), wcet_cache=warm_cache).run(diagram)

    def run_round(self, index: int, measure: Measure) -> list[Op]:
        cache = WcetAnalysisCache()
        ops: list[Op] = []
        for usecase in self.USECASES:
            diagram = self.diagrams[usecase]
            for scheduler in self.SCHEDULERS:
                for cores in self.CORES:
                    platform = self.platforms[cores]
                    pipeline = Pipeline(
                        platform,
                        ToolchainConfig(scheduler=scheduler),
                        wcet_cache=cache,
                    )
                    op, _ = run_op(
                        index,
                        f"{usecase}/{scheduler}/{cores}",
                        measure,
                        lambda: pipeline.run(diagram),
                        lambda op, result: check_result(
                            op, result, diagram, platform, self.inputs[usecase]
                        ),
                    )
                    ops.append(op)
        self.check_repeat(ops)
        return ops


class Edit(Workload):
    """An editor session: cold run, then edits re-analysed incrementally.

    Each round replays the same session from its own cold start, so a run
    times every edit three times.  The first round checks every op against
    a cold run of the edited diagram; the repeats are held to the first
    round's bound, schedule and emitted C by :meth:`Workload.check_repeat`,
    which spares them the checks' cold runs.  A session has a few ops of a
    few seconds each, so a burst of load on the host lands on whole ops: an
    op's time is the median of its three rounds, which keeps one slow round
    out of the figures, and the tail stays the maximum over the session.
    """

    name = "edit"
    fixed_rounds = 3
    repeats = True
    per_op_median = True
    #: The model of the E15 experiment (~930 leaf tasks), the same in every
    #: run: ``--seed`` picks the edits and the check inputs, so the spread
    #: between runs comes from what is edited, not from the model's size.
    SHAPE = (24, 8, 48)
    MODEL_SEED = 42
    #: Edit kind of each op of a session.  Structural edits take seconds and
    #: parameter edits a fraction of one, so a random mix would move the
    #: median between the two from seed to seed; a fixed mix keeps it on
    #: the structural edits.  Each op is still one seeded
    #: ``random_edit_script(diagram, 1, seed)`` edit.
    KINDS = ("param", "insert", "delete", "insert")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.platform = generic_predictable_multicore(cores=4)
        self.config = ToolchainConfig(loop_chunks=6)
        #: cold starts made by ``setup``, used up in order by the rounds
        self.starts: list[tuple[Diagram, Pipeline, PipelineResult]] = []

    def setup(self) -> None:
        diagram = random_pipeline_diagram(*self.SHAPE, seed=self.MODEL_SEED)
        pipeline = Pipeline(self.platform, self.config, wcet_cache=WcetAnalysisCache())
        self.starts.append((diagram, pipeline, pipeline.run(diagram)))

    def edit_seed(self, k: int) -> int:
        """The first script seed, from a seeded base, whose one-edit script
        draws ``KINDS[k]`` (``random_edit_script`` draws the kind first)."""
        candidate = (self.seed * 1_000_003 + k * 7_919) % 2**31
        while EDIT_KINDS[int(make_rng(candidate).integers(0, len(EDIT_KINDS)))] != self.KINDS[k]:
            candidate += 1
        return candidate

    def run_round(self, index: int, measure: Measure) -> list[Op]:
        if not self.starts:
            self.setup()
        diagram, pipeline, prev = self.starts.pop(0)
        reference_cache = WcetAnalysisCache()
        ops: list[Op] = []
        for k in range(len(self.KINDS)):
            script_seed = self.edit_seed(k)
            (kind, block), = random_edit_script(diagram, 1, script_seed)
            inputs = seeded_inputs(diagram, script_seed)

            def check(op: Op, result: PipelineResult) -> list[str]:
                if index > 0:
                    return []  # a repeat: check_repeat holds it to round 0
                problems = check_result(op, result, diagram, self.platform, inputs)
                cold = Pipeline(self.platform, self.config, wcet_cache=reference_cache).run(
                    diagram
                )
                if result.system_wcet != cold.system_wcet:
                    problems.append(
                        f"bound {result.system_wcet:.0f} != {cold.system_wcet:.0f} "
                        "of a cold run of the edited diagram"
                    )
                for what, got, want in (
                    ("mapping", result.schedule.mapping, cold.schedule.mapping),
                    ("order", result.schedule.order, cold.schedule.order),
                    (
                        "emitted C",
                        parallel_program_to_c(result.parallel_program, result.htg),
                        parallel_program_to_c(cold.parallel_program, cold.htg),
                    ),
                ):
                    if got != want:
                        problems.append(f"{what} differs from a cold run of the edited diagram")
                return problems

            op, result = run_op(
                index,
                f"{kind} {block} (script seed {script_seed})",
                measure,
                lambda: pipeline.run_incremental(prev, diagram),
                check,
            )
            ops.append(op)
            if result is not None:
                prev = result
        self.check_repeat(ops)
        return ops


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (ColdLarge, Dse, Edit)}
