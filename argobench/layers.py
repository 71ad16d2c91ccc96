"""Per-layer self time, measured from outside the program.

The traced run wraps the public entry point of every layer of the flow and
times each call.  A layer's *self time* is its wrapped time minus the time
of the wrapped calls nested inside it, so the layers partition the time
spent under them.  Nothing inside ``repro`` is edited: functions are
re-bound at every module attribute (and class attribute) that holds them,
and the scheduler registry entries are re-registered around their
``build``.  :meth:`LayerClock.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: layer name -> (module, attribute) of each wrapped public function.
FUNCTIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "frontend": (("repro.frontend.codegen", "compile_diagram"),),
    "htg": (
        ("repro.htg.extraction", "extract_htg"),
        ("repro.htg.extraction", "extract_htg_incremental"),
    ),
    "wcet.code_level": (
        ("repro.wcet.code_level", "analyze_function_wcet"),
        ("repro.wcet.ipet", "ipet_wcet"),
    ),
    "wcet.system_level": (("repro.wcet.system_level", "system_level_wcet"),),
    "analysis.static_mhp": (("repro.analysis.static_mhp", "compute_static_mhp"),),
    "analysis.races": (("repro.analysis.races", "incremental_race_check"),),
    "parallel": (("repro.parallel.model", "build_parallel_program"),),
    "analysis.certify": (("repro.analysis.certify.chain", "build_certificates"),),
}

#: layer name -> (module, class, method) of each wrapped method.
METHODS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "transforms": (("repro.transforms.base", "PassManager", "run"),),
    "wcet.code_level": (("repro.wcet.cache", "WcetAnalysisCache", "annotate_htg"),),
}

#: Every layer, in flow order; ``scheduling`` wraps the registry entries.
LAYERS = (
    "frontend",
    "transforms",
    "htg",
    "wcet.code_level",
    "scheduling",
    "wcet.system_level",
    "analysis.static_mhp",
    "analysis.races",
    "parallel",
    "analysis.certify",
)


class LayerClock:
    """Self time and call count per layer, while :attr:`active` is set.

    Wrapped calls made while the clock is inactive (set-up, correctness
    checks) run the original function with no bookkeeping beyond one flag
    test.  ``on_return`` hooks see each active call's return value, which
    is how return-value counts (tasks, race pairs, sync ops) are read.
    """

    def __init__(self) -> None:
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._restore: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, fn: Callable, on_return: Callable[[Any], None] | None = None) -> Callable:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self.self_s[layer] += elapsed - children[0]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per instance)."""
        if self._restore:
            return
        import repro.analysis.certify  # noqa: F401 -- load every wrapped module
        import repro.analysis.races  # noqa: F401
        import repro.analysis.static_mhp  # noqa: F401
        import repro.core.pipeline  # noqa: F401
        import repro.htg.extraction  # noqa: F401
        from repro.scheduling.registry import (
            available_schedulers,
            get_scheduler,
            register_scheduler,
        )

        hooks = {
            "extract_htg": lambda htg: self._count("htg.tasks", len(htg.leaf_tasks())),
            "extract_htg_incremental": lambda out: self._count(
                "htg.tasks", len(out[0].leaf_tasks())
            ),
            "incremental_race_check": lambda out: self._count(
                "analysis.races.pairs_checked", out[0].checked.get("pairs_checked", 0)
            ),
            "build_parallel_program": lambda program: self._count(
                "parallel.sync_ops", program.num_sync_ops
            ),
        }
        for layer, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                self._rebind(original, self.wrap(layer, original, hooks.get(attr)))
        for layer, targets in METHODS.items():
            for module_name, cls_name, attr in targets:
                cls = getattr(sys.modules[module_name], cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(layer, original))
                self._restore.append(functools.partial(setattr, cls, attr, original))
        for name in available_schedulers():
            entry = get_scheduler(name)
            register_scheduler(name, description=entry.description, replace=True)(
                self.wrap("scheduling", entry.build)
            )
            self._restore.append(
                functools.partial(
                    register_scheduler(name, description=entry.description, replace=True),
                    entry.build,
                )
            )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------ #
    def _count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module attribute bound to ``original`` at
        ``wrapper``; lazily imported call sites resolve through the
        defining module, which is re-bound too."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(functools.partial(setattr, module, attr, original))
