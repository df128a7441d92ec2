"""Outside-in tracer: spans and exact counts around framelab's public functions.

Nothing inside the package changes.  ``Tracer.install()`` replaces each
target function with a wrapper everywhere the package holds a reference to
it: the defining module, every module that imported it by name (``from
.framecore import measure_bounds`` puts a copy in ``multiplication``,
``translates`` and ``cli``), and module-level dispatch tables such as
``cli._SINGLE_CHECKS`` and ``multiplication._CHECKS``.  ``uninstall()`` puts
the originals back.

Each call records a span ``[name, start, end, parent, job]`` in memory; the
parent is the index of the enclosing traced span (-1 at top level), so a
span's self time is its duration minus that of its direct children.  Counts
are taken from the same call's arguments and return value.
"""

from __future__ import annotations

import functools
import os
import sys
import time

_PACKAGE = "framelab"
# dense eigensolves run only up to this order (framecore's budget rule)
_DENSE_LIMIT = 1024


def _count_exponential_system(counts, args, kwargs, result):
    n, k = result.matrix.shape
    counts["framecore.exponential_system.entries"] += n * k


def _count_measure_bounds(counts, args, kwargs, result):
    n, k = result.dim_space, result.n_members
    counts["framecore.measure_bounds.eig_n3"] += (n**3 if n <= _DENSE_LIMIT else 0) + (
        k**3 if k <= _DENSE_LIMIT else 0
    )
    counts["framecore.measure_bounds.cross_checks"] += int(result.spectra_cross_checked)


def _count_reconstruct(counts, args, kwargs, result):
    counts["framecore.reconstruct.cg_iters"] += result.iterations


def _count_refine_check(counts, args, kwargs, result):
    counts["multiplication.refine_check.levels"] += len(result.levels)


def _count_cli_run(counts, args, kwargs, result):
    path = args[0].report_path
    if path and os.path.exists(path):
        counts["cli.report_bytes"] += os.path.getsize(path)


# (module, function, extra counter); every target also counts its calls
TARGETS = (
    ("domain", "make_grid", None),
    ("pointset", "load_pointset", None),
    ("pointset", "densify", None),
    ("pointset", "beurling_density", None),
    ("expr", "parse_multiplier", None),
    ("framecore", "exponential_system", _count_exponential_system),
    ("framecore", "measure_bounds", _count_measure_bounds),
    ("framecore", "reconstruct", _count_reconstruct),
    ("multiplication", "profile_refinement", None),
    ("multiplication", "refine_check", _count_refine_check),
    ("multiplication", "check_frame_multiplication", None),
    ("multiplication", "check_tight_multiplication", None),
    ("multiplication", "check_riesz_multiplication", None),
    ("multiplication", "check_bessel_multiplication", None),
    ("multiplication", "check_frame_sequence_multiplication", None),
    ("multiplication", "check_converse", None),
    ("translates", "build_bump_generator", None),
    ("translates", "classify_translates", None),
    ("translates", "obstruction_trend", None),
    ("translates", "oversampled_expansion", None),
    ("translates", "union_check", None),
    ("cli", "parse_config", None),
    ("cli", "run", _count_cli_run),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.job = -1
        self._stack: list = []
        self._patches: list = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = {f"{name}.calls": 0 for name in SPAN_NAMES}
        self.counts.update({
            "framecore.exponential_system.entries": 0,
            "framecore.measure_bounds.eig_n3": 0,
            "framecore.measure_bounds.cross_checks": 0,
            "framecore.reconstruct.cg_iters": 0,
            "multiplication.refine_check.levels": 0,
            "cli.report_bytes": 0,
        })

    def _wrap(self, name: str, fn, counter):
        spans, stack, calls = self.spans, self._stack, f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            self.counts[calls] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference the package holds to each target function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == _PACKAGE or key.startswith(_PACKAGE + "."))]
        for mod_name, fn_name, counter in TARGETS:
            original = getattr(sys.modules[f"{_PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for module in modules:
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((namespace, attr, original))
                        namespace[attr] = wrapper
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._patches.append((value, key, original))
                                value[key] = wrapper

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> dict:
        """Per-name self time over spans[first:last], in seconds."""
        chunk = self.spans[first:last]
        child = [0.0] * len(chunk)
        for name, start, end, parent, _ in chunk:
            if parent >= first:
                child[parent - first] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(chunk):
            out[name] += (end - start) - child[i]
        return out
