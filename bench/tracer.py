"""Outside-in tracer: times calls into schsim's layers without editing them.

The tracer replaces module and class attributes of the imported package with
timing wrappers.  A function imported by name into several modules (``cli``
binds ``write_csv``, ``experiments`` binds ``_advance``) is replaced in every
``schsim`` module that holds it, so no call path escapes.  Each thread keeps
its own span stack, because the spatial study runs a thread pool.  Spans stay
in memory as tuples and are written once, by :meth:`Tracer.save`.

A span's self time is its duration minus the durations of the spans it
directly encloses on the same thread.

Noise is counted at the source: ``schsim.noise.Philox`` is replaced by a
subclass that counts every 64-bit word ``random_raw`` returns.  The count does
not depend on how the package constructs or reuses generators.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

import numpy as np

# (boundary, layer).  A boundary is "<module>.<attribute path>" under schsim.
# Layer "wait" marks time a thread spends blocked on the pool; it is nobody's
# self time.  "experiments.work" marks one thread's share of a coupled study.
BOUNDARIES = (
    ("noise.NoiseSource.increment_matrix", "noise"),
    ("noise.NoiseSource.increment_field", "noise"),
    ("noise.NoiseSource.coarse_increment", "noise"),
    ("noise.NoiseSource.fine_increments", "noise"),
    ("noise.NoiseSource.fine_increment", "noise"),
    ("grid.SpectralBasis.to_spectral", "grid.analysis"),
    ("grid.SpectralBasis.from_spectral", "grid.synthesis"),
    ("integrator._advance", "integrator.kernel"),
    ("integrator.step", "integrator.driver"),
    ("integrator.run_trajectory", "integrator.driver"),
    ("integrator.run_ensemble", "integrator.driver"),
    ("observables.time_average_single", "observables"),
    ("observables.time_average_ensemble", "observables"),
    ("observables.TimeAverageObserver.__call__", "observables"),
    ("observables.phi_test", "observables"),
    ("observables.g_functional", "observables"),
    ("experiments.run_temporal_study", "experiments"),
    ("experiments.run_spatial_study", "experiments"),
    ("experiments.run_ergodic_study", "experiments"),
    ("experiments._coupled_sums", "experiments.work"),
    ("experiments.ThreadPoolExecutor.map", "wait"),
    ("output.write_csv", "output"),
    ("cli.main", "cli"),
)

# Extra quantity recorded per call, beside the span itself.
_COLUMNS = {"grid.SpectralBasis.to_spectral", "grid.SpectralBasis.from_spectral",
            "integrator._advance"}
_FILE_BYTES = {"output.write_csv"}
_MATERIALIZE = {"experiments.ThreadPoolExecutor.map"}


class BoundaryError(RuntimeError):
    """A traced boundary no longer exists in the package."""


def _columns(array) -> int:
    shape = np.shape(array)
    return 1 if len(shape) < 2 else int(shape[1])


class Tracer:
    """Installs the wrappers and holds every span recorded afterwards."""

    def __init__(self):
        self.spans: list[tuple] = []   # (boundary id, thread id, start, end, self, extra)
        self.names = [name for name, _ in BOUNDARIES]
        self.layers = [layer for _, layer in BOUNDARIES]
        self.raw_draws = 0
        self._draw_lock = threading.Lock()
        self._local = threading.local()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; raises BoundaryError, before wrapping any, if
        one is missing."""
        targets, missing = [], []
        for name in self.names:
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"schsim.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                targets.append((owner, path[-1], getattr(owner, path[-1])))
            except (ModuleNotFoundError, AttributeError):
                missing.append(f"schsim.{name}")
        if missing:
            raise BoundaryError(f"traced boundaries do not exist: {', '.join(missing)}")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "schsim" or name.startswith("schsim."))]
        for bid, (owner, attr, original) in enumerate(targets):
            wrapper = self._wrap(original, bid, self.names[bid])
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:  # every module that imported the function by name
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        noise = importlib.import_module("schsim.noise")
        noise.Philox = self._counting_philox(noise.Philox)

    def _counting_philox(self, base):
        tracer = self

        class CountingPhilox(base):
            def random_raw(self, size=None, output=True):
                words = 1 if size is None else int(np.prod(size))
                with tracer._draw_lock:
                    tracer.raw_draws += words
                return super().random_raw(size, output)

        return CountingPhilox

    def _wrap(self, fn, bid: int, name: str):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        get_ident = threading.get_ident
        columns = name in _COLUMNS
        file_bytes = name in _FILE_BYTES
        materialize = name in _MATERIALIZE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                if columns:
                    extra = _columns(args[1])
                elif file_bytes:
                    extra = os.path.getsize(args[0])
                else:
                    extra = 0
                spans.append((bid, get_ident(), frame[0], end, duration - frame[1], extra))

        return wrapper

    # -- read-out ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-boundary calls, total and self seconds and extra counts."""
        per = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0}
               for name in self.names}
        for bid, _, start, end, self_s, extra in self.spans:
            entry = per[self.names[bid]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            entry["extra"] += extra
        return {"boundaries": per, "raw_draws": self.raw_draws,
                "layers": dict(zip(self.names, self.layers))}

    def save(self, path) -> None:
        """Write every span once, as columns of a compressed .npz file."""
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez_compressed(path, names=np.array(self.names),
                            boundary=spans[:, 0].astype(np.int32),
                            thread=spans[:, 1].astype(np.uint64),
                            start=spans[:, 2], end=spans[:, 3], self_s=spans[:, 4],
                            extra=spans[:, 5].astype(np.int64))
