"""Per-layer spans and counts for the traced benchmark process.

The program under test is not modified. Instead, `install` replaces the
names each layer's caller looks up at call time (module attributes such
as `hoi.scanner.compute_hoi_batch` or `numpy.linalg.inv`) with wrappers
that record a span around the call. Spans nest per thread, so a layer's
self time is its span minus the spans of wrapped calls it made on the
same thread. Times are busy seconds summed across threads; counts are
integers and must repeat exactly between runs of one seed.

Only the traced child process calls `install`; untraced processes never
see a wrapper.
"""

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    """Thread-safe accumulator of span totals, self times and counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self):
        with self._lock:
            self.total = defaultdict(float)
            self.self_time = defaultdict(float)
            self.counts = defaultdict(int)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "total": dict(self.total),
                "self": dict(self.self_time),
                "counts": dict(self.counts),
            }

    def add(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack()
        stack.append(0.0)  # time covered by child spans
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            with self._lock:
                self.total[name] += dt
                self.self_time[name] += dt - child

    def wrap(self, fn, name: str, observe=None):
        """fn wrapped in a span; observe(args, result) runs after the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def wrap_generator(self, genfn, name: str):
        """A generator function whose every step is timed as one span."""

        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, it)
                except StopIteration:
                    return
                yield item

        return traced


def potrf_flop(k: int) -> int:
    """LAPACK potrf operation count for one k x k matrix (LAWN 41)."""
    return k * (k + 1) * (2 * k + 1) // 6


def inv_flop(k: int) -> int:
    """getrf plus getrs with k right-hand sides, the gesv route of inv."""
    return k * (4 * k + 1) * (k - 1) // 6 + 2 * k ** 3


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import numpy as np

    from hoi import cli, copula_core, measures, nplet_engine, optimizers, scanner

    def factorisation(fn, name, flop, count_matrices):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            shape = np.shape(a)
            n_mats = int(np.prod(shape[:-2], dtype=np.int64))
            tracer.add("factor_flop", n_mats * flop(int(shape[-1])))
            if count_matrices:
                tracer.add("matrices", n_mats)
            try:
                return tracer.call(name, fn, a, *args, **kwargs)
            except np.linalg.LinAlgError:
                tracer.add("linalg_errors", 1)
                raise

        return traced

    np.linalg.cholesky = factorisation(np.linalg.cholesky, "cholesky", potrf_flop, True)
    np.linalg.inv = factorisation(np.linalg.inv, "inv", inv_flop, False)

    def gathered(args, out):
        tracer.add("gather_bytes", int(out.matrices.nbytes))

    def padded(args, out):
        gathered(args, out)
        batch = args[1]
        k = batch.masks.sum(axis=1).astype(np.int64)
        tracer.add("pad_useful", int((k ** 3).sum()))
        tracer.add("pad_capacity", int(k.size) * batch.n_variables ** 3)

    nplet_engine.extract_subcov_batch = tracer.wrap(
        nplet_engine.extract_subcov_batch, "gather", gathered)
    nplet_engine.pad_subcov_batch = tracer.wrap(
        nplet_engine.pad_subcov_batch, "pad", padded)
    measures.entropy_terms = tracer.wrap(measures.entropy_terms, "entropy_terms")

    def rows(args, out):
        tracer.add("rows", int(out.tc.size))

    for mod in (scanner, optimizers):
        mod.compute_hoi_batch = tracer.wrap(mod.compute_hoi_batch, "compute_hoi_batch", rows)
        mod.enumerate_order = tracer.wrap_generator(mod.enumerate_order, "enumerate")

    for cls in (scanner.TopK, scanner.FeatureAccumulator):
        cls.update = tracer.wrap(
            cls.update, "reduce", lambda args, out: tracer.add("batches", 1))

    top_entry = scanner.TopEntry

    def counted_top_entry(*args, **kwargs):
        tracer.add("topk_entries", 1)
        return top_entry(*args, **kwargs)

    scanner.TopEntry = counted_top_entry
    scanner.scan = tracer.wrap(scanner.scan, "scan")
    optimizers.greedy = tracer.wrap(optimizers.greedy, "greedy")
    optimizers.anneal = tracer.wrap(optimizers.anneal, "anneal")

    for mod in (copula_core, cli):
        mod.copula_transform = tracer.wrap(mod.copula_transform, "copula_transform")
        mod.estimate_covariance = tracer.wrap(mod.estimate_covariance, "estimate_covariance")
    cli.extract_features = tracer.wrap(cli.extract_features, "extract_features")
    cli.main = tracer.wrap(cli.main, "cli_main")


def layer_metrics(snap: dict, extra: dict) -> dict:
    """Per-layer metric values from one timed call's snapshot.

    extra holds the values the workload reads from the program's own
    output (greedy's progress counters, anneal's iteration count, the
    CLI's input size). Layers that did not run in the call read 0.
    """
    tot, own, cnt = snap["total"], snap["self"], snap["counts"]

    def t(name):
        return float(tot.get(name, 0.0))

    def s(name):
        return float(own.get(name, 0.0))

    def c(name):
        return int(cnt.get(name, 0))

    capacity = c("pad_capacity")
    return {
        "nplet_engine.enumerate_s": t("enumerate"),
        "nplet_engine.gather_s": t("gather"),
        "nplet_engine.pad_s": t("pad"),
        "nplet_engine.cholesky_s": t("cholesky"),
        "nplet_engine.inv_s": t("inv"),
        "nplet_engine.terms_s": s("entropy_terms"),
        "nplet_engine.matrices": c("matrices"),
        "nplet_engine.factor_flop": c("factor_flop"),
        "nplet_engine.gather_bytes": c("gather_bytes"),
        "nplet_engine.pad_useful_frac": c("pad_useful") / capacity if capacity else 0.0,
        "nplet_engine.linalg_errors": c("linalg_errors"),
        "measures.assemble_s": s("compute_hoi_batch"),
        "measures.rows": c("rows"),
        "scanner.reduce_s": t("reduce"),
        "scanner.topk_entries": c("topk_entries"),
        # scan's self time on the calling thread: everything but the
        # enumerate and reduce spans it ran itself, mostly waits on the pool
        "scanner.parent_wait_s": s("scan"),
        "scanner.batches": c("batches"),
        "optimizers.greedy_s": t("greedy"),
        "optimizers.greedy_self_s": s("greedy"),
        "optimizers.anneal_s": t("anneal"),
        "optimizers.anneal_self_s": s("anneal"),
        "copula_core.transform_s": t("copula_transform"),
        "copula_core.covariance_s": t("estimate_covariance"),
        "cli.self_s": s("cli_main"),
        "optimizers.greedy_seed_s": 0.0,
        "optimizers.greedy_evals": 0,
        "optimizers.anneal_iters": 0,
        "cli.input_bytes": 0,
        **extra,
    }


#: Per-layer metrics that are exact counts, checked to repeat across runs.
COUNT_METRICS = (
    "nplet_engine.matrices",
    "nplet_engine.factor_flop",
    "nplet_engine.gather_bytes",
    "nplet_engine.linalg_errors",
    "measures.rows",
    "scanner.topk_entries",
    "scanner.batches",
    "optimizers.greedy_evals",
    "optimizers.anneal_iters",
    "cli.input_bytes",
)
