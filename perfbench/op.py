"""Run one ``symbreak`` CLI invocation in this fresh interpreter.

Usage: ``python3 perfbench/op.py '<argv as JSON>' <trace 0|1>`` with
``src`` on ``PYTHONPATH``.  ``symbreak.cli`` is imported before anything
else, so the parent can time interpreter start plus that import from its
own spawn timestamp (``perf_counter`` is the system-wide monotonic clock).
The op is bracketed by two calibration samples taken in this process, one
just before ``cli.main`` and one just after.  Prints one JSON object: exit
code, captured output, timings, the calibration samples, peak RSS and, when
tracing, per-function counters and every span.
"""

import sys
import time

import symbreak.cli

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

#: The public functions wrapped in the traced run, by module.
TRACED = (
    "cli.main",
    "verify.check_bound",
    "verify.check_characterization",
    "verify.check_construction",
    "verify.enumeration_rows",
    "verify.load_graph6_file",
    "catalog.classify_graph",
    "catalog.instantiate_families",
    "catalog.in_family_f",
    "isomorphism.enumerate_graphs",
    "isomorphism.canonical_form",
    "isomorphism.parse_graph6",
    "isomorphism.write_graph6",
    "symmetry.automorphism_group",
    "symmetry.distinguishing_number",
    "symmetry.is_distinguishing",
    "resolving.metric_dimension",
    "twins.twin_graph",
    "twins.core_graph",
    "expressions.parse_expression",
    "graphs.construct_family",
)


class Tracer:
    """Spans around every call of the functions in :data:`TRACED`.

    A span is ``[function index, parent span index or -1, start, end]``.
    Self time is a span's duration minus the durations of its direct
    children; busy time counts only the outermost span of a function, so
    recursion (``construct_family``) is not counted twice.  A generator
    function gets one span per resumption and one call per invocation.
    """

    def __init__(self) -> None:
        self.names = list(TRACED)
        self.missing: list[str] = []
        size = len(self.names)
        self.calls = [0] * size
        self.busy = [0.0] * size
        self.self_time = [0.0] * size
        self.depth = [0] * size
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span index, function index, start, child time]
        self.originals: dict[int, object] = {}
        self.aut_elements = 0
        self.classes = 0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("symbreak") and m]
        for fid, qualified in enumerate(self.names):
            module_name, fn_name = qualified.split(".")
            module = importlib.import_module(f"symbreak.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(qualified)
                continue
            self.originals[fid] = original
            wrapper = self._wrap(fid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _span(self, fid, fn, args, kwargs):
        perf = time.perf_counter
        sid = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        record = [fid, parent, 0.0, 0.0]
        self.spans.append(record)
        frame = [sid, fid, 0.0, 0.0]
        self.stack.append(frame)
        self.depth[fid] += 1
        frame[2] = record[2] = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            record[3] = end
            self.stack.pop()
            duration = end - frame[2]
            self.self_time[fid] += duration - frame[3]
            self.depth[fid] -= 1
            if not self.depth[fid]:
                self.busy[fid] += duration
            if self.stack:
                self.stack[-1][3] += duration

    def _wrap(self, fid, original):
        name = self.names[fid]
        if inspect.isgeneratorfunction(original):

            def generator_wrapper(*args, **kwargs):
                self.calls[fid] += 1
                iterator = self._span(fid, original, args, kwargs)
                while True:
                    try:
                        item = self._span(fid, next, (iterator,), {})
                    except StopIteration:
                        return
                    self.classes += 1
                    yield item

            return generator_wrapper

        if name == "symmetry.automorphism_group":

            def group_wrapper(*args, **kwargs):
                self.calls[fid] += 1
                misses = original.cache_info().misses
                group = self._span(fid, original, args, kwargs)
                if original.cache_info().misses != misses:
                    self.aut_elements += len(group.elements)
                return group

            return group_wrapper

        def wrapper(*args, **kwargs):
            self.calls[fid] += 1
            return self._span(fid, original, args, kwargs)

        return wrapper

    def report(self) -> dict:
        caches = {}
        for fid, original in self.originals.items():
            if hasattr(original, "cache_info"):
                info = original.cache_info()
                caches[self.names[fid]] = [info.hits, info.misses]
        return {
            "names": self.names,
            "missing": self.missing,
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.self_time,
            "caches": caches,
            "aut_elements": self.aut_elements,
            "classes": self.classes,
            "spans": self.spans,
        }


def calibration_unit_s() -> float:
    """Time of one calibration unit: four times, a dict keyed by every
    permutation of 7 items is built and its items sorted.

    It allocates and compares many small objects, as the program does, so
    it slows down with the program when the host is contended.  It calls no
    program code, and the collector is off while it runs so that the heap
    the op leaves behind does not change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(4):
        table = {p: sum(v << i for i, v in enumerate(p)) for p in itertools.permutations(range(7))}
        sorted(table.items(), key=lambda item: item[1])
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def main() -> None:
    cal_before = calibration_unit_s()
    argv = json.loads(sys.argv[1])
    tracer = Tracer() if sys.argv[2] == "1" else None
    if tracer:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = symbreak.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback the CLI would have shown the user
            code = 1
            error = traceback.format_exc()
        end = time.perf_counter()
    cal_after = calibration_unit_s()
    result = {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "t_imported": T_IMPORTED,
        "cal_unit_s": [cal_before, cal_after],
        "work_s": end - start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
