"""One timed launch: a fresh interpreter that runs a list of CLI calls.

    python3 worker.py PLAN.json T_LAUNCH

T_LAUNCH is CLOCK_MONOTONIC as the parent read it just before starting
this process. The plan names the source tree, the calls to make through
texsynth.cli.main and where to write the report. Set-up time is
the span from that launch time to the moment the package is imported and
the first call is about to run. With "trace" set, spans are recorded
around the package's entry points and written with the report; with
"calls" empty the process only measures its set-up.
"""

import sys
import time


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(plan_path, t_launch):
    import json

    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from texsynth import cli

    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer(plan["run_id"])
        tracing.install(tracer)
    calls = []
    for call in plan["calls"]:
        start = time.perf_counter()
        try:
            rc = cli.main(call["argv"])
        except Exception as exc:  # reported as a failed call, not a crashed launch
            rc = f"{type(exc).__name__}: {exc}"
        calls.append({"label": call["label"], "rc": rc,
                      "seconds": time.perf_counter() - start})
    import resource

    import texsynth

    report = {
        "t_launch": t_launch,
        "t_ready": t_ready,
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "has_numba": texsynth.HAS_NUMBA,
    }
    if tracer is not None:
        report["trace"] = tracer.dump()
    with open(plan["report"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
