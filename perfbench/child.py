"""Fresh-interpreter helpers of the benchmark; run from the checkout root.

    python3 perfbench/child.py setup <workload> <seed> <workers>
        import the package and build the workload's inputs, then print
        "ready" (the parent times process start to that line: setup_s)
    python3 perfbench/child.py rigidity [SPANS_PATH]
        print "ready" once imported, run the cold rigidity pipeline, and
        print its report as one JSON line; with SPANS_PATH the pipeline is
        traced and its spans are written there
"""

import json
import sys
import threading
import time

from pkgpath import add_package_path


def main(argv):
    if not add_package_path():
        print("henonlocus package not found under src/", file=sys.stderr)
        return 2
    import workloads

    if argv[0] == "setup":
        workloads.setup(argv[1], int(argv[2]), int(argv[3]))
        print("ready", flush=True)
        return 0
    if argv[0] != "rigidity":
        print(f"unknown child mode {argv[0]!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    tracer = None
    if len(argv) > 1:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = 1
    start = time.perf_counter()
    try:
        report = workloads.rigidity_pipeline()
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
            tracer.write(argv[1])
    report["pipeline_s"] = elapsed
    report["main_thread"] = threading.get_ident()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
