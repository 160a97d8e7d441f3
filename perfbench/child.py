"""Run one `tracelink` CLI command in this process and record what it cost.

Usage: child.py RESULT.json TRACE.json|- -- <tracelink arguments>

`import tracelink` and the command's `load_dataset` call make up set-up;
the rest of `tracelink.cli.main` is the run. With a trace path, the
outside-in tracer wraps every layer and its spans are written there.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set size of this program image, in KiB.

    Linux keeps in `ru_maxrss` the peak of the process before `exec`, a
    copy of the runner, so the image's own high-water mark `VmHWM` is read
    where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, trace_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        print("usage: child.py RESULT TRACE|- -- ARGS...", file=sys.stderr)
        return 2

    started = time.perf_counter()
    import tracelink.cli as cli
    import_s = time.perf_counter() - started

    from tracer import Tracer, install

    # Set-up's `load_dataset` is timed through the tracer in both modes.
    tracer = Tracer()
    if trace_path != "-":
        install(tracer)
    else:
        tracer.wrap(cli, "load_dataset", "corpus.load")
        if tracer.missing:
            print("cannot time set-up: tracelink.cli.load_dataset is missing", file=sys.stderr)
            return 2
    root = tracer.begin("cli.main")

    begun = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - begun
    tracer.end(root)
    tracer.restore()
    loads = [end - start for name, start, end, _ in tracer.spans if name == "corpus.load"]
    if trace_path != "-":
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.payload(), handle)

    result = {
        "exit": code,
        "import_s": import_s,
        "load_s": sum(loads),
        "main_s": main_s,
        "maxrss_kb": peak_rss_kb(),
        "tracelink_file": cli.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
