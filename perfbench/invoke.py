"""One benchmark invocation: a fresh process that runs `precis.cli.main`.

    python3 invoke.py RESULT_JSON MODE -- CLI_ARGS...

MODE is `run` (the command, untraced), `trace` (the command with per-layer
spans) or `setup` (import the CLI and load the config, then stop). The
process writes RESULT_JSON with monotonic timestamps, which the parent
compares with the time it started this process:

  t_loaded  precis.cli imported and the config loaded
  t_end     the command returned, so its last output file is written

with the CPU time this process had used at each (c_loaded, c_end, all its
threads) and that of its finished child processes at the end (c_children),
plus the command's exit code, this process's peak RSS, the BLAS thread
count actually in force and, in `trace` mode, the span summary.
"""
from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    result_path, mode = Path(argv[0]), argv[1]
    cli_args = argv[3:]  # argv[2] is "--"
    import precis.cli as cli

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.install()
    record: dict = {}
    if mode == "setup":
        args = cli.build_parser().parse_args(cli_args)
        cli.load_config(args.config, overrides=args)
        record["t_loaded"] = time.monotonic()
        record["c_loaded"] = time.process_time()
        rc = 0
    else:
        load_config = cli.load_config

        def timed_load_config(*args, **kwargs):
            config = load_config(*args, **kwargs)
            record["t_loaded"] = time.monotonic()
            record["c_loaded"] = time.process_time()
            return config

        cli.load_config = timed_load_config
        rc = cli.main(cli_args)
    record["t_end"] = time.monotonic()
    record["c_end"] = time.process_time()
    record["c_children"] = children_cpu()
    record["rc"] = rc
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["blas_threads"] = blas_threads()
    if tracer is not None:
        record["trace"] = tracer.summary()
    result_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
