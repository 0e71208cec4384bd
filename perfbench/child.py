"""One riskscale run in a fresh process, timed from the inside.

Usage: ``child.py <root> <command> <config> <out> <result> <mode>``

Times ``import riskscale`` and ``parse_config`` (set-up) and ``cli.run``
(the run), then writes them with the run's CPU time and exit status as JSON
to ``<result>``. ``mode`` is ``run``, ``setup`` (the run is skipped) or
``trace`` (the wrappers of ``tracer.py`` are installed around the run and
the spans are added to the result). The exit status is the one ``cli.run``
returned.
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(root, command, config_path, out_path, result_path, mode) -> int:
    start = time.perf_counter()
    import riskscale
    from riskscale import cli, rng
    from riskscale.config import parse_config
    import_s = time.perf_counter() - start

    package = os.path.dirname(os.path.abspath(riskscale.__file__))
    if package != os.path.join(root, "src", "riskscale"):
        print(f"child.py: imported riskscale from {package}, not from {root}/src",
              file=sys.stderr)
        return 2

    with open(config_path, encoding="utf-8") as fh:
        text = fh.read()
    start = time.perf_counter()
    config = parse_config(text, command=command, output_path=out_path)
    parse_s = time.perf_counter() - start
    result = {"import_s": import_s, "parse_config_s": parse_s}

    status = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cpu = _cpu_seconds()
        start = time.perf_counter()
        status = cli.run(config)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu_seconds() - cpu
        if tracer is not None:
            tracer.uninstall()
            result["block_rows"] = rng.BLOCK_ROWS
            result["spans"] = tracer.spans
    result["status"] = status
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
