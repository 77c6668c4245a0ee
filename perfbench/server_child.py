"""Key-establishment server process for the served benchmark workloads.

``perfbench/run.py`` starts this script as a child process; it is not
meant to be run by hand::

    python3 perfbench/server_child.py PIPELINE_PICKLE JOURNAL_DIR

It unpickles the trained pipeline the benchmark built, starts a
:class:`~repro.server.KeyEstablishmentServer` on a loopback TCP port
with the write-ahead journal on (``fsync="batch"``), and prints one JSON
line ``{"port", "load_s", "start_s"}``.  It then answers each command read from
stdin with one JSON line on stdout:

- ``trace-on``: wrap the package's public functions with the tracer;
- ``mark``: this process's CPU seconds and monotonic clock;
- ``ref``: run the reference kernel (``common.reference_cpu_s``) and
  report its CPU seconds and this process's CPU seconds before and after;
- ``trace-off PATH``: unwrap, write the spans to ``PATH`` as JSONL and
  report the journal's append/fsync counts;
- ``stop`` (or end of input): drain, report peak RSS, exit.
"""

import asyncio
import json
import pickle
import resource
import sys
import time

from repro.server import KeyEstablishmentServer, ModelRegistry, ServerConfig

import common
import tracer


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def serve(pipeline_path: str, journal_dir: str) -> None:
    loading = time.monotonic()
    with open(pipeline_path, "rb") as handle:
        pipeline = pickle.load(handle)
    load_s = time.monotonic() - loading
    server = KeyEstablishmentServer(
        ModelRegistry(pipeline),
        ServerConfig(
            host="127.0.0.1",
            port=0,
            journal_dir=journal_dir,
            journal_fsync="batch",
        ),
    )
    started = time.monotonic()
    await server.start()
    _reply({"port": server.bound_port, "load_s": load_s, "start_s": time.monotonic() - started})
    loop = asyncio.get_running_loop()
    active = None
    counts: dict = {}
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command, _, argument = line.strip().partition(" ")
        if command == "trace-on":
            active = tracer.Tracer(tracer.counting_hooks(counts)).install()
            _reply({"ok": True})
        elif command == "mark":
            _reply({"cpu_s": time.process_time(), "t": time.monotonic()})
        elif command == "ref":
            before = time.process_time()
            ref_cpu_s = common.reference_cpu_s()
            _reply({"cpu_before_s": before, "ref_cpu_s": ref_cpu_s, "cpu_s": time.process_time()})
        elif command == "trace-off" and active is not None:
            active.uninstall()
            tracer.write_jsonl(argument, active.resolved("server"))
            active = None
            _reply({"ok": True, **counts})
        else:  # "stop", or the parent closed our stdin
            report = await server.drain(timeout=30.0)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _reply({"peak_rss_mb": peak_kb / 1024.0, "leaked": report.leaked})
            return


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1], sys.argv[2]))
