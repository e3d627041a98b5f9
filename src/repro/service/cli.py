"""``repro-serve`` — run and talk to the simulation job server.

Examples::

    repro-serve start --socket /tmp/repro.sock --workers 4
    repro-serve submit --socket /tmp/repro.sock --matrix fig7 --wait
    repro-serve submit --socket /tmp/repro.sock --matrix generations \\
        --params '{"mechanisms": ["Burst_TH"]}'
    repro-serve watch  --socket /tmp/repro.sock --job job-1
    repro-serve preempt --socket /tmp/repro.sock    # drain one worker
    repro-serve status --socket /tmp/repro.sock
    repro-serve shutdown --socket /tmp/repro.sock

``start`` runs in the foreground (use your shell/supervisor to
background it); everything else is a thin :class:`ServiceClient` call
that prints the server's JSON reply.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError

DEFAULT_SOCKET = ".repro-cache/repro-serve.sock"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Shard simulation matrices across a cache-fronted worker "
            "pool that preempts and migrates cells (DESIGN.md §15)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument(
            "--socket", default=DEFAULT_SOCKET, metavar="PATH",
            help=f"Unix socket path (default {DEFAULT_SOCKET})",
        )
        return p

    start = common(sub.add_parser(
        "start", help="run the server in the foreground"
    ))
    start.add_argument(
        "--workers", "-j", type=int, default=2, metavar="N",
        help="worker subprocesses (default 2)",
    )
    start.add_argument(
        "--progress-every", type=int, default=None, metavar="CYCLES",
        help="progress-event cadence in memory cycles",
    )

    submit = common(sub.add_parser(
        "submit", help="submit a matrix or an explicit cell list"
    ))
    group = submit.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--matrix", help="experiment matrix: fig7 | generations"
    )
    group.add_argument(
        "--cells", metavar="JSON",
        help="explicit JSON list of cell dicts (see DESIGN.md §15)",
    )
    submit.add_argument(
        "--params", metavar="JSON",
        help="matrix parameter overrides as a JSON object",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="higher preempts lower when the pool is full (default 0)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job completes; print its summary",
    )

    wait = common(sub.add_parser("wait", help="block until a job is done"))
    wait.add_argument("--job", required=True)

    watch = common(sub.add_parser(
        "watch", help="stream a job's progress events"
    ))
    watch.add_argument("--job", required=True)

    common(sub.add_parser("status", help="jobs, workers and queue depth"))
    common(sub.add_parser("ping", help="liveness check"))
    preempt = common(sub.add_parser(
        "preempt", help="SIGTERM the longest-running busy worker"
    ))
    preempt.add_argument(
        "--no-respawn", action="store_true",
        help="drain the slot for good instead of respawning",
    )
    common(sub.add_parser("shutdown", help="drain workers and exit"))
    return parser


def _client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(args.socket)


def _print(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the repro-serve command."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "start":
            from repro.service.server import PROGRESS_EVERY, run_server

            run_server(
                args.socket,
                workers=args.workers,
                progress_every=(
                    args.progress_every
                    if args.progress_every is not None
                    else PROGRESS_EVERY
                ),
            )
            return 0
        client = _client(args)
        if args.command == "submit":
            cells = json.loads(args.cells) if args.cells else None
            params = json.loads(args.params) if args.params else None
            _print(client.submit(
                matrix=args.matrix,
                cells=cells,
                params=params,
                priority=args.priority,
                wait=args.wait,
            ))
        elif args.command == "wait":
            _print(client.wait(args.job))
        elif args.command == "watch":
            for event in client.watch(args.job):
                print(json.dumps(event))
        elif args.command == "status":
            _print(client.status())
        elif args.command == "ping":
            _print(client.ping())
        elif args.command == "preempt":
            _print(client.preempt(respawn=not args.no_respawn))
        elif args.command == "shutdown":
            _print(client.shutdown())
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
