"""``python -m repro.service`` — run the campaign daemon.

Execution knobs come from the environment (``DPMR_*``, see
:mod:`repro.eval.config`); ``--store`` overrides ``DPMR_STORE`` so a
daemon is trivially pointed at a result-store directory::

    python -m repro.service --port 7421 --store /var/tmp/dpmr-store
"""

from __future__ import annotations

import argparse
import asyncio
import logging
from dataclasses import replace
from typing import Optional, Sequence

from ..eval.config import ExecConfig
from .server import ServiceServer


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the DPMR campaign service daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7421, help="LDJSON socket port (0 = ephemeral)"
    )
    parser.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="serve the LDJSON protocol on this UNIX socket instead of TCP",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="result-store directory (overrides DPMR_STORE)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ExecConfig.from_env()
    if args.store is not None:
        config = replace(config, store_path=args.store)
    try:
        asyncio.run(_serve(config, args.host, args.port, args.unix))
    except KeyboardInterrupt:
        pass
    return 0


async def _serve(
    config: ExecConfig,
    host: str,
    port: int,
    unix_path: Optional[str] = None,
) -> None:
    server = ServiceServer(config, host, port, unix_path=unix_path)
    await server.start()
    where = unix_path if unix_path is not None else f"{server.host}:{server.port}"
    print(f"dpmr campaign service listening on {where}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()


if __name__ == "__main__":
    raise SystemExit(main())
