"""The campaign daemon: an asyncio line-delimited JSON socket server.

:class:`ServiceServer` binds one listener (TCP, or a UNIX socket) that
speaks the LDJSON protocol (:mod:`repro.service.protocol`) — submit
requests, stream records, query status — in front of one
:class:`~repro.service.scheduler.CampaignScheduler`, so every client
deduplicates against every other.  A client disconnect mid-request
orphans its messages only — the scheduler keeps executing the tuples and
the store retains the results.

:class:`ServiceDaemon` wraps a server in a background thread for
in-process use (tests, benchmarks, notebooks): ``start()`` blocks until
the socket is bound and returns the address; ``stop()`` shuts the loop
down cooperatively.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
from typing import Dict, List, Optional, Tuple

from ..eval.api import CampaignRequest
from ..eval.config import ExecConfig
from . import protocol
from .scheduler import CampaignScheduler, RequestState

logger = logging.getLogger("repro.service.server")


class ServiceServer:
    """One daemon: scheduler + socket listener."""

    def __init__(
        self,
        config: Optional[ExecConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ):
        self.scheduler = CampaignScheduler(config)
        self.host = host
        self.port = port
        #: UNIX-domain socket path for the LDJSON protocol.  When set, the
        #: TCP listener is not bound at all — tests and co-located tooling
        #: get a per-instance filesystem address with no port to collide on
        #: (the port-0 default already avoids fixed-port collisions for TCP).
        self.unix_path = unix_path
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns ``(host, port)`` of the socket API
        (``(unix_path, -1)`` when serving on a UNIX socket)."""
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.unix_path
            )
            self.port = -1
        else:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "campaign service listening on %s",
            self.unix_path if self.unix_path is not None else f"{self.host}:{self.port}",
        )
        if self.unix_path is not None:
            return self.unix_path, -1
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        await self.scheduler.aclose()

    # -- LDJSON socket protocol -----------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        states: List[RequestState] = []

        def send(msg: Dict) -> None:
            writer.write(protocol.encode(msg))

        send(protocol.hello())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    msg = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    send(protocol.error_message(str(exc)))
                    await writer.drain()
                    continue
                kind = msg["type"]
                if kind == "ping":
                    send({"type": "pong"})
                elif kind == "status":
                    send(self.scheduler.status())
                elif kind == "submit":
                    try:
                        request = CampaignRequest.from_dict(msg.get("request") or {})
                        state = await self.scheduler.submit(request, send=send)
                        states.append(state)
                    except Exception as exc:
                        logger.warning("rejected submit: %s", exc)
                        send(protocol.error_message(str(exc)))
                else:
                    send(protocol.error_message(f"unknown message type {kind!r}"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for state in states:
                if state.finished is not None and not state.finished.is_set():
                    self.scheduler.orphan(state)
            writer.close()


class ServiceDaemon:
    """A daemon on a background thread, for in-process embedding."""

    def __init__(
        self,
        config: Optional[ExecConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ):
        self.config = config
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.server: Optional[ServiceServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def scheduler(self) -> CampaignScheduler:
        assert self.server is not None, "daemon not started"
        return self.server.scheduler

    def start(self) -> Tuple[str, int]:
        """Start the loop thread; blocks until listening, returns the address."""
        self._thread = threading.Thread(
            target=self._thread_main, name="dpmr-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise RuntimeError("campaign service daemon failed to start in time")
        if self._error is not None:
            raise RuntimeError("campaign service daemon failed") from self._error
        return self.host, self.port

    def stop(self, timeout: float = 120.0) -> None:
        """Cooperative shutdown; joins the loop thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to start() or logged
            self._error = exc
            if not self._ready.is_set():
                self._ready.set()
            else:
                logger.exception("campaign service daemon died")

    async def _main(self) -> None:
        server = ServiceServer(
            self.config, self.host, self.port, unix_path=self.unix_path
        )
        await server.start()
        self.server = server
        self.host, self.port = server.host, server.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.aclose()
