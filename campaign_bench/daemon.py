"""Traced campaign daemon: span wrappers first, then ``python -m repro.service``.

``python campaign_bench/daemon.py <span dir> [repro.service arguments]``.
The spans are written when the daemon exits on SIGINT.
"""

import sys

import spans

if __name__ == "__main__":
    spans.install(sys.argv[1])
    from repro.service.__main__ import main

    raise SystemExit(main(sys.argv[2:]))
