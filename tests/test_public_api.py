"""The curated public API surface.

``repro.__all__`` (and the layer ``__all__`` lists it re-exports from)
is the stability promise: every name must be importable, and the promise
must not silently grow or shrink — additions and removals go through
this file.  Also pins the post-soak removal of the PR-4 kwarg aliases:
``ExecConfig`` is the only execution-knob surface.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro


def _exports(module_name):
    module = importlib.import_module(module_name)
    assert isinstance(module.__all__, list) and module.__all__
    return module, module.__all__


class TestTopLevelSurface:
    def test_every_name_importable(self):
        module, names = _exports("repro")
        for name in names:
            assert getattr(module, name) is not None, name

    def test_no_duplicates_and_sorted(self):
        _, names = _exports("repro")
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_star_import_honours_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        public = {k for k in namespace if not k.startswith("_")}
        assert public == set(repro.__all__)

    def test_service_types_reachable_from_top_level(self):
        from repro import ServiceClient, ServiceDaemon, ServiceError

        assert issubclass(ServiceError, RuntimeError)
        assert callable(ServiceClient) and callable(ServiceDaemon)

    def test_request_types_reachable_from_top_level(self):
        from repro import CampaignRequest, CampaignResult, request_jobs, run

        assert callable(request_jobs) and callable(run)
        assert CampaignRequest.__dataclass_fields__.keys() >= {
            "workloads",
            "kinds",
            "variants",
            "seeds",
            "max_sites",
        }
        assert CampaignResult is not None


class TestLayerSurfaces:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.eval", "repro.service", "repro.obs", "repro.core"],
    )
    def test_layer_all_importable(self, module_name):
        module, names = _exports(module_name)
        for name in names:
            assert getattr(module, name) is not None, f"{module_name}.{name}"

    def test_eval_all_covers_top_level_reexports(self):
        # Everything repro re-exports from repro.eval is itself public there.
        _, eval_names = _exports("repro.eval")
        from_eval = {
            "CampaignRequest",
            "CampaignResult",
            "ExecConfig",
            "ExperimentRecord",
            "ResultStore",
            "Variant",
            "WorkloadHarness",
            "diversity_variants",
            "policy_variants",
            "request_jobs",
            "resolve_variants",
            "run",
            "stdapp_variant",
            "variant_registry",
        }
        assert from_eval <= set(eval_names)


def _fresh_process(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    ``repro``; returns what it prints as JSON."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


class TestImportScope:
    """A process loads the service's asyncio stack and the worker pool's
    ``multiprocessing`` only when it serves or forks."""

    def test_library_import_loads_neither(self):
        out = _fresh_process(
            """
            import json, sys
            import repro, repro.eval
            loaded = [m for m in ("asyncio", "multiprocessing") if m in sys.modules]
            names = ("ServiceClient", "ServiceDaemon", "ServiceError")
            lazy = [getattr(repro, n) for n in names]
            service = sys.modules["repro.service"]
            print(json.dumps({
                "loaded": loaded,
                "resolved": [o is getattr(service, n) for o, n in zip(lazy, names)],
            }))
            """
        )
        assert out == {"loaded": [], "resolved": [True, True, True]}

    def test_serial_daemon_loads_no_pool(self, tmp_path):
        out = _fresh_process(
            """
            import json, sys
            import repro.service.__main__
            after_import = "multiprocessing" in sys.modules
            from repro import CampaignRequest, ExecConfig, ServiceClient, ServiceDaemon
            from repro.faultinject import HEAP_ARRAY_RESIZE
            request = CampaignRequest(
                workloads=("mcf",),
                kinds=(HEAP_ARRAY_RESIZE,),
                variants=("no-diversity",),
                max_sites=1,
            )
            with ServiceDaemon(ExecConfig(jobs=1), unix_path=sys.argv[1]):
                with ServiceClient(unix_path=sys.argv[1]) as client:
                    records = len(client.submit(request).records)
            print(json.dumps([after_import, records, "multiprocessing" in sys.modules]))
            """,
            str(tmp_path / "d.sock"),
        )
        after_import, records, after_serving = out
        assert records > 0
        assert after_import is False and after_serving is False

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro, "no_such_name")


class TestRemovedKnobSurface:
    """The deprecated per-call aliases are gone, not just warning."""

    def test_merge_deprecated_removed(self):
        with pytest.raises(ImportError):
            from repro.eval.config import merge_deprecated  # noqa: F401

    def test_no_alias_kwargs_in_signatures(self):
        import inspect

        from repro.eval import run_campaign_jobs
        from repro.eval.experiment import WorkloadHarness

        removed = {
            # run_campaign_jobs's first positional is the job *list*;
            # the removed alias there was processes=.
            run_campaign_jobs: ("processes", "incremental"),
            WorkloadHarness.run_campaign: ("jobs", "processes", "incremental"),
        }
        for func, gone_names in removed.items():
            params = inspect.signature(func).parameters
            for gone in gone_names:
                assert gone not in params, f"{func.__qualname__} kept {gone}="
            assert "config" in params
