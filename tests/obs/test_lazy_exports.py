"""Cold set-up imports the simulation path and nothing else.

Every workload imports :mod:`repro.obs` for its tracer, metrics and
stages, but none of them runs the manifest, bench, diff, profile or
chrome-export code, so importing the package must not compile those
modules.  The same holds for the optional exports of the substrate
packages (PEP 562 tables in ``repro.crypto``, ``repro.hashes``,
``repro.nvm``, ``repro.analysis``, ``repro.workloads`` and
``repro.faults``) and for the runner's process-pool machinery, which
loads only where a pool runs.  Each check runs in a fresh interpreter, so
no module another test imported can hide a regression.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: The heavy observability modules no simulation, serve run or campaign uses.
HEAVY = ("bench", "manifest", "diff", "profile", "chrome")

#: Modules the jobs themselves import on first use: the controller registry
#: and the baselines it builds lazily.
FIRST_USE = ("repro.core.registry", "repro.baselines")

#: Modules no plan, serve run or campaign uses: the colocation budgets, the
#: AES cipher and direct encryption, the cryptographic digests, Start-Gap
#: wear levelling, the drift rules, charts, JSON export and trace files.
OPTIONAL = (
    "repro.core.colocation",
    "repro.crypto.aes",
    "repro.crypto.direct",
    "repro.hashes.md5_ref",
    "repro.hashes.sha1_ref",
    "repro.hashes.vector",
    "repro.nvm.wearlevel",
    "repro.obs.drift",
    "repro.analysis.charts",
    "repro.analysis.export",
    "repro.workloads.io",
)

#: Packages whose ``__all__`` must resolve in full.
PACKAGES = (
    "repro",
    "repro.core",
    "repro.crypto",
    "repro.hashes",
    "repro.nvm",
    "repro.analysis",
    "repro.workloads",
    "repro.faults",
)

_SETTINGS = "ExperimentSettings(accesses=300, seed=1, applications=('lbm',))"

#: Each cold set-up the benchmark times, as its public entry points do it.
SETUPS = {
    "plan-fig18": f"""
from repro.analysis import registry as figures
from repro.analysis.experiments import ExperimentSettings
figures.plan_for(["fig18"], {_SETTINGS})
""",
    "plan-system": f"""
from repro.analysis import registry as figures
from repro.analysis.experiments import ExperimentSettings
figures.plan_for(["system"], {_SETTINGS})
""",
    "campaign": """
from repro.faults.campaign import campaign_specs
campaign_specs(workload="lbm", accesses=200, seed=1, controllers=("dewrite", "secure-nvm"))
""",
    "serve": "import repro.serve.service\n",
}


def _within(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == prefix or module.startswith(prefix + ".") for prefix in prefixes)


def _run(script: str) -> object:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_entry_points_load_no_heavy_obs_module_and_every_export_resolves():
    loaded, unresolved = _run(
        """
import json, sys
import repro.serve.service, repro.analysis.registry, repro.faults.campaign
heavy = [f"repro.obs.{name}" for name in %r]
loaded = [name for name in heavy if name in sys.modules]
import repro.obs
unresolved = []
for name in repro.obs.__all__:
    try:
        getattr(repro.obs, name)
    except AttributeError:
        unresolved.append(name)
print(json.dumps([loaded, unresolved]))
"""
        % (HEAVY,)
    )
    assert loaded == []
    assert unresolved == []


def test_an_unknown_name_is_still_an_attribute_error():
    import repro.obs

    with pytest.raises(AttributeError, match="no_such_export"):
        repro.obs.no_such_export  # noqa: B018


def test_running_jobs_imports_nothing_beyond_the_first_use_modules():
    # A plan, a serve run and a campaign through their public entry points,
    # set up the way a cold run sets them up: whatever they import while
    # the jobs run is import work inside the timed region.
    new = _run(
        """
import json, sys
from repro.analysis import registry as figures
from repro.analysis.experiments import ExperimentSettings
from repro.faults.campaign import campaign_specs
from repro.runner.engine import run_jobs
from repro.serve.service import ServiceConfig, run_service
from repro.workloads.tenants import TenantTrafficConfig

plan = figures.plan_for(
    ["system"], ExperimentSettings(accesses=300, seed=1, applications=("lbm",))
)
campaign = campaign_specs(
    workload="lbm", accesses=200, seed=1, controllers=("dewrite", "secure-nvm")
)
config = ServiceConfig(traffic=TenantTrafficConfig(tenants=1000, accesses=400, seed=1), shards=2)
before = set(sys.modules)
run_jobs(plan, parallel=1, cache=None)
run_jobs(campaign, parallel=1, cache=None)
run_service(config, parallel=1, cache=None)
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""
    )
    assert isinstance(new, list) and new
    assert [name for name in new if not name.startswith(FIRST_USE)] == []


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_set_up_loads_no_optional_module_and_a_serial_one_no_pool(setup):
    loaded = _run(SETUPS[setup] + "import json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert [name for name in loaded if name in OPTIONAL] == []
    # Only the service, whose sharded runs dispatch over a pool, loads it.
    pool = [name for name in loaded if _within(name, ("concurrent", "multiprocessing"))]
    assert bool(pool) == (setup == "serve"), pool


def test_every_export_of_every_package_resolves_to_its_object():
    bad = _run(
        """
import importlib, json, types
bad = []
for name in %r:
    package = importlib.import_module(name)
    for export in package.__all__:
        try:
            value = getattr(package, export)
        except AttributeError:
            bad.append(f"{name}.{export}: unresolved")
            continue
        if isinstance(value, types.ModuleType):
            bad.append(f"{name}.{export}: a module")
print(json.dumps(bad))
"""
        % (PACKAGES,)
    )
    assert bad == []


@pytest.mark.parametrize(
    "package", [name for name in PACKAGES if name != "repro"] + ["repro.runner.engine"]
)
def test_an_unknown_name_is_an_attribute_error_in_every_lazy_module(package):
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(importlib.import_module(package), "no_such_export")


@pytest.mark.parametrize("package", PACKAGES[1:])
def test_no_lazy_export_shares_its_name_with_a_submodule(package):
    # Importing such a submodule would bind the module over the export.
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert sorted(set(module._EXPORTS) & submodules) == []


def test_importing_a_digest_module_leaves_the_digest_export_a_function():
    assert _run(
        "import json, repro.hashes.md5_ref, repro.hashes\n"
        "print(json.dumps(type(repro.hashes.md5).__name__))"
    ) == "function"


def test_a_serial_figure_run_loads_no_crash_serve_check_or_pool_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "run", "fig18", "--apps", "lbm",
         "--accesses", "300", "--no-cache", "--no-manifest", "--parallel", "1"],
        capture_output=True, text=True, env=env, check=True, cwd=tmp_path,
    )
    imported = [
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.analysis.registry" in imported
    unwanted = ("repro.faults", "repro.serve", "repro.check", "concurrent.futures")
    assert [name for name in imported if _within(name, unwanted)] == []
