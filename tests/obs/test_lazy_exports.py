"""``repro.obs`` loads its exports on first use (PEP 562).

Every workload imports :mod:`repro.obs` for its tracer, metrics and
stages, but none of them runs the manifest, bench, diff, profile or
chrome-export code, so importing the package must not compile those
modules.  Each check runs in a fresh interpreter, so no module another
test imported can hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: The heavy observability modules no simulation, serve run or campaign uses.
HEAVY = ("bench", "manifest", "diff", "profile", "chrome")

#: Modules the jobs themselves import on first use: the controller registry
#: and the baselines it builds lazily, and the split-counter scheme.
FIRST_USE = ("repro.core.registry", "repro.baselines", "repro.crypto.split_counter")


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
