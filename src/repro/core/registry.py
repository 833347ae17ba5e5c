"""Controller registry: build any memory controller from a string name.

Every evaluation site used to hand-construct its controllers, which meant
the experiment runners, the CLI and the baselines each grew their own
copy of the wiring and no generic machinery (job planner, cache keys,
sweeps) could name a configuration.  This registry is the single factory:

    >>> from repro.core.registry import build_controller
    >>> controller = build_controller("dewrite", nvm, mode="direct")

Registered names (see :func:`available_controllers`):

- ``"dewrite"``            — the paper's predictive controller (§III);
- ``"direct"``             — DeWrite machinery, serial detection → AES (Fig. 3a);
- ``"parallel"``           — DeWrite machinery, always-speculative AES (Fig. 3b);
- ``"secure-nvm"``         — the CME-only baseline (§IV-A);
- ``"traditional-dedup"``  — trusted SHA-1/MD5 in-line dedup (Table I);
- ``"silent-shredder"``    — zero-line elimination only (§V);
- ``"out-of-line"``        — background page dedup, capacity only (§V);
- ``"i-nvmm"``             — hot-data-in-plaintext optimisation (§V).

Builders accept either ready config objects (``config=DeWriteConfig(...)``)
for in-process callers, or plain JSON-shaped keyword options (for example
``metadata_cache={"hash_cache_bytes": 8192, ...}``) so a controller spec
can travel inside a serialised :class:`repro.runner.jobs.JobSpec` to a
worker process or a cache key.

Builders import their controller classes lazily so registering the whole
catalogue does not import every baseline at ``repro.core`` import time
(and cannot create import cycles with :mod:`repro.baselines`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.core.interface import MemoryController
    from repro.nvm.memory import NvmMainMemory

ControllerBuilder = Callable[..., "MemoryController"]

_BUILDERS: dict[str, tuple[ControllerBuilder, str]] = {}


class UnknownControllerError(KeyError):
    """Raised when a controller name is not registered."""


def register_controller(
    name: str,
    builder: ControllerBuilder,
    *,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register ``builder`` under ``name``.

    Args:
        name: the public string name (kebab-case by convention).
        builder: callable ``(nvm, **opts) -> MemoryController``.
        description: one-line summary shown by ``python -m repro list``.
        replace: allow overwriting an existing registration.
    """
    if not replace and name in _BUILDERS:
        raise ValueError(f"controller {name!r} is already registered")
    _BUILDERS[name] = (builder, description)


def available_controllers() -> dict[str, str]:
    """Registered names mapped to their one-line descriptions."""
    return {name: description for name, (_, description) in sorted(_BUILDERS.items())}


def build_controller(name: str, nvm: "NvmMainMemory", **opts: Any) -> "MemoryController":
    """Construct the controller registered under ``name`` on ``nvm``.

    ``tracer=...``, ``timeline=...`` and ``stages=...`` are handled here
    for every registered controller: each is popped before the builder
    runs and attached via
    :meth:`~repro.core.interface.MemoryController.attach_observers`, so any
    caller (the ``trace``/``timeline`` CLI verbs, the overhead
    gate, tests) can observe any controller without per-builder wiring.
    All three are in-process objects — they never travel inside serialised
    job specs (the ``simulate`` job kind carries a ``timeline_window_ns``
    parameter instead and builds the collector worker-side).
    """
    tracer = opts.pop("tracer", None)
    timeline = opts.pop("timeline", None)
    stages = opts.pop("stages", None)
    try:
        builder, _ = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise UnknownControllerError(
            f"unknown controller {name!r}; registered: {known}"
        ) from None
    controller = builder(nvm, **opts)
    if tracer is not None or timeline is not None or stages is not None:
        controller.attach_observers(tracer=tracer, timeline=timeline, stages=stages)
    return controller


# ---------------------------------------------------------------------------
# Default catalogue
# ---------------------------------------------------------------------------


def _dewrite_config_from(opts: dict[str, Any]) -> Any:
    """Build a :class:`DeWriteConfig` from JSON-shaped keyword options.

    ``metadata_cache`` may be a plain dict of :class:`MetadataCacheConfig`
    fields and ``persistence`` a plain dict of
    :class:`~repro.core.persistence.MetadataPersistenceConfig` fields (with
    the policy as its string value, e.g. ``{"policy": "periodic_writeback",
    "writeback_interval_ns": 50000.0}``), so both can travel inside a
    serialised job spec; every other key is passed to ``DeWriteConfig``
    directly.  Returns ``None`` when no options are given (controller
    default).
    """
    from repro.core.config import DeWriteConfig, MetadataCacheConfig
    from repro.core.persistence import (
        MetadataPersistenceConfig,
        MetadataPersistencePolicy,
    )

    if not opts:
        return None
    kwargs = dict(opts)
    metadata_cache = kwargs.pop("metadata_cache", None)
    if isinstance(metadata_cache, dict):
        metadata_cache = MetadataCacheConfig(**metadata_cache)
    if metadata_cache is not None:
        kwargs["metadata_cache"] = metadata_cache
    persistence = kwargs.pop("persistence", None)
    if isinstance(persistence, dict):
        fields = dict(persistence)
        policy = fields.pop("policy", None)
        if policy is not None:
            fields["policy"] = MetadataPersistencePolicy(policy)
        persistence = MetadataPersistenceConfig(**fields)
    if persistence is not None:
        kwargs["persistence"] = persistence
    return DeWriteConfig(**kwargs)


def _build_dewrite(
    nvm: "NvmMainMemory",
    mode: str = "predictive",
    config: Any = None,
    cme: Any = None,
    **overrides: Any,
) -> "MemoryController":
    from repro.core.dewrite import DeWriteController

    if config is not None and overrides:
        raise ValueError("pass either a config object or field overrides, not both")
    if config is None:
        config = _dewrite_config_from(overrides)
    return DeWriteController(nvm, config=config, mode=mode, cme=cme)


def _build_direct(nvm: "NvmMainMemory", **opts: Any) -> "MemoryController":
    if "mode" in opts:
        raise ValueError('the "direct" controller fixes mode="direct"')
    return _build_dewrite(nvm, mode="direct", **opts)


def _build_parallel(nvm: "NvmMainMemory", **opts: Any) -> "MemoryController":
    if "mode" in opts:
        raise ValueError('the "parallel" controller fixes mode="parallel"')
    return _build_dewrite(nvm, mode="parallel", **opts)


def _secure_config_from(opts: dict[str, Any]) -> Any:
    from repro.baselines.secure_nvm import SecureNvmConfig

    if not opts:
        return None
    return SecureNvmConfig(**opts)


def _build_secure_nvm(
    nvm: "NvmMainMemory", config: Any = None, cme: Any = None, **overrides: Any
) -> "MemoryController":
    from repro.baselines.secure_nvm import TraditionalSecureNvmController

    if config is not None and overrides:
        raise ValueError("pass either a config object or field overrides, not both")
    if config is None:
        config = _secure_config_from(overrides)
    return TraditionalSecureNvmController(nvm, config=config, cme=cme)


def _build_traditional_dedup(nvm: "NvmMainMemory", **opts: Any) -> "MemoryController":
    from repro.baselines.traditional_dedup import traditional_dedup_controller

    return traditional_dedup_controller(nvm, **opts)


def _build_silent_shredder(
    nvm: "NvmMainMemory", config: Any = None, cme: Any = None, **overrides: Any
) -> "MemoryController":
    from repro.baselines.silent_shredder import SilentShredderController

    if config is not None and overrides:
        raise ValueError("pass either a config object or field overrides, not both")
    if config is None:
        config = _secure_config_from(overrides)
    return SilentShredderController(nvm, config=config, cme=cme)


def _build_out_of_line(
    nvm: "NvmMainMemory",
    config: Any = None,
    cme: Any = None,
    lines_per_page: int = 16,
    scan_interval_writes: int = 256,
    **overrides: Any,
) -> "MemoryController":
    from repro.baselines.out_of_line import OutOfLinePageDedupController

    if config is not None and overrides:
        raise ValueError("pass either a config object or field overrides, not both")
    if config is None:
        config = _secure_config_from(overrides)
    return OutOfLinePageDedupController(
        nvm,
        config=config,
        cme=cme,
        lines_per_page=lines_per_page,
        scan_interval_writes=scan_interval_writes,
    )


def _build_i_nvmm(
    nvm: "NvmMainMemory",
    config: Any = None,
    cme: Any = None,
    hot_set_lines: int = 4096,
    **overrides: Any,
) -> "MemoryController":
    from repro.baselines.i_nvmm import INvmmController

    if config is not None and overrides:
        raise ValueError("pass either a config object or field overrides, not both")
    if config is None:
        config = _secure_config_from(overrides)
    return INvmmController(nvm, config=config, cme=cme, hot_set_lines=hot_set_lines)


register_controller(
    "dewrite", _build_dewrite, description="DeWrite predictive controller (paper SIII)"
)
register_controller(
    "direct", _build_direct, description="direct way: serial detection then AES (Fig. 3a)"
)
register_controller(
    "parallel", _build_parallel, description="parallel way: always-speculative AES (Fig. 3b)"
)
register_controller(
    "secure-nvm", _build_secure_nvm, description="CME-only baseline secure NVM (SIV-A)"
)
register_controller(
    "traditional-dedup",
    _build_traditional_dedup,
    description="trusted SHA-1/MD5 in-line dedup (Table I)",
)
register_controller(
    "silent-shredder",
    _build_silent_shredder,
    description="zero-line write elimination only (SV)",
)
register_controller(
    "out-of-line",
    _build_out_of_line,
    description="background page dedup: capacity, not endurance (SV)",
)
register_controller(
    "i-nvmm", _build_i_nvmm, description="hot data kept plaintext, cold encrypted (SV)"
)
