"""``repro serve`` — a sharded multi-tenant dedup-memory service.

The subsystem splits along the classic control/data plane line:

- **control plane** (:mod:`repro.serve.tenants`,
  :mod:`repro.serve.control`): the shard map and tenant registry that
  carve the address space, and the admission/backpressure policy;
- **data plane** (:mod:`repro.serve.service`): one content-keyed
  ``serve-shard`` job per shard, each driving a
  :class:`~repro.core.interface.MemoryController` over its synthesized
  tenant stream through the fused batch kernels (the global stream is
  routed once per process; each shard synthesizes only its own slice);
- **aggregation** (:mod:`repro.serve.report`): a pure fold merging the
  per-shard payloads into one :class:`~repro.system.metrics.SimulationReport`
  plus the service-level tables (cross-tenant dedup ratio, per-shard
  wear balance, p50/p99 simulated latency);
- **load generator** (:mod:`repro.serve.loadgen`): the seeded
  million-tenant traffic plan, inspectable without running a simulation.

Everything the data plane computes is a pure function of the seeded
:class:`~repro.workloads.tenants.TenantTrafficConfig`; nothing in the
subsystem reads the wall clock (see ``docs/architecture.md`` §18 for the
determinism argument).
"""
