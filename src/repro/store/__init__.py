"""Result-store services on the engine's JSON cache directory.

The experiment engine's :class:`~repro.experiments.engine.ResultCache`
(one ``<hash>.json`` file per point, written atomically) is the only
result store.  This package adds the fleet-shaped services around it:

* :mod:`repro.store.farm` — lease-based sweep farm: N workers claim
  uncached points from a shared queue with crash-safe lease expiry and
  store each result as it finishes (``python -m repro.store.farm``);
* :mod:`repro.store.query` — the serving CLI: any registered figure or
  pivot query answered from a warm cache directory without touching the
  simulator (``python -m repro.store.query``);
* :mod:`repro.store.specs` — the registry of figure sweep specs the farm
  fills and the query CLI serves.

See the "result store" section of ``docs/architecture.md`` for the lease
lifecycle, and ``docs/experiments.md`` for recipes.
"""
