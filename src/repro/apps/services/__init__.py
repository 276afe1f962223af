"""Production-style service workloads on Notified Access.

Serving applications driven by the open-loop generator in
:mod:`repro.bench.load`:

* :func:`~repro.apps.services.kv.run_kv` — sharded key-value store
  (notified puts with counting replication acks, one-sided directory
  gets);
* :func:`~repro.apps.services.kv_ft.run_kv_ft` — the same store with
  the :mod:`repro.ft` layer on: replication failover, buddy epoch
  checkpoints, crash-exiting servers under node-failure injection;
* :func:`~repro.apps.services.pubsub.run_pubsub` — pub/sub broker
  (publisher fan-out, counting-notification batch wakeup on
  subscribers); ``replication > 1`` or a fault plan switches on
  mirror-broker durability under broker deaths.
"""

from repro.apps.services.kv import build_kv_workload, run_kv
from repro.apps.services.kv_ft import run_kv_ft
from repro.apps.services.pubsub import build_pubsub_workload, run_pubsub

__all__ = [
    "build_kv_workload",
    "build_pubsub_workload",
    "run_kv",
    "run_kv_ft",
    "run_pubsub",
]
