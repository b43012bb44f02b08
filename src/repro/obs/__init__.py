"""dynscope — unified observability for the Dyn-MPI reproduction.

One recording, many views: every layer (runtime adaptation, the
redistribution data plane, the MPI layer, resilience, load and failure
scripts, the simulator's CPU scheduler and NIC model) emits
spans/instants/metrics into an :class:`ObsRecorder`;
exporters turn the recording into a Perfetto-loadable Chrome trace, a
flat JSONL log, or a per-phase cost-attribution report.  See
docs/OBSERVABILITY.md.

Enablement mirrors the dynsan sanitizer: ``ClusterSpec(observe=True)``
or ``DYNMPI_OBS=1`` attaches a recorder as ``cluster.obs``;
otherwise ``cluster.obs`` is ``None`` and every instrumentation hook is
one ``is not None`` test (zero recording overhead, and — because the
hooks never add simulated cost — identical simulation results either
way).

CLI: ``python -m repro.obs {summarize,export,diff,validate}``.

This package root stays light (recorder + registry + exporters); the
canonical scenario and the report/CLI layers import application code
and are loaded lazily by ``__main__``.
"""

from .recorder import (
    CPU_TID,
    JOB_PID,
    NET_PID,
    ObsEvent,
    ObsRecorder,
    obs_enabled,
)
from .registry import Histogram, MetricsRegistry
from .export import (chrome_json, chrome_trace, jsonl_text, load_trace,
                     trace_events, write_trace)
from .schema import validate_chrome, validate_chrome_file

__all__ = [
    "CPU_TID",
    "JOB_PID",
    "NET_PID",
    "Histogram",
    "MetricsRegistry",
    "ObsEvent",
    "ObsRecorder",
    "chrome_json",
    "chrome_trace",
    "jsonl_text",
    "load_trace",
    "obs_enabled",
    "trace_events",
    "validate_chrome",
    "validate_chrome_file",
    "write_trace",
]
