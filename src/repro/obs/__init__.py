"""Zero-dependency observability: telemetry and run manifests.

See :mod:`repro.obs.telemetry` for the counters/spans/events model and
:mod:`repro.obs.manifest` for the ``RunManifest`` JSON artifact.
"""

from repro.obs.latency import LatencyReservoir, merge_summaries
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    canonicalize,
    fingerprint_config,
    library_versions,
)
from repro.obs.runlog import RunLog
from repro.obs.telemetry import (
    CORE_COUNTERS,
    CORE_SPANS,
    NULL_TELEMETRY,
    STAGE_PREFIX,
    NullTelemetry,
    Telemetry,
    merge_payloads,
)

__all__ = [
    "CORE_COUNTERS",
    "CORE_SPANS",
    "LatencyReservoir",
    "MANIFEST_SCHEMA",
    "NULL_TELEMETRY",
    "STAGE_PREFIX",
    "NullTelemetry",
    "RunLog",
    "RunManifest",
    "Telemetry",
    "build_manifest",
    "canonicalize",
    "fingerprint_config",
    "library_versions",
    "merge_payloads",
    "merge_summaries",
]
