"""Analysis-as-a-service: the multi-tenant HTTP API over the work queue.

The service layer turns the distributed runtime into a server: clients
POST batches of :class:`~repro.engine.requests.AnalysisRequest` payloads
and get back a *job* — an explicit state machine (``queued → running →
done | failed | cancelled``) derived from the durable task states of the
underlying :class:`~repro.distributed.queue.WorkQueue`.  Execution is
the ordinary worker fleet; the service only validates, admits, and
translates.

Layout:

* :mod:`repro.service.tenants` — API keys, constant-time authentication,
  per-tenant quota configuration.
* :mod:`repro.service.quotas` — admission control: durable in-flight
  caps and in-memory token-bucket rate limits.
* :mod:`repro.service.jobs` — batch validation, job descriptors in queue
  meta, the derived job state machine.
* :mod:`repro.service.api` — the HTTP surface (``atcd api``): submit,
  poll, NDJSON streaming, cancel.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "API_KEY_HEADER": "tenants",
    "JOB_STATES": "jobs",
    "MIN_KEY_LENGTH": "tenants",
    "SERVICE_NAME": "api",
    "SERVICE_VERSION": "api",
    "TERMINAL_STATES": "jobs",
    "JobError": "jobs",
    "JobManager": "jobs",
    "JobValidationError": "jobs",
    "QuotaExceeded": "quotas",
    "QuotaManager": "quotas",
    "ServiceServer": "api",
    "Tenant": "tenants",
    "TenantRegistry": "tenants",
    "TokenBucket": "quotas",
    "validate_batch": "jobs",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
