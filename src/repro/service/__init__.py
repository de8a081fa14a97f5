"""Verification as a service: the ``repro serve`` daemon.

The long-running server around the batch/store substrate — line-framed
local protocol (:mod:`~repro.service.protocol`), bounded backpressure
queue (:mod:`~repro.service.queue`), per-tenant quota-isolated stores
(:mod:`~repro.service.tenants`), and the supervised component server
itself (:mod:`~repro.service.server`).  :mod:`~repro.service.client`
is the matching blocking client.
"""

from repro.service.client import ServiceClient
from repro.service.protocol import (
    DEFAULT_TENANT,
    MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    ParseError,
    RequestParser,
    ServiceRequest,
    certificate_digest,
    decode_response,
    encode_response,
    response_error,
    response_for_outcome,
    response_retry_after,
    response_shutdown,
)
from repro.service.queue import BoundedRequestQueue
from repro.service.server import (
    BATCH_WINDOW,
    PendingRequest,
    ServiceConfig,
    VerificationServer,
)
from repro.service.tenants import TenantLimitError, TenantStores

__all__ = [
    "BATCH_WINDOW",
    "BoundedRequestQueue",
    "DEFAULT_TENANT",
    "MAX_REQUEST_BYTES",
    "PROTOCOL_VERSION",
    "ParseError",
    "PendingRequest",
    "RequestParser",
    "ServiceClient",
    "ServiceConfig",
    "ServiceRequest",
    "TenantLimitError",
    "TenantStores",
    "VerificationServer",
    "certificate_digest",
    "decode_response",
    "encode_response",
    "response_error",
    "response_for_outcome",
    "response_retry_after",
    "response_shutdown",
]
