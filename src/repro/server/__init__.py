"""The query service layer: serve an Engine under concurrent load.

``python -m repro.server`` starts a TCP server; in-process, wrap an
engine in a :class:`QueryService`::

    from repro import Engine
    from repro.server import QueryService
    from repro.tpch import logical_plan

    with QueryService(Engine(db), concurrency=4, queue_depth=64) as svc:
        response = svc.execute(logical_plan("Q6"))
        assert response.ok, response.error

See :mod:`repro.server.service` for the serving policies (admission
control, deadlines, load shedding, graceful drain) and
:mod:`repro.server.protocol` for the wire format.
"""

from .client import ServiceClient
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_CANCELLED,
    ERR_DEADLINE,
    ERR_EXECUTION,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    OP_QUERY,
    OP_STATS,
    ErrorInfo,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    STATUS_ERROR,
    STATUS_OK,
    StatsRequest,
    parse_query_spec,
    parse_request,
)
from .service import PendingQuery, QueryService, ServiceStats
from .tcp import StopReport, TcpQueryServer

__all__ = [
    "ERR_BAD_REQUEST",
    "ERR_CANCELLED",
    "ERR_DEADLINE",
    "ERR_EXECUTION",
    "ERR_QUEUE_FULL",
    "ERR_SHUTTING_DOWN",
    "ErrorInfo",
    "OP_QUERY",
    "OP_STATS",
    "PendingQuery",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "STATUS_ERROR",
    "STATUS_OK",
    "ServiceClient",
    "ServiceStats",
    "StatsRequest",
    "StopReport",
    "TcpQueryServer",
    "parse_query_spec",
    "parse_request",
]
