"""One error surface for the serving layer: envelope shape + status map.

Every error the HTTP front end (or an in-band batch answer) reports is
rendered through :func:`error_envelope`, so clients parse exactly one
shape::

    {"error": {"type": "<ExceptionClassName>", "message": "<human text>",
               "detail": <JSON or null>}}

The HTTP status mapping is a documented table (:data:`STATUS_BY_ERROR`,
resolved by :func:`status_for`):

===============================  ======
exception                        status
===============================  ======
``OverloadedError``              429
``UnknownDatasetError``          404
``ValidationError`` (and the
stdlib ``ValueError`` /
``KeyError`` / ``TypeError``)    400
any other ``ReproError``         422
anything else (internal)         500
===============================  ======

``docs/api.md`` renders the same table for clients.
"""

from __future__ import annotations

from ..exceptions import (
    OverloadedError,
    ReproError,
    UnknownDatasetError,
    ValidationError,
)

#: the documented exception → HTTP status table, most specific first.
#: :func:`status_for` walks it in order, so subclasses must precede
#: their bases.
STATUS_BY_ERROR: tuple[tuple[type, int], ...] = (
    (OverloadedError, 429),
    (UnknownDatasetError, 404),
    (ValidationError, 400),
    (ValueError, 400),
    (KeyError, 400),
    (TypeError, 400),
    (ReproError, 422),
)

#: status of an exception no row matches (internal server error).
INTERNAL_STATUS = 500


def status_for(exc: BaseException) -> int:
    """The HTTP status of *exc* per the documented mapping table."""
    for exc_type, status in STATUS_BY_ERROR:
        if isinstance(exc, exc_type):
            return status
    return INTERNAL_STATUS


def error_envelope(type_name: str, message: str, detail=None) -> dict:
    """The canonical error body.

    ``detail`` is optional structured context (e.g. the current dataset
    version a superseded pin should re-resolve to); it must already be
    JSON-serializable.
    """
    return {"error": {"type": type_name, "message": message, "detail": detail}}


def error_payload(exc: BaseException, detail=None) -> dict:
    """Render an exception as the canonical in-band error envelope."""
    message = str(exc) or exc.__class__.__name__
    return error_envelope(exc.__class__.__name__, message, detail)
