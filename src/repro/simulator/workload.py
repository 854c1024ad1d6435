"""Request generators.

The paper characterizes services at peak load in a closed-loop fashion
(every worker always has a request to serve); :func:`request_stream` feeds
workers that way.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .hotcore import BlockSampler
from .service import RequestSpec

__all__ = ["BlockSampler", "request_stream"]


def request_stream(
    factory: Callable[[], RequestSpec], limit: Optional[int] = None
) -> Iterator[RequestSpec]:
    """An iterator of requests for a closed-loop worker.

    With ``limit=None`` the stream is infinite: the worker always has new
    work, which models the paper's peak-load measurement condition.
    """
    produced = 0
    while limit is None or produced < limit:
        yield factory()
        produced += 1
