"""A-C — metrics counters actor (SURVEY.md §2.3).

Stages report per-batch counters fire-and-forget (``.add.remote`` with
no ray.get); the driver snapshots them at each epoch commit into the
epoch's counters.json. One actor is enough: increments are tiny and
batched per block.
"""

from __future__ import annotations

from collections import defaultdict

import ray


@ray.remote(num_cpus=0.05)
class CountersActor:
    """Increments are idempotent when the reporter passes a retry-stable
    token (``seen.idem_token``): a Ray-retried fetch task re-reports with
    the same token and the duplicate is dropped. The replay log spans
    one epoch: a retry arrives before its epoch commits, and the commit
    (``snapshot``) clears the log, so a later epoch re-reporting
    byte-identical content counts again."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: set[bytes] = set()

    def add(self, _token: bytes | None = None, **kv: int) -> None:
        if _token is not None:
            if _token in self._seen:
                return
            self._seen.add(_token)
        for k, v in kv.items():
            self.counts[k] += int(v)

    def snapshot(self) -> dict[str, int]:
        """The counts to checkpoint at an epoch commit; clears the
        replay log (the commit point, like SeenShard.save)."""
        self._seen.clear()
        return dict(self.counts)

    def flush(self) -> dict[str, int]:
        out = self.snapshot()
        self.counts = defaultdict(int)
        return out

    def restore(self, counts: dict) -> None:
        self.counts = defaultdict(int, {k: int(v) for k, v in counts.items()})

    def peek(self) -> dict[str, int]:
        return dict(self.counts)
