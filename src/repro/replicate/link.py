"""The shipping link: the fault surface between primary and replica.

A :class:`ShippingLink` is the only path a shipped record takes to its
replica, which makes it the natural place to model network failure.
Two mechanisms cover the failure modes the tests and the chaos
campaign need:

* an explicit partition — :meth:`ShippingLink.wedge` makes every send
  fail with :class:`~repro.errors.TransientEngineError` until
  :meth:`ShippingLink.heal`; deterministic, no rule bookkeeping;
* a seeded :class:`~repro.relational.faults.FaultPlan`, ticked through
  a :class:`~repro.relational.faults.FaultHook` under the operation
  name ``"ship"`` — the same rule language the engines use
  (``transient_rate``, ``transient_burst``, ``latency``, ...), so a
  flaky link is reproducible from a seed.

A failed send does not lose the record: the primary's
:class:`~repro.replicate.replicaset.ReplicaSet` keeps the stream and
re-ships the backlog from this link's cursor on the next write (or an
explicit catch-up), and the replica's position check makes re-delivery
idempotent.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TransientEngineError
from repro.relational.faults import FaultHook, FaultPlan
from repro.relational.journal import UpdateRecord
from repro.replicate.replica import ReplicaStack

__all__ = ["ShippingLink"]


class ShippingLink:
    """One primary-to-replica shipping channel with injectable faults.

    :attr:`cursor` is the primary-side shipping position: how many
    stream records this replica has confirmed durable receipt of. It
    only advances when :meth:`send` returns, so a fault leaves the
    backlog intact for redelivery.
    """

    def __init__(
        self, replica: ReplicaStack, plan: Optional[FaultPlan] = None
    ) -> None:
        self.replica = replica
        self.hook = FaultHook(plan)
        self.cursor = 0
        self.sends = 0
        self._wedged = False

    # -- partition control ---------------------------------------------------

    def wedge(self) -> None:
        """Partition the link: every send fails until :meth:`heal`."""
        self._wedged = True

    def heal(self) -> None:
        self._wedged = False

    @property
    def wedged(self) -> bool:
        return self._wedged

    @property
    def reachable(self) -> bool:
        """Whether a send could plausibly succeed right now."""
        return not self._wedged and not self.replica.killed

    # -- shipping ------------------------------------------------------------

    def send(self, epoch: int, position: int, record: UpdateRecord) -> None:
        """Deliver one stream record; raises on partition/fault/fence."""
        if self._wedged:
            raise TransientEngineError(
                f"shipping link to replica {self.replica.name!r} is "
                f"partitioned"
            )
        self.hook.tick("ship")
        self.replica.receive(epoch, position, record)
        self.sends += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShippingLink(to={self.replica.name!r}, cursor={self.cursor}, "
            f"wedged={self._wedged})"
        )
