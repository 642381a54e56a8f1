"""The shipping link: the fault surface between primary and replica.

A :class:`ShippingLink` is the only path a shipped record takes to its
replica, which makes it the natural place to model network failure: a
partition is *state* — :meth:`ShippingLink.wedge` makes every send fail
with :class:`~repro.errors.TransientEngineError` until
:meth:`ShippingLink.heal`. A flaky link is a *rule*: the replica set
ticks its ``failpoint`` at ``"ship"`` before every send, in the rule
language the engines use (``FaultRule``, ``call_at``, ...).

A failed send does not lose the record: the primary's
:class:`~repro.replicate.replicaset.ReplicaSet` keeps the stream and
re-ships the backlog from this link's cursor on the next write (or an
explicit catch-up), and the replica's position check makes re-delivery
idempotent.
"""

from __future__ import annotations

from repro.errors import TransientEngineError
from repro.relational.journal import UpdateRecord
from repro.replicate.replica import ReplicaStack

__all__ = ["ShippingLink"]


class ShippingLink:
    """One primary-to-replica shipping channel that can be partitioned.

    :attr:`cursor` is the primary-side shipping position: how many
    stream records this replica has confirmed durable receipt of. It
    only advances when :meth:`send` returns, so a fault leaves the
    backlog intact for redelivery.
    """

    def __init__(self, replica: ReplicaStack) -> None:
        self.replica = replica
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
        """Deliver one stream record; raises on partition or fence."""
        if self._wedged:
            raise TransientEngineError(
                f"shipping link to replica {self.replica.name!r} is "
                f"partitioned"
            )
        self.replica.receive(epoch, position, record)
        self.sends += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShippingLink(to={self.replica.name!r}, cursor={self.cursor}, "
            f"wedged={self._wedged})"
        )
