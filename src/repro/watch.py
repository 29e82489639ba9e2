"""Change notification for state that a cached view derives from.

The SDM controller's resource registry keeps one availability snapshot
per brick and rebuilds only the bricks whose state changed since the
last query.  Every object a snapshot field reads from — the brick's
power state, the hypervisor's VM set, the kernel's RAM reservation,
the hotplug section counts, the memory allocator's free list — derives
from :class:`Watched` and calls :meth:`Watched._changed` whenever that
state changes; the registry subscribes a callback that marks the
brick dirty.

Callbacks take no arguments and must not raise; an object with no
watchers pays one empty-tuple loop per change.
"""

from __future__ import annotations

from typing import Callable

Watcher = Callable[[], None]


class Watched:
    """Mixin: notifies subscribed callbacks when its state changes."""

    #: Subscribed callbacks (a tuple: the notification loop is cheap).
    _watchers: tuple[Watcher, ...] = ()

    def add_watcher(self, callback: Watcher) -> None:
        """Call *callback* after every change of this object's state."""
        self._watchers = self._watchers + (callback,)

    def _changed(self) -> None:
        for callback in self._watchers:
            callback()
