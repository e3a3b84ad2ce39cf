"""The ``chronus set`` use case (paper Figure 10).

Three settable things: the database path, the blob-storage path, and the
plugin state (``activated`` / ``user`` / ``deactivated`` — "activates,
sets it to user or deactivates the plugin").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.application.interfaces import LocalStorageInterface
from repro.core.domain.settings import ChronusSettings, VALID_PLUGIN_STATES

__all__ = ["SettingsService"]


class SettingsService:
    """Reads and mutates the Chronus settings file."""

    def __init__(
        self,
        local_storage: LocalStorageInterface,
        *,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.local_storage = local_storage
        self._log = log or (lambda msg: None)

    def current(self) -> ChronusSettings:
        return self.local_storage.load()

    def set_database(self, path: str) -> ChronusSettings:
        if not path:
            raise ValueError("database path cannot be empty")
        settings = self.local_storage.load().with_database(path)
        self.local_storage.save(settings)
        self._log(f"database path set to {path}")
        return settings

    def set_blob_storage(self, path: str) -> ChronusSettings:
        if not path:
            raise ValueError("blob storage path cannot be empty")
        settings = self.local_storage.load().with_blob_storage(path)
        self.local_storage.save(settings)
        self._log(f"blob storage path set to {path}")
        return settings

    def set_state(self, state: str) -> ChronusSettings:
        if state not in VALID_PLUGIN_STATES:
            raise ValueError(
                f"state must be one of {VALID_PLUGIN_STATES}, got {state!r}"
            )
        settings = self.local_storage.load().with_state(state)
        self.local_storage.save(settings)
        self._log(f"plugin state set to {state}")
        return settings
