"""Chronus settings: the ``/etc/chronus/settings.json`` contents.

The ``chronus set`` command (paper Figure 10) manages three things: the
database path, the blob-storage path, and the plugin state
(activated / user / deactivated).

The ``loaded_models`` mapping is the *registry projection*: the model
registry's lifecycle operations (``load-model``, ``chronus models
promote``/``rollback``/``shadow``) materialize the current active model
per ``(system, application)`` here — local artifact path, type, and the
registry identity (``model_id``, ``version``, ``stage``) — so
``slurm-config`` can answer inside Slurm's plugin time budget without
touching the database, yet every answer stays attributable to the exact
registry row that produced it.  ``shadow_models`` is the same projection
for the shadow stage: evaluated on sampled traffic, never served.

Settings files written before the registry existed carry bare
``{"path", "type"}`` entries; they load cleanly with a zero model id
(identity unknown) and ``stage="active"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["ChronusSettings", "VALID_PLUGIN_STATES", "model_entry"]

VALID_PLUGIN_STATES = ("activated", "user", "deactivated")


def model_entry(
    path: str,
    model_type: str,
    *,
    model_id: int = 0,
    version: int = 0,
    stage: str = "active",
) -> dict[str, Any]:
    """One materialized model pointer (the settings-side registry row)."""
    return {
        "path": path,
        "type": model_type,
        "model_id": int(model_id),
        "version": int(version),
        "stage": stage,
    }


def _entry_from_raw(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Parse a settings entry, tolerating pre-registry ``{path, type}``."""
    return model_entry(
        str(raw["path"]),
        str(raw["type"]),
        model_id=int(raw.get("model_id") or 0),
        version=int(raw.get("version") or 0),
        stage=str(raw.get("stage") or "active"),
    )


@dataclass(frozen=True)
class ChronusSettings:
    """Immutable settings snapshot; updates go through ``with_*`` copies."""

    database_path: str = "chronus.db"
    blob_storage_path: str = "./optimizers"
    plugin_state: str = "user"
    #: materialized *active* models: keyed "system_id" (legacy, last
    #: loaded) and "system_id:application" (per-application dispatch);
    #: values are :func:`model_entry` dicts
    loaded_models: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: materialized *shadow* models, keyed "system_id:application" only —
    #: a shadow is always scoped to the active model it runs next to
    shadow_models: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: binary-hash (decimal string) -> application name, the mapping that
    #: fixes the paper's hard-coded-binary limitation (6.1.2)
    binary_aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.plugin_state not in VALID_PLUGIN_STATES:
            raise ValueError(
                f"plugin_state must be one of {VALID_PLUGIN_STATES}, "
                f"got {self.plugin_state!r}"
            )

    # ------------------------------------------------------------------
    def with_database(self, path: str) -> "ChronusSettings":
        return replace(self, database_path=path)

    def with_blob_storage(self, path: str) -> "ChronusSettings":
        return replace(self, blob_storage_path=path)

    def with_state(self, state: str) -> "ChronusSettings":
        return replace(self, plugin_state=state)

    def with_loaded_model(
        self, system_id: int, local_path: str, model_type: str,
        application: str = "",
        *,
        model_id: int = 0,
        version: int = 0,
    ) -> "ChronusSettings":
        models = dict(self.loaded_models)
        entry = model_entry(
            local_path, model_type, model_id=model_id, version=version
        )
        models[str(system_id)] = entry
        if application:
            models[f"{system_id}:{application}"] = entry
        return replace(self, loaded_models=models)

    def loaded_model_for(
        self, system_id: int, application: str = ""
    ) -> "dict[str, Any] | None":
        if application:
            entry = self.loaded_models.get(f"{system_id}:{application}")
            if entry is not None:
                return entry
        return self.loaded_models.get(str(system_id))

    # --- shadow projection --------------------------------------------
    def with_shadow_model(
        self, system_id: int, application: str, local_path: str,
        model_type: str,
        *,
        model_id: int = 0,
        version: int = 0,
    ) -> "ChronusSettings":
        if not application:
            raise ValueError("a shadow model needs an application scope")
        shadows = dict(self.shadow_models)
        shadows[f"{system_id}:{application}"] = model_entry(
            local_path, model_type,
            model_id=model_id, version=version, stage="shadow",
        )
        return replace(self, shadow_models=shadows)

    def without_shadow_model(
        self, system_id: int, application: str
    ) -> "ChronusSettings":
        key = f"{system_id}:{application}"
        if key not in self.shadow_models:
            return self
        shadows = dict(self.shadow_models)
        del shadows[key]
        return replace(self, shadow_models=shadows)

    def shadow_model_for(
        self, system_id: "int | str", application: str
    ) -> "dict[str, Any] | None":
        return self.shadow_models.get(f"{system_id}:{application}")

    # ------------------------------------------------------------------
    def with_binary_alias(self, binary_hash: int | str, application: str) -> "ChronusSettings":
        if not application:
            raise ValueError("application cannot be empty")
        aliases = dict(self.binary_aliases)
        aliases[str(binary_hash)] = application
        return replace(self, binary_aliases=aliases)

    def application_for_binary(self, binary_hash: int | str) -> str | None:
        return self.binary_aliases.get(str(binary_hash))

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        data: dict[str, Any] = {
            "database_path": self.database_path,
            "blob_storage_path": self.blob_storage_path,
            "plugin_state": self.plugin_state,
            "loaded_models": self.loaded_models,
            "binary_aliases": self.binary_aliases,
        }
        if self.shadow_models:
            data["shadow_models"] = self.shadow_models
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ChronusSettings":
        data: Mapping[str, Any] = json.loads(text)
        return cls(
            database_path=str(data.get("database_path", "chronus.db")),
            blob_storage_path=str(data.get("blob_storage_path", "./optimizers")),
            plugin_state=str(data.get("plugin_state", "user")),
            loaded_models={
                str(k): _entry_from_raw(v)
                for k, v in dict(data.get("loaded_models", {})).items()
            },
            shadow_models={
                str(k): _entry_from_raw(v)
                for k, v in dict(data.get("shadow_models", {})).items()
            },
            binary_aliases={
                str(k): str(v)
                for k, v in dict(data.get("binary_aliases", {})).items()
            },
        )
