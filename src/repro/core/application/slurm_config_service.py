"""The slurm-config use case (paper section 3.1.2, "Predict").

Called by ``job_submit_eco`` — never interactively — with the system
identifier and the binary hash.  The fast path is mandatory: the model is
read from the head node's *local* disk (pre-loaded by ``load-model``) and
evaluated immediately, because slurmctld is blocked while this runs.

System-id resolution: the C plugin identifies the system by hashing
``/proc/cpuinfo`` + ``/proc/meminfo``, while the repository uses small
integer ids.  The settings file maps whatever id ``load-model`` recorded;
when the incoming identifier is unknown but exactly one model is loaded,
that model is used — the paper targets single-node clusters (section 6.1.1)
and its own plugin hard-codes parts of this mapping (limitation 6.1.2).

Serving: fitted optimizers live in a :class:`~repro.serving.ModelCache`
keyed by ``(system_id, application)`` — unbounded for the classic
one-process CLI, bounded + pinnable when a
:class:`~repro.serving.ChronusServer` owns the service.  The typed entry
points (:meth:`predict`, :meth:`predict_batch`) speak the ``chronus/2``
protocol; :meth:`predict_batch` additionally coalesces duplicate requests
so a submit storm costs one optimizer evaluation per *distinct* query,
not per job.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.core.application.interfaces import LocalStorageInterface, OptimizerInterface
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import ChronusError, ModelNotFoundError
from repro.serving.cache import ModelCache
from repro.serving.protocol import ErrorResponse, PredictRequest, PredictResponse

__all__ = ["SlurmConfigService"]


class SlurmConfigService:
    """Predicts the energy-efficient configuration for a submission."""

    def __init__(
        self,
        local_storage: LocalStorageInterface,
        optimizer_loader: Callable[[str, bytes], OptimizerInterface],
        *,
        read_local: Callable[[str], bytes],
        cache: Optional[ModelCache] = None,
        shadow_sample_rate: float = 0.25,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if not 0.0 <= shadow_sample_rate <= 1.0:
            raise ValueError(
                f"shadow_sample_rate must be in [0, 1], got {shadow_sample_rate}"
            )
        self.local_storage = local_storage
        self.optimizer_loader = optimizer_loader
        self._read_local = read_local
        #: fraction of typed predicts mirrored onto the scope's shadow
        #: model (0 disables shadowing)
        self.shadow_sample_rate = shadow_sample_rate
        self._shadow_tick = 0
        self._shadow_checks = 0
        self._shadow_diverged = 0
        self._log = log or (lambda msg: None)
        #: (system_id, application) -> fitted optimizer.  The plugin may
        #: fire for every submission; deserializing each time wastes
        #: budget.  Unbounded by default; the serving daemon injects a
        #: bounded LRU with pinning instead.
        self.cache = cache if cache is not None else ModelCache(
            None, metric_prefix="chronus_model_cache"
        )

    # ------------------------------------------------------------------
    def _resolve_model(
        self,
        system_id: "int | str",
        binary_hash: "int | str" = "",
        *,
        settings=None,
    ) -> "tuple[dict, tuple[str, str], dict | None]":
        """Resolve (system, binary) to ``(entry, cache_key, shadow_entry)``.

        ``entry`` is the settings projection of the active model — path,
        type and registry identity (``model_id``/``version``/``stage``).
        The cache key is the *canonical* ``(system_id, application)``
        identity of the settings entry that matched — so a plugin-side
        system hash and the repository id it aliases share one cached
        optimizer (and one ``chronus serve --preload`` pin).
        ``shadow_entry`` is the scope's shadow projection when one is
        recorded (None otherwise).

        Settings are re-read from local storage on *every* call: this is
        what makes a promotion in another process visible to a running
        daemon — the next request sees the new entry, its identity tag no
        longer matches the cached optimizer, and the cache reloads.
        Batch callers pass one pre-loaded ``settings`` snapshot so a
        micro-batch costs one storage read, not one per distinct key —
        and every member of the batch sees one consistent registry state.
        """
        if settings is None:
            settings = self.local_storage.load()
        application = (
            settings.application_for_binary(binary_hash) if binary_hash != "" else None
        )
        entry = None
        matched_key: "str | None" = None
        # per-application dispatch (fixes paper limitation 6.1.2/6.1.3):
        # the binary hash names the application, which selects the model
        if application is not None:
            matched_key = f"{system_id}:{application}"
            entry = settings.loaded_models.get(matched_key)
            if entry is None:
                # unknown plugin-side system hash: match by application only
                matches = [
                    (k, v) for k, v in settings.loaded_models.items()
                    if k.endswith(f":{application}")
                ]
                if len(matches) == 1:
                    matched_key, entry = matches[0]
        if entry is None and str(system_id).isdigit():
            entry = settings.loaded_model_for(int(system_id))
            matched_key = str(system_id) if entry is not None else None
        if entry is None:
            entry = settings.loaded_models.get(str(system_id))
            matched_key = str(system_id) if entry is not None else None
        if entry is None and settings.loaded_models:
            # single-model deployment: the legacy and per-application keys
            # may both point at it — fall back when only one distinct
            # artifact is loaded (paper's single-node pragmatism)
            distinct = {v["path"]: v for v in settings.loaded_models.values()}
            if len(distinct) == 1:
                entry = next(iter(distinct.values()))
                # prefer the qualified settings key as the canonical name
                matched_key = next(
                    (k for k, v in settings.loaded_models.items()
                     if v["path"] == entry["path"] and ":" in k),
                    next(k for k, v in settings.loaded_models.items()
                         if v["path"] == entry["path"]),
                )
        if entry is None:
            raise ModelNotFoundError(
                f"no pre-loaded model for system {system_id!r}; "
                "run `chronus load-model` first"
            )
        if matched_key is not None and ":" not in matched_key:
            # a bare-id match may alias a qualified ``sys:app`` entry
            # (``load-model`` records both); canonicalize to the
            # qualified name so bare-id callers, binary-hash callers and
            # ``serve --preload`` pins all share one cached optimizer
            qualified = next(
                (
                    k for k, v in settings.loaded_models.items()
                    if ":" in k
                    and v["path"] == entry["path"]
                    and k.split(":", 1)[0] == matched_key
                ),
                None,
            )
            if qualified is not None:
                matched_key = qualified
        if matched_key is not None and ":" in matched_key:
            sys_part, app_part = matched_key.split(":", 1)
            cache_key = (sys_part, app_part)
        else:
            cache_key = (matched_key or str(system_id), application or "")
        shadow = settings.shadow_models.get(f"{cache_key[0]}:{cache_key[1]}")
        return entry, cache_key, shadow

    @staticmethod
    def _entry_tag(entry: dict) -> tuple:
        """The identity a cached optimizer is bound to.

        Any component changing — a promotion bumps id+version, a
        re-load-in-place changes the path — makes the cached value stale.
        """
        return (
            entry.get("model_id", 0),
            entry.get("version", 0),
            entry["path"],
        )

    def _load_optimizer(self, key, entry: dict) -> OptimizerInterface:
        """Cached optimizer for ``entry``, reloading when the tag moved.

        Cache values are ``(tag, optimizer)`` pairs.  A hit whose tag no
        longer matches the settings entry means the registry moved on
        (promotion/rollback) while this process kept serving: the entry
        is invalidated — pins survive and re-attach — and the new
        artifact loads in its place.  This is the zero-restart half of
        promotion; no signal to the daemon is needed.
        """
        path, model_type = entry["path"], entry["type"]
        tag = self._entry_tag(entry)
        cached = self.cache.get(key)
        if cached is not None:
            cached_tag, optimizer = cached
            if cached_tag == tag:
                return optimizer
            telemetry.counter("model_cache_stale_total").inc()
            self.cache.invalidate(key)
            self._log(
                f"slurm-config: cached model for {key} is stale "
                f"({cached_tag} -> {tag}); reloading"
            )
        with telemetry.span("chronus.load_model", path=path, type=model_type):
            data = self._read_local(path)
            optimizer = self.optimizer_loader(model_type, data)
        self.cache.put(key, (tag, optimizer))
        return optimizer

    def _candidates(
        self, optimizer: OptimizerInterface, min_perf: Optional[float]
    ) -> Optional[list[Configuration]]:
        """The candidate set under a performance floor (None = all)."""
        if min_perf is None:
            return None
        if not 0.0 < min_perf <= 1.0:
            raise ValueError(f"min_perf must be in (0, 1], got {min_perf}")
        rated = [
            (cfg, optimizer.candidate_gflops(cfg))
            for cfg in optimizer.training_configurations()
        ]
        rated = [(cfg, g) for cfg, g in rated if g is not None]
        if not rated:
            return None
        fastest = max(g for _, g in rated)
        return [cfg for cfg, g in rated if g >= min_perf * fastest] or None

    # ------------------------------------------------------------------
    def _maybe_shadow(
        self,
        shadow: "dict | None",
        cache_key: tuple[str, str],
        best: Configuration,
        min_perf: Optional[float],
    ) -> None:
        """Mirror a sampled request onto the scope's shadow model.

        The shadow's answer is compared against the served one and
        recorded as divergence metrics — it never reaches the caller.
        Shadow failures are counted, not raised: an unproven model must
        not be able to break serving.
        """
        if shadow is None or self.shadow_sample_rate <= 0.0:
            return
        # deterministic counter-based sampling (no RNG in the plugin path)
        period = max(1, round(1.0 / self.shadow_sample_rate))
        self._shadow_tick += 1
        if self._shadow_tick % period != 0:
            return
        labels = {
            "system": cache_key[0],
            "application": cache_key[1],
            "shadow_model": f"{shadow.get('model_id', 0)}"
            f":{shadow.get('version', 0)}",
        }
        try:
            optimizer = self._load_optimizer(cache_key + ("shadow",), shadow)
            answer = optimizer.best_configuration(
                self._candidates(optimizer, min_perf)
            )
            telemetry.counter("model_shadow_checks_total", labels).inc()
            self._shadow_checks += 1
            if answer != best:
                telemetry.counter("model_shadow_diverged_total", labels).inc()
                self._shadow_diverged += 1
            telemetry.gauge("model_shadow_divergence", labels).set(
                self._shadow_diverged / self._shadow_checks
            )
        except Exception as exc:  # noqa: BLE001 - shadow must never break serving
            telemetry.counter("model_shadow_errors_total", labels).inc()
            self._log(f"slurm-config: shadow evaluation failed: {exc}")

    def _answer(
        self,
        entry: dict,
        cache_key: tuple[str, str],
        members: "Sequence[tuple[Optional[float], dict | None]]",
    ) -> list[PredictResponse]:
        """Answer one model's requests: the only code that builds an answer.

        ``members`` holds one ``(min_perf, shadow_entry)`` pair per
        request resolved to ``entry``.  All their pools are answered by a
        single :meth:`~OptimizerInterface.best_configurations` call, which
        selects by argmax over the optimizer's one cached score vector, so
        a request's answer does not depend on its batch-mates.  Raises
        :class:`OptimizerError` for an artifact that will not load and
        ``ValueError`` for a floor outside (0, 1].
        """
        optimizer = self._load_optimizer(cache_key, entry)
        pools = [self._candidates(optimizer, min_perf) for min_perf, _ in members]
        bests = optimizer.best_configurations(pools)
        answers = []
        for (min_perf, shadow), best in zip(members, bests):
            self._maybe_shadow(shadow, cache_key, best, min_perf)
            answers.append(
                PredictResponse(
                    cores=best.cores,
                    threads_per_core=best.threads_per_core,
                    frequency=best.frequency,
                    model_type=entry["type"],
                    model_id=int(entry.get("model_id", 0) or 0),
                    model_version=int(entry.get("version", 0) or 0),
                )
            )
        return answers

    # ------------------------------------------------------------------
    def run(
        self,
        system_id: "int | str",
        binary_hash: "int | str" = "",
        *,
        min_perf: Optional[float] = None,
    ) -> Configuration:
        """Predict the best configuration for (system, binary).

        Args:
            min_perf: optional performance floor in (0, 1] — only candidate
                configurations whose measured GFLOP/s is at least this
                fraction of the fastest candidate are considered (the
                user's ``--comment "chronus perf=0.95"``).  Candidates
                without a stored rating are excluded when a floor is set.
        """
        entry, cache_key, shadow = self._resolve_model(system_id, binary_hash)
        (answer,) = self._answer(entry, cache_key, [(min_perf, shadow)])
        best = Configuration(
            cores=answer.cores,
            threads_per_core=answer.threads_per_core,
            frequency=answer.frequency,
        )
        self._log(
            f"slurm-config: system={system_id} binary={binary_hash} "
            f"min_perf={min_perf} -> {best.to_json()}"
        )
        return best

    def run_json(
        self,
        system_id: "int | str",
        binary_hash: "int | str" = "",
        *,
        min_perf: Optional[float] = None,
    ) -> str:
        """JSON text out: the ``chronus slurm-config`` CLI's output."""
        return self.run(system_id, binary_hash, min_perf=min_perf).to_json()

    # ------------------------------------------------------------------
    def predict(self, request: PredictRequest) -> PredictResponse:
        """The typed (chronus/2) entry point for one request.

        Only the *active* model's answer is returned; when the scope has
        a shadow model, a sampled fraction of requests is additionally
        mirrored onto it for divergence metrics (see :meth:`_maybe_shadow`).
        """
        entry, cache_key, shadow = self._resolve_model(
            request.system_id, request.binary_hash
        )
        (answer,) = self._answer(entry, cache_key, [(request.min_perf, shadow)])
        return answer

    def predict_batch(
        self, requests: Sequence[PredictRequest]
    ) -> "list[PredictResponse | ErrorResponse]":
        """Answer a micro-batch with one vectorized call per model.

        Three collapse steps turn a 200-job submit storm into a couple of
        numpy evaluations:

        1. duplicate coalescing keys (same system, binary and performance
           floor) share one answer (``serve_coalesced_total``);
        2. distinct keys are resolved against *one* settings read and
           grouped by the ``(model_id, version, path)`` identity that
           will answer them;
        3. each group is answered by one :meth:`_answer` step — a single
           :meth:`~OptimizerInterface.best_configurations` call, where the
           optimizer scores its candidate grid once and every member's
           performance-floor pool is an argmax over that shared vector,
           so a request's answer does not depend on its batch-mates.

        Failures stay per-key and explicit: a request whose model is
        missing gets a ``MODEL_NOT_FOUND`` :class:`ErrorResponse` while
        its batch-mates still succeed.
        """
        requests = list(requests)
        distinct: "dict[tuple, PredictRequest]" = {}
        for request in requests:
            key = request.key()
            if key in distinct:
                telemetry.counter("serve_coalesced_total").inc()
            else:
                distinct[key] = request
        answers: "dict[tuple, PredictResponse | ErrorResponse]" = {}
        # one settings read for the whole batch: every member resolves
        # against the same registry snapshot
        settings = None
        if distinct:
            try:
                settings = self.local_storage.load()
            except Exception:  # noqa: BLE001 - surface per-key below
                settings = None
        # group the distinct keys by the optimizer that answers them
        groups: "dict[tuple, dict]" = {}
        for key, request in distinct.items():
            try:
                entry, cache_key, shadow = self._resolve_model(
                    request.system_id, request.binary_hash, settings=settings
                )
            except ModelNotFoundError as exc:
                answers[key] = ErrorResponse(
                    code="MODEL_NOT_FOUND", message=str(exc), retryable=False
                )
                continue
            except (ChronusError, ValueError) as exc:
                answers[key] = ErrorResponse(
                    code="INTERNAL",
                    message=f"{type(exc).__name__}: {exc}",
                    retryable=True,
                )
                continue
            group = groups.setdefault(
                (cache_key, self._entry_tag(entry)),
                {"entry": entry, "cache_key": cache_key, "keys": [], "members": []},
            )
            group["keys"].append(key)
            group["members"].append((request.min_perf, shadow))
        if groups:
            telemetry.histogram("serve_batch_groups").observe(len(groups))
            telemetry.histogram("serve_batch_distinct_keys").observe(len(distinct))
        for group in groups.values():
            keys = group["keys"]
            try:
                responses = self._answer(
                    group["entry"], group["cache_key"], group["members"]
                )
            except (ChronusError, ValueError) as exc:
                error = ErrorResponse(
                    code="INTERNAL",
                    message=f"{type(exc).__name__}: {exc}",
                    retryable=True,
                )
                answers.update(dict.fromkeys(keys, error))
                continue
            telemetry.counter("serve_batch_vectorized_total").inc(len(keys))
            answers.update(zip(keys, responses))
        out: "list[PredictResponse | ErrorResponse]" = []
        for request in requests:
            answer = answers[request.key()]
            if isinstance(answer, PredictResponse):
                answer = replace(answer, batch_size=len(requests))
            out.append(answer)
        return out

    # ------------------------------------------------------------------
    def model_key(self, system_id: "int | str") -> tuple[str, str]:
        """The cache key the model of ``system_id`` is cached under."""
        return self._resolve_model(system_id)[1]

    def warm(
        self, system_id: "int | str", binary_hash: "int | str" = ""
    ) -> tuple[str, str]:
        """Ahead-of-time warm step: load the model *and* its score cache.

        ``chronus load-model`` and ``chronus serve --preload`` call this
        so the first real request pays neither the artifact deserialize
        nor the candidate-grid scoring pass — first-request latency is
        flat.  Returns the cache key that was warmed.
        """
        entry, cache_key, _ = self._resolve_model(system_id, binary_hash)
        optimizer = self._load_optimizer(cache_key, entry)
        with telemetry.span(
            "chronus.warm", system=cache_key[0], application=cache_key[1]
        ):
            optimizer.warm()
        telemetry.counter("model_warm_total").inc()
        self._log(f"slurm-config: warmed {cache_key} ({entry['type']})")
        return cache_key
