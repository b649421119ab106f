"""Evaluation scenarios: the home-WLAN setting of Sec. IV-A.

The scenario object owns the generated corpus (training sessions and an
evaluation session per application); experiment modules draw every
trace from here so all tables share one consistent setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.analysis.attack import training_rows
from repro.schemes import LEGACY_SCHEME_SPECS
from repro.traffic.apps import ALL_APPS, AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.trace import Trace
from repro.util.validation import require

if TYPE_CHECKING:
    from repro.storage import Corpus

__all__ = ["SCHEME_NAMES", "recipe_scalars", "EvaluationScenario"]


def recipe_scalars(recipe: dict) -> dict:
    """The scalar scenario fields of a corpus manifest recipe.

    Single parsing point shared by :meth:`EvaluationScenario.from_store`
    and :meth:`~repro.experiments.registry.ScenarioParams.for_corpus`,
    so a new scenario field cannot drift between the two.
    """
    return {
        "seed": int(recipe["seed"]),
        "train_duration": float(recipe["train_duration"]),
        "eval_duration": float(recipe["eval_duration"]),
        "train_sessions": int(recipe["train_sessions"]),
        "eval_sessions": int(recipe["eval_sessions"]),
    }

#: Column order of Tables II/III (display spellings of the registry's
#: :data:`~repro.schemes.LEGACY_SCHEME_SPECS`).
SCHEME_NAMES: tuple[str, ...] = tuple(
    display for display, _ in LEGACY_SCHEME_SPECS
)


@dataclass
class EvaluationScenario:
    """One home-WLAN evaluation: corpus + scheduler configurations.

    Args:
        seed: root seed for everything (traces, classifiers, schedulers).
        train_duration: seconds of traffic per training session per app.
        eval_duration: seconds of traffic per held-out evaluation session.
        train_sessions: number of independent training captures per app.
        eval_sessions: number of held-out captures per app; accuracies
            average over sessions (the paper's 50 h corpus spans many
            capture periods, so no single session's rate draw dominates).
    """

    seed: int = 0
    train_duration: float = 600.0
    eval_duration: float = 300.0
    train_sessions: int = 4
    eval_sessions: int = 4
    apps: tuple[AppType, ...] = ALL_APPS
    #: A hydrated scenario's corpus, and each training capture's index in it.
    _corpus: Corpus | None = field(default=None, repr=False)
    _train: dict[AppType, list[int]] = field(default_factory=dict, repr=False)
    _eval: dict[AppType, list[Trace]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # An empty split would train on nothing or score nothing (an
        # all-NaN table), so it is refused up front.
        for name in ("train_sessions", "eval_sessions"):
            count = getattr(self, name)
            require(count >= 1, f"{name} must be >= 1, got {count!r}")

    def _generator(self) -> TrafficGenerator:
        return TrafficGenerator(seed=self.seed)

    # ------------------------------------------------------------------
    # Corpus persistence: a scenario round-trips through the columnar
    # TraceStore, so experiments can replay a frozen on-disk corpus
    # instead of regenerating traffic in-process.  Hydrated scenarios
    # are bit-identical to regenerated ones (the store preserves every
    # column exactly), which the corpus smoke tests assert end to end.
    # ------------------------------------------------------------------

    def corpus_recipe(self) -> dict:
        """The scenario parameters, as stored in a corpus manifest."""
        return {
            "seed": self.seed,
            "train_duration": self.train_duration,
            "eval_duration": self.eval_duration,
            "train_sessions": self.train_sessions,
            "eval_sessions": self.eval_sessions,
            "apps": [app.value for app in self.apps],
        }

    def save_corpus(
        self,
        path: str,
        meta: dict | None = None,
        overwrite: bool = False,
        schemes=None,
        shards: int | None = None,
    ):
        """Persist both splits to a :class:`~repro.storage.TraceStore`.

        Traces are written in a deterministic order (apps in scenario
        order, sessions ascending, the training split first), so
        hydration serves identical :meth:`training_session` and
        :meth:`evaluation_by_app` traces.
        ``schemes`` optionally attaches a defense-scheme recipe (a
        sequence of :class:`~repro.schemes.SchemeSpec`) to the manifest
        as provenance; the stored traces stay undefended — the recipe
        is what :meth:`~repro.storage.TraceStore.scheme_specs`
        rehydrates.

        ``shards=N`` writes a sharded federation
        (:class:`~repro.storage.ShardSet`) instead of a single store,
        routing every trace by its **application label** — the app is a
        scenario corpus's station analogue, so all of an app's sessions
        land in one shard and each shard's internal order (train split
        first, sessions ascending) matches the single-store layout.
        Hydration from either format is bit-identical.

        Returns the reopened, read-only corpus (store or shard set).
        """
        from repro.schemes.spec import specs_to_json
        from repro.storage import ShardSetWriter, TraceStore, open_corpus

        recipe_schemes = specs_to_json(schemes) if schemes is not None else None
        if shards is None:
            writer_cm = TraceStore.create(
                path,
                scenario=self.corpus_recipe(),
                meta=meta,
                schemes=recipe_schemes,
                overwrite=overwrite,
            )
        else:
            writer_cm = ShardSetWriter(
                path,
                shards=shards,
                scenario=self.corpus_recipe(),
                meta=meta,
                schemes=recipe_schemes,
                overwrite=overwrite,
            )
        with writer_cm as writer:

            def add(trace: Trace, role: str, app: AppType) -> None:
                if shards is None:
                    writer.add(trace, role=role)
                else:
                    writer.add(trace, role=role, key=app.value)

            for app in self.apps:
                for session in range(self.train_sessions):
                    add(self.training_session(app, session), "train", app)
            for app, traces in self.evaluation_by_app().items():
                for trace in traces:
                    add(trace, "eval", app)
        return open_corpus(path)

    @classmethod
    def from_store(cls, store) -> "EvaluationScenario":
        """Hydrate a scenario from a persisted corpus (zero-copy).

        Accepts a :class:`~repro.storage.TraceStore`, a
        :class:`~repro.storage.ShardSet` federation, or a path to
        either (dispatch via :func:`repro.storage.open_corpus`).  The
        corpus must have been written by :meth:`save_corpus` (its
        manifest carries the scenario recipe); traces come back as
        memory-mapped views, so hydration costs O(manifest) regardless
        of corpus size.
        """
        from repro.storage import Corpus, open_corpus

        if not isinstance(store, Corpus):
            store = open_corpus(store)
        recipe = store.scenario
        if recipe is None:
            raise ValueError(
                f"store at {store.path!r} carries no scenario recipe; it was "
                "not written by EvaluationScenario.save_corpus (or `repro "
                "corpus build`)"
            )
        scenario = cls(
            **recipe_scalars(recipe),
            apps=tuple(AppType(app) for app in recipe["apps"]),
        )
        splits: dict[str, dict[AppType, list[int]]] = {"train": {}, "eval": {}}
        for role, split in splits.items():
            for entry in store.select(role=role):
                split.setdefault(AppType(entry.label), []).append(entry.index)
        expected = {
            "train": scenario.train_sessions,
            "eval": scenario.eval_sessions,
        }
        for role, split in splits.items():
            for app in scenario.apps:
                have = len(split.get(app, []))
                if have != expected[role]:
                    raise ValueError(
                        f"store at {store.path!r} holds {have} {role} "
                        f"trace(s) for {app.value!r}, expected "
                        f"{expected[role]}; the corpus does not match its "
                        "own recipe"
                    )
        # Insert in scenario app order so the hydrated mappings iterate
        # exactly like freshly generated ones.
        scenario._corpus = store
        scenario._train = {app: splits["train"][app] for app in scenario.apps}
        scenario._eval = {
            app: [store.trace(index) for index in splits["eval"][app]]
            for app in scenario.apps
        }
        return scenario

    def record_corpus_gauges(self) -> None:
        """Record the gauges of the stored corpus this scenario reads, if any."""
        if self._corpus is not None:
            self._corpus.record_gauges()

    # The evaluation split exposes an AppType-keyed and a label-keyed
    # accessor; each returns a fresh dict of fresh lists, so mutating a
    # returned mapping cannot corrupt the corpus.  The Trace objects are
    # shared (treated as immutable and cached by identity downstream).

    def training_session(self, app: AppType, session: int) -> Trace:
        """One training capture of ``app``, without caching the split.

        The loaded split's trace when there is one (a hydrated corpus);
        otherwise the capture is generated, counted in ``train.traces``,
        and not kept — the executor's training stage generates each one
        once, in whichever process featurizes it, serial runs included.
        """
        if self._train:
            return self._corpus.trace(self._train[app][session])
        obs.add("train.traces")
        return self._generator().generate(app, self.train_duration, session=session)

    def training_session_rows(
        self, app: AppType, session: int, windows: tuple[float, ...]
    ) -> tuple:
        """One training capture's :func:`~repro.analysis.attack.training_rows`
        for every window in ``windows``; the capture is then let go.

        Once a pipeline is fitted nothing reads the training split
        again, so a generated capture is dropped and a stored one is
        evicted (:meth:`~repro.storage.Corpus.evict`): its trace object
        stays valid, but its column pages leave this process's RSS.
        """
        trace = self.training_session(app, session)
        rows = tuple(training_rows(trace, window) for window in windows)
        if self._train:
            self._corpus.evict(self._train[app][session])
        return rows

    def evaluation_trace(self, app: AppType, session: int = 0) -> Trace:
        """One held-out evaluation capture of ``app``."""
        return self.evaluation_by_app()[app][session]

    def evaluation_by_app(self) -> dict[AppType, list[Trace]]:
        """Held-out evaluation captures for every app (cached)."""
        with obs.span("scenario.generate"):
            if not self._eval:
                with obs.unattributed():
                    generator = self._generator()
                    base = self.train_sessions + 100  # disjoint from training
                    for app in self.apps:
                        self._eval[app] = [
                            generator.generate(
                                app, self.eval_duration, session=base + s
                            )
                            for s in range(self.eval_sessions)
                        ]
            return {app: list(traces) for app, traces in self._eval.items()}

    def evaluation_by_label(self) -> dict[str, list[Trace]]:
        """Evaluation captures keyed by class label (mirror of training)."""
        return {app.value: traces for app, traces in self.evaluation_by_app().items()}
