"""Properties of the observability layer.

Two families of law:

* metric invariants — for any workload, cache hits + misses equal
  lookups in the registry and in ``CacheStats`` alike, translations
  counted equal plans executed, and a histogram's count equals the
  number of observations;
* transparency — a traced run and an untraced run of the same workload
  end in the identical database state.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.core.updates.operations import CompleteInsertion
from repro.penguin import Penguin
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema
from tests.conftest import counter_total, histogram_total_count

DEPARTMENTS = ("Computer Science", "Music", "Mathematics")
LEVELS = ("undergraduate", "graduate")


def course(index, level="graduate"):
    return {
        "course_id": f"GEN{index:04d}",
        "title": f"Generated {index}",
        "units": 3,
        "level": level,
        "dept_name": DEPARTMENTS[index % len(DEPARTMENTS)],
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }


def fresh_session():
    graph = university_schema()
    session = Penguin(graph)
    populate_university(session.engine)
    session.register_object(course_info_object(graph))
    return session


def fresh_view(session):
    return session.materialize("course_info")


def state_of(session):
    return {
        relation: sorted(session.engine.scan(relation))
        for relation in session.engine.relation_names()
    }


# An action script: each entry drives one session call.  ``insert``
# and ``delete`` exercise the translator; ``get``/``miss`` exercise
# the materialized cache.
actions = st.lists(
    st.sampled_from(["insert", "delete", "get", "miss", "query"]),
    min_size=1,
    max_size=12,
)


def run_script(session, script, view=None):
    def read(key):
        if view is not None:
            view.get(key)
        else:
            session.get("course_info", key)

    alive = []
    serial = 0
    writes = 0
    for action in script:
        if action == "insert":
            session.insert("course_info", course(serial))
            alive.append(f"GEN{serial:04d}")
            serial += 1
            writes += 1
        elif action == "delete":
            if alive:
                session.delete("course_info", (alive.pop(),))
                writes += 1
        elif action == "get":
            read((alive[-1],) if alive else ("M100",))
        elif action == "miss":
            read(("NOPE",))
        elif action == "query":
            session.query("course_info")
    return writes


class TestMetricInvariants:
    @settings(max_examples=20, deadline=None)
    @given(script=actions)
    def test_cache_hits_plus_misses_equal_lookups(self, script):
        session = fresh_session()
        view = fresh_view(session)
        with obs.use() as hub:
            run_script(session, script, view=view)
            metrics = hub.metrics
            lookups = counter_total(metrics, "cache_lookups_total")
            hits = counter_total(metrics, "cache_hits_total")
            misses = counter_total(metrics, "cache_misses_total")
        assert hits + misses == lookups
        # The registry and ``cache_stats()`` count the same events: a
        # lookup of an absent pivot key is a miss in both.
        assert (hits, misses) == (view.stats.hits, view.stats.misses)
        assert view.stats.requests == lookups

    @settings(max_examples=20, deadline=None)
    @given(script=actions)
    def test_translations_counted_equal_plans_executed(self, script):
        session = fresh_session()
        with obs.use() as hub:
            writes = run_script(session, script)
            translations = counter_total(hub.metrics, "translations_total")
            observed_plans = histogram_total_count(hub.metrics, "plan_ops")
        # Every successful write ran exactly one translation, and every
        # counted translation recorded exactly one plan-size observation.
        assert translations == writes
        assert observed_plans == writes

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6), min_size=0, max_size=50))
    def test_histogram_count_equals_observations(self, values):
        registry = obs.Observability.enabled().metrics
        histogram = registry.histogram("sizes")
        for value in values:
            histogram.observe(value)
        assert histogram.count == len(values)
        assert sum(histogram.bucket_counts().values()) == len(values)

    @settings(max_examples=20, deadline=None)
    @given(script=actions)
    def test_preview_never_counts_as_translation(self, script):
        session = fresh_session()
        with obs.use() as hub:
            for index, action in enumerate(script):
                if action == "insert":
                    session.translator("course_info").explain_batch(
                        session.engine, [CompleteInsertion(course(index))]
                    )
            # explains_total is the one "what would this do" counter.
            explains = counter_total(hub.metrics, "explains_total")
            translations = counter_total(hub.metrics, "translations_total")
        assert translations == 0
        assert explains == sum(1 for a in script if a == "insert")


class TestTracingTransparency:
    @settings(max_examples=15, deadline=None)
    @given(script=actions)
    def test_traced_run_equals_untraced_run(self, script):
        untraced = fresh_session()
        obs.disable()
        run_script(untraced, script)

        traced = fresh_session()
        with obs.use() as hub:
            writes = run_script(traced, script)
            spans = len(hub.tracer.roots()) + hub.tracer.dropped

        assert state_of(traced) == state_of(untraced)
        assert spans >= writes  # every write produced a root span
