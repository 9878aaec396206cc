"""The benchmark's three closed-loop workloads and the meter that times them.

One process, one thread, one session at a time.  Each workload runs in
rounds; a round sets up from scratch (timed as set-up), then runs timed
operations whose outputs are checked against a reference the generator
keeps.  A round is also what makes repeated set-up measurable, and what
keeps state bounded: ``lookup_mix`` grows its set by one person per insert,
so every round starts again from the generated 1,093 people.

Why each workload exists, and which layer it stresses or bypasses, is in
this directory's README.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import time
import traceback
from typing import Callable, Dict, List, Optional, Set

import repro
from repro.core.objects import Atom, ComplexObject, SetObject, TupleObject
from repro.datalog import DatalogEngine
from repro.store import dumps_object
from repro.workloads import make_document_collection, make_genealogy

DESCENDANTS = (
    "[doa: {%s}]. "
    "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."
)
LOOKUP = "[family: {[name: $p, children: {[name: X]}]}]"
ADHOC = "[family: {[name: %s, children: {[name: X%d]}]}]"

#: The reference slice: a fixed pure-Python reachability kernel over a
#: 400-node graph (a few ms).  It runs no ``repro`` code, so only the host's
#: speed moves it.  A shared host's speed drifts by tens of percent over
#: seconds, so the untraced meter times the slice on both sides of its
#: operations and the gated times are read in units of it.
_GRAPH_NODES = 400
_GRAPH = {
    f"n{i}": tuple(
        f"n{(i * step + shift) % _GRAPH_NODES}" for step, shift in ((7, 1), (13, 5), (31, 11))
    )
    for i in range(_GRAPH_NODES)
}
#: Seconds between two visits to the reference, and slices timed per visit.
VISIT_INTERVAL = 0.2
SLICES_PER_VISIT = 3


def _reference_kernel() -> int:
    reached = 0
    for start in range(16):
        seen = {f"n{start}"}
        frontier = list(seen)
        while frontier:
            new = []
            for node in frontier:
                for successor in _GRAPH[node]:
                    if successor not in seen:
                        seen.add(successor)
                        new.append(successor)
            frontier = new
        reached += len(tuple(sorted(seen)))
    return reached


_REFERENCE_ANSWER = _reference_kernel()


def reference_slice() -> float:
    """Seconds one run of the reference kernel takes, with the collector off
    so that the program's heap does not reach into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        answer = _reference_kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if answer != _REFERENCE_ANSWER:
        raise AssertionError("the reference kernel changed its answer")
    return elapsed


class Meter:
    """Times operations, checks their outputs and counts failures.

    ``recorder`` (a :class:`tracing.SpanRecorder`) is set for the traced
    phase; each operation then opens its root span.  Without one, the meter
    visits the reference before and after an operation whenever
    ``VISIT_INTERVAL`` has passed since the last visit: a visit times
    ``SLICES_PER_VISIT`` reference slices and keeps their median.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.visits: List[float] = []
        self._next_visit = 0.0
        self.samples: Dict[str, List[float]] = {}
        #: Per kind, the index in ``visits`` of the visit before each sample.
        self._visit_before: Dict[str, List[int]] = {}
        self.setups: List[float] = []
        self._setup_visit_before: List[int] = []
        self.reference: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def visit(self, force: bool = False) -> None:
        """Time the reference if it is due (or ``force``); untraced only."""
        if self.recorder is None and (force or time.perf_counter() >= self._next_visit):
            self.visits.append(sorted(reference_slice() for _ in range(SLICES_PER_VISIT))[1])
            self._next_visit = time.perf_counter() + VISIT_INTERVAL

    @contextlib.contextmanager
    def setup(self):
        """Time the body as one set-up, with a visit to the reference first."""
        self.visit(force=True)
        start = time.perf_counter()
        yield
        self.setups.append(time.perf_counter() - start)
        self._setup_visit_before.append(len(self.visits) - 1)

    def op(self, kind: str, call: Callable, check: Callable[[object], bool]):
        """Run ``call()`` as one timed operation and ``check`` its output.

        An exception or a wrong output counts as one failed operation and
        never stops the run.  Returns the output (``None`` on exception).
        """
        self.attempted += 1
        self.visit()
        try:
            if self.recorder is None:
                start = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - start
            else:
                with self.recorder.operation(kind):
                    start = time.perf_counter()
                    result = call()
                    elapsed = time.perf_counter() - start
        except Exception:  # the loop must keep running; the failure is counted
            self.fail(kind, traceback.format_exc(limit=3))
            return None
        self.samples.setdefault(kind, []).append(elapsed)
        self._visit_before.setdefault(kind, []).append(len(self.visits) - 1)
        self.visit()
        try:
            correct = check(result)
        except Exception:  # a malformed output is a wrong answer
            correct = False
        if not correct:
            self.fail(kind, f"wrong output: {_preview(result)}")
        return result

    def in_reference_units(self, kind: str) -> List[float]:
        """Each ``kind`` sample in units of the reference slice."""
        return self._scaled(self.samples.get(kind, []), self._visit_before.get(kind, []))

    def setups_in_reference_units(self) -> List[float]:
        return self._scaled(self.setups, self._setup_visit_before)

    def _scaled(self, values: List[float], visits_before: List[int]) -> List[float]:
        """Each value divided by the mean of the visits on either side of it
        (the one before alone if none came after)."""
        visits = self.visits
        scaled = []
        for elapsed, before in zip(values, visits_before):
            after = before + 1 if before + 1 < len(visits) else before
            scaled.append(elapsed / ((visits[before] + visits[after]) / 2))
        return scaled

    def fail(self, kind: str, message: str) -> None:
        """Count one failure (an operation already attempted)."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {message}")

    def operations(self) -> int:
        return sum(len(values) for values in self.samples.values())

    def busy_seconds(self) -> float:
        return sum(sum(values) for values in self.samples.values())


def _preview(value) -> str:
    text = value.to_text() if isinstance(value, ComplexObject) else repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _names(values) -> Set[str]:
    return {element.value for element in values.elements}


def datalog_reference(meter: Meter, tree) -> None:
    """Time the ``repro.datalog`` closure of ``tree``, the reference row, and
    check it against the generator's expected answer (never an operation)."""
    start = time.perf_counter()
    answer = DatalogEngine(tree.datalog_program).query("doa")
    meter.reference.append(time.perf_counter() - start)
    if {fact[0] for fact in answer} != set(tree.expected_descendants):
        meter.fail("datalog", "DatalogEngine disagrees with expected_descendants")


def _cold() -> None:
    """Drop every id-keyed memo and collect garbage (never timed)."""
    repro.clear_object_caches()
    gc.collect()


class ClosureTree:
    """Example 4.5 descendants over ``make_genealogy(6, 3)``: cold closures."""

    name = "closure_tree"
    key_op = "closure"

    def __init__(self, seed: int, *, generations: int = 6, fanout: int = 3):
        self.root = f"root{seed}"
        self.generations = generations
        self.fanout = fanout

    def context(self) -> dict:
        people = sum(self.fanout ** level for level in range(self.generations + 1))
        return {
            "input": f"make_genealogy({self.generations}, {self.fanout})",
            "people": people,
            "engine_rounds": self.generations,
            "cold_cache_policy": "repro.clear_object_caches() and gc.collect()"
            " before every closure, untimed; a fresh session per closure",
        }

    def round(self, meter: Meter, deadline: float) -> None:
        with meter.setup():
            tree = make_genealogy(self.generations, self.fanout, root=self.root)
            session = repro.connect()
            session.put("family", tree.family_object.get("family"))
            session.register(DESCENDANTS % self.root)

        datalog_reference(meter, tree)
        expected = set(tree.expected_descendants)

        def check(result) -> bool:
            return _names(result.value.get("doa")) == expected

        _cold()
        meter.op("closure", session.close, check)
        session.shutdown()


class LookupMix:
    """A seeded read/write mix over the 1,093-person ``family`` set."""

    name = "lookup_mix"
    key_op = "lookup"

    def __init__(
        self, seed: int, *, generations: int = 6, fanout: int = 3, round_ops: int = 300
    ):
        self.rng = random.Random(seed)
        self.generations = generations
        self.fanout = fanout
        self.round_ops = round_ops
        self.counter = 0

    def context(self) -> dict:
        people = sum(self.fanout ** level for level in range(self.generations + 1))
        return {
            "input": f"make_genealogy({self.generations}, {self.fanout})",
            "people": people,
            "mix": "80% prepared lookup, 10% ad-hoc lookup, 10% insert",
            "ops_per_round": self.round_ops,
            "cold_cache_policy": "warm: one session per round, its plan cache"
            " invalidated by every insert",
        }

    def round(self, meter: Meter, deadline: float) -> None:
        with meter.setup():
            tree = make_genealogy(self.generations, self.fanout)
            session = repro.connect()
            session.put("family", tree.family_object.get("family"))
            prepared = session.prepare(LOOKUP)
        datalog_reference(meter, tree)

        children: Dict[str, Set[str]] = {person: set() for person in tree.people}
        for parent, child in tree.parent_of:
            children[parent].add(child)
        people = list(tree.people)
        rng = self.rng
        for _ in range(self.round_ops):
            if time.perf_counter() >= deadline:
                break
            draw = rng.random()
            if draw < 0.9:
                person = rng.choice(people)
                expected = children[person]
                check = lambda result, p=person, e=expected: _children(result, p) == e
                if draw < 0.8:
                    meter.op("lookup", lambda p=person: prepared.execute(p=p).all(), check)
                else:
                    self.counter += 1
                    text = ADHOC % (person, self.counter)
                    meter.op("adhoc", lambda t=text: session.query(t), check)
            else:
                self.counter += 1
                person = f"q{self.counter}"
                element = TupleObject({"name": Atom(person), "children": SetObject(())})
                meter.op(
                    "insert",
                    lambda e=element: session.database.insert("family", "", e),
                    lambda value, e=element: e in value.elements,
                )
                children[person] = set()
                people.append(person)
        session.shutdown()


def _children(result: ComplexObject, person: str) -> Set[str]:
    """The child names a lookup answer lists for ``person`` (⊥ lists none)."""
    if result.is_bottom:
        return set()
    found: Set[str] = set()
    for element in result.get("family").elements:
        if element.get("name").value != person:
            raise ValueError(f"answer lists {element.get('name')!r}, asked {person!r}")
        for child in element.get("children").elements:
            found.add(child.get("name").value)
    return found


class WalCommit:
    """Small WAL commits beside whole-object rewrites, then a reopen."""

    name = "wal_commit"
    key_op = "insert"

    def __init__(
        self,
        seed: int,
        directory: str,
        *,
        documents: int = 300,
        sections: int = 4,
        keywords: int = 5,
        generations: int = 5,
        fanout: int = 3,
    ):
        self.seed = seed
        self.directory = directory
        self.documents = documents
        self.sections = sections
        self.keywords = keywords
        self.generations = generations
        self.fanout = fanout
        self.rounds = 0
        self.wal_bytes = 0
        self.user_bytes = 0

    def context(self) -> dict:
        people = sum(self.fanout ** level for level in range(self.generations + 1))
        return {
            "input": f"make_document_collection({self.documents}, {self.sections},"
            f" {self.keywords}, rng=seed) + make_genealogy({self.generations},"
            f" {self.fanout})",
            "people": people,
            "commits_per_round": self.documents + self.documents // 5,
            "flush_policy": "default FileStorage: one WAL append and one fsync per commit",
            "cold_cache_policy": "warm: a fresh WAL file and session per round",
        }

    def round(self, meter: Meter, deadline: float) -> None:
        self.rounds += 1
        path = os.path.join(self.directory, f"round{self.rounds}.wal")
        with meter.setup():
            collection = make_document_collection(
                self.documents, self.sections, self.keywords, rng=self.seed
            )
            tree = make_genealogy(self.generations, self.fanout)
            family = tree.family_object.get("family")
            session = repro.connect(path)
            session.put("family", family)
        datalog_reference(meter, tree)

        written: Dict[str, ComplexObject] = {"family": family}
        user_bytes = len(dumps_object(family))
        for index, document in enumerate(collection.get("docs").elements):
            name = document.get("title").value
            stored = meter.op(
                "put",
                lambda n=name, d=document: session.put(n, d),
                lambda value, d=document: value == d,
            )
            if stored is not None:
                written[name] = document
            user_bytes += len(dumps_object(document))
            if index % 5 == 4:
                person = TupleObject(
                    {"name": Atom(f"w{index}"), "children": SetObject(())}
                )
                value = meter.op(
                    "insert",
                    lambda e=person: session.database.insert("family", "", e),
                    lambda value, e=person: e in value.elements,
                )
                if value is not None:
                    written["family"] = value
                user_bytes += len(dumps_object(person))
        session.shutdown()
        self.wal_bytes += os.path.getsize(path)
        self.user_bytes += user_bytes

        reopened: Optional[repro.Session] = meter.op(
            "reopen", lambda: repro.connect(path), lambda value: True
        )
        if reopened is not None:
            for name, value in written.items():
                if reopened.get(name) != value:
                    meter.fail("readback", f"{name!r} differs after reopen")
            reopened.shutdown()
        os.remove(path)
