"""Concurrency and crash-recovery tests for the store subsystem.

Covers the two guarantees the storage rework is responsible for:

* **Crash recovery** — a WAL-backed database killed mid-commit reopens with
  every previously committed object intact and no trace of the in-flight
  transaction (the torn tail is truncated away);
* **Isolation** — concurrent readers only ever observe fully-committed
  states, and concurrent writers serialise correctly under optimistic
  conflict detection (lost updates are impossible).
"""

import threading

from repro.core.builder import obj
from repro.core.errors import TransactionError
from repro.store.codec import encode_json, frame_record
from repro.store.database import ObjectDatabase
from repro.store.locks import RWLock
from repro.store.storage import FileStorage


class TestCrashRecovery:
    def test_kill_mid_commit_preserves_every_committed_object(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        for round_number in range(10):
            with database.transaction() as txn:
                txn.put("counter", obj({"value": round_number}))
                txn.put(f"entry{round_number}", obj({"round": round_number}))
        database.close()

        # Simulate the process dying mid-commit: the WAL append of an
        # in-flight transaction stops partway through the record, before the
        # terminating newline ever reaches the disk.
        in_flight = frame_record(
            {
                "op": "commit",
                "writes": {
                    "counter": encode_json(obj({"value": 999})),
                    "entry_inflight": encode_json(obj({"round": 999})),
                },
            }
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(in_flight[: len(in_flight) // 2])

        recovered = ObjectDatabase(FileStorage(path))
        # Every committed object is intact...
        assert recovered["counter"] == obj({"value": 9})
        for round_number in range(10):
            assert recovered[f"entry{round_number}"] == obj({"round": round_number})
        # ...and the in-flight transaction left no trace.
        assert "entry_inflight" not in recovered
        assert len(recovered) == 11
        recovered.close()

    def test_recovered_database_accepts_new_commits(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("a", obj(1))
        database.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op":"commit","writes":{"b"')
        recovered = ObjectDatabase(FileStorage(path))
        recovered.put("c", obj(3))
        recovered.close()
        reloaded = ObjectDatabase(FileStorage(path))
        assert sorted(reloaded.names()) == ["a", "c"]
        reloaded.close()


class TestConcurrentReadersAndWriter:
    READERS = 4
    ROUNDS = 150

    def test_readers_only_observe_fully_committed_states(self):
        """≥4 reader threads + 1 writer; pairs must never be torn apart."""
        database = ObjectDatabase()
        database.put("left", obj({"value": 0}))
        database.put("right", obj({"value": 0}))
        stop = threading.Event()
        torn_states = []
        errors = []

        def writer():
            try:
                for round_number in range(1, self.ROUNDS + 1):
                    # Each commit updates both halves atomically.
                    database.commit_batch(
                        {
                            "left": obj({"value": round_number}),
                            "right": obj({"value": round_number}),
                        }
                    )
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    state = database.snapshot()
                    left = state["left"].get("value").value
                    right = state["right"].get("value").value
                    if left != right:
                        torn_states.append((left, right))
                        return
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert not torn_states
        assert database["left"] == obj({"value": self.ROUNDS})
        assert database["right"] == obj({"value": self.ROUNDS})

    def test_prepared_lookups_see_snapshots_while_a_writer_inserts(self):
        """Readers probe the element index while a writer moves it on.

        The writer inserts people (and now and then discards one); four
        reader sessions run an element-indexed prepared lookup, drained or
        streamed, the whole time.  Every answer must be the calculus answer
        over one committed state — a torn bucket or a probe into a newer
        state would show up as an answer no state produces.
        """
        from repro.api import Session
        from repro.calculus.interpretation import interpret
        from repro.core.lattice import union_all
        from repro.core.objects import SetObject, TupleObject
        from repro.parser import parse_formula

        names = ("p0", "p1", "p2")
        lookup = "[family: {[name: $p, kids: K]}]"
        changes = []
        for number in range(self.ROUNDS):
            if number % 5 == 4:
                changes.append(("discard", changes[number - 3][1]))
            else:
                person = obj({"name": names[number % 3], "kids": [f"k{number}"]})
                changes.append(("insert", person))
        states = [SetObject(())]
        for kind, person in changes:
            elements = set(states[-1].elements)
            if kind == "insert":
                elements.add(person)
            else:
                elements.discard(person)
            states.append(SetObject(elements))
        possible = {
            name: {
                interpret(
                    parse_formula(lookup.replace("$p", name)),
                    TupleObject({"family": state}),
                )
                for state in states
            }
            for name in names
        }

        database = ObjectDatabase()
        database.put("family", states[0])
        Session(database=database).prepare(lookup)  # creates the element index
        stop = threading.Event()
        answers = []
        errors = []

        def writer():
            try:
                for kind, person in changes:
                    if kind == "insert":
                        database.insert("family", "", person)
                    else:
                        database.discard("family", "", person)
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)
            finally:
                stop.set()

        def reader(slot: int):
            try:
                session = Session(database=database)
                prepared = session.prepare(lookup)
                turn = 0
                while not stop.is_set():
                    name = names[(slot + turn) % 3]
                    cursor = prepared.execute(p=name)
                    answer = cursor.all() if turn % 2 else union_all(list(cursor))
                    answers.append((name, answer))
                    turn += 1
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [
            threading.Thread(target=reader, args=(slot,)) for slot in range(self.READERS)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert answers
        impossible = [
            (name, answer) for name, answer in answers if answer not in possible[name]
        ]
        assert not impossible
        assert database.access_stats["query_element_probes"] > 0
        assert database["family"] == states[-1]

    def test_concurrent_increments_lose_no_update(self):
        """Optimistic transactions with retry: every increment lands."""
        database = ObjectDatabase()
        database.put("counter", obj({"value": 0}))
        per_thread = 25
        thread_count = 4
        errors = []

        def incrementer():
            try:
                for _ in range(per_thread):
                    while True:
                        txn = database.transaction()
                        current = txn.get("counter").get("value").value
                        txn.put("counter", obj({"value": current + 1}))
                        try:
                            txn.commit()
                            break
                        except TransactionError:
                            continue  # conflict: somebody else won; retry
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=incrementer) for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert database["counter"] == obj({"value": per_thread * thread_count})

    def test_concurrent_single_statement_inserts_lose_no_element(self):
        """update/insert/discard/merge are CAS-with-retry: no lost updates."""
        database = ObjectDatabase()
        database.put("doc", obj({"tags": []}))
        per_thread = 20
        thread_count = 4
        errors = []

        def inserter(slot: int):
            try:
                for position in range(per_thread):
                    database.insert("doc", "tags", obj(f"tag-{slot}-{position}"))
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=inserter, args=(slot,)) for slot in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(database["doc"].get("tags")) == per_thread * thread_count

    def test_wal_backed_concurrent_commits(self, tmp_path):
        """The WAL serialises concurrent committers; replay agrees."""
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        errors = []

        def writer(slot: int):
            try:
                for round_number in range(10):
                    database.put(f"slot{slot}", obj({"round": round_number}))
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        database.close()
        assert not errors
        reloaded = ObjectDatabase(FileStorage(path))
        for slot in range(4):
            assert reloaded[f"slot{slot}"] == obj({"round": 9})
        reloaded.close()


class TestRWLock:
    def test_readers_share_writers_exclude(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()  # two readers coexist
        lock.release_read()
        lock.release_read()
        lock.acquire_write()
        lock.release_write()

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        order = []
        lock.acquire_read()
        writer_started = threading.Event()

        def writer():
            writer_started.set()
            lock.acquire_write()
            order.append("writer")
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            order.append("reader")
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_started.wait()
        # Give the writer a moment to start waiting on the held read lock.
        while lock._writers_waiting == 0:
            pass
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        lock.release_read()
        writer_thread.join(timeout=30)
        reader_thread.join(timeout=30)
        # Writer preference: the queued writer went before the late reader.
        assert order == ["writer", "reader"]
