"""Seeded request generators and the reference model.

Every workload's requests are generated here from ``--seed`` before they
run; the program under test sees only the generated requests. While it
generates, each generator keeps a reference model of the instances that
must exist afterwards, so the runner can check the program's answers
without asking the program what they should be.

Instances are plain nested dicts. A replacement shares the unchanged
sub-dicts of the instance it replaces (copy-on-write along the changed
path) and nothing ever mutates a dict once it is in the model, so an op
can carry a reference to "the instance as it was then" for free.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Op",
    "Model",
    "Zipf",
    "OpStream",
    "canon",
    "mix",
    "CHART",
    "CHAIN",
    "CHAIN_DEPTH",
    "translate_deep",
    "durable_write",
    "read_mostly",
    "http_cluster",
]

CHART = "patient_chart"
CHAIN_DEPTH = 7
CHAIN = f"chain_object_{CHAIN_DEPTH}"

#: Referenced relations outside the dependency island: the program adds
#: them to what it returns, the requests never carry them.
_REFERENCED = ("PHYSICIAN", "MEDICATION", "LOOKUP", "PENINSULA")

PHYSICIANS = tuple(range(9000, 9008))  # what populate_hospital seeds
UNKNOWN_PHYSICIAN = 1234
_MEDS = ("MED-01", "MED-02", "MED-03", "MED-04", "MED-05", "MED-06")
_CODES = ("hypertension", "diabetes", "influenza", "fracture", "migraine")
_TESTS = ("CBC", "BMP", "lipid panel", "A1C", "urinalysis", "ECG")

Key = Tuple[Any, ...]


def canon(value: Any) -> Any:
    """Order-insensitive comparable form of an instance dict (component
    lists come back in engine order, which rollbacks may permute)."""
    if isinstance(value, dict):
        return {
            name: canon(item)
            for name, item in value.items()
            if name not in _REFERENCED
        }
    if isinstance(value, list):
        return sorted(
            (canon(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
    return value


class Op:
    """One generated request and what the program must answer."""

    __slots__ = (
        "kind",      # insert | replace | delete | get | query | invalid
        "obj",
        "key",       # object key addressed (old key of a replace)
        "payload",   # instance dict sent (insert / replace / invalid)
        "text",      # query text
        "expect",    # get: instance dict; query: sorted keys
        "via",       # invalid: the verb it is sent through
        "cross",     # replace that re-homes the pivot across shards
        "lane",      # client connection (http-cluster)
        "due",       # seconds from phase start (open loop)
    )

    def __init__(self, kind: str, obj: str, key: Key, **fields: Any) -> None:
        self.kind = kind
        self.obj = obj
        self.key = key
        self.payload = fields.get("payload")
        self.text = fields.get("text")
        self.expect = fields.get("expect")
        self.via = fields.get("via")
        self.cross = fields.get("cross", False)
        self.lane = fields.get("lane", 0)
        self.due = None

    def fingerprint(self) -> bytes:
        return json.dumps(
            [self.kind, self.obj, list(self.key), self.payload, self.text,
             self.via, self.lane],
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")


class Model:
    """Expected instances by (object, key), plus keys that must be absent."""

    def __init__(self) -> None:
        self.live: Dict[str, Dict[Key, Dict[str, Any]]] = {}
        self.absent: Dict[str, set] = {}
        self._order: Dict[str, List[Key]] = {}
        self._index: Dict[str, Dict[Key, int]] = {}

    def put(self, obj: str, key: Key, instance: Dict[str, Any]) -> None:
        live = self.live.setdefault(obj, {})
        if key not in live:
            order = self._order.setdefault(obj, [])
            self._index.setdefault(obj, {})[key] = len(order)
            order.append(key)
        live[key] = instance
        self.absent.setdefault(obj, set()).discard(key)

    def drop(self, obj: str, key: Key) -> None:
        del self.live[obj][key]
        order, index = self._order[obj], self._index[obj]
        at = index.pop(key)
        last = order.pop()
        if last != key:
            order[at] = last
            index[last] = at
        self.absent.setdefault(obj, set()).add(key)

    def must_be_absent(self, obj: str, key: Key) -> None:
        if key not in self.live.get(obj, {}):
            self.absent.setdefault(obj, set()).add(key)

    def pick(self, obj: str, rng: random.Random) -> Key:
        order = self._order[obj]
        return order[rng.randrange(len(order))]

    def count(self, obj: str) -> int:
        return len(self._order.get(obj, ()))


class Zipf:
    """Rank r is drawn with weight 1 / (r + 1) ** skew."""

    def __init__(self, population: int, skew: float, rng: random.Random) -> None:
        self._rng = rng
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(population):
            total += 1.0 / (rank + 1) ** skew
            self._cdf.append(total)
        self._total = total

    def rank(self) -> int:
        return bisect.bisect_left(self._cdf, self._rng.random() * self._total)


def mix(count: int, shares: Sequence[Tuple[str, float]], rng: random.Random) -> List[str]:
    """``count`` kinds in exact proportion (the first share absorbs the
    rounding, every kind appears at least once), shuffled by ``rng`` — so
    every seed has the same mix."""
    kinds: List[str] = []
    for kind, share in shares[1:]:
        kinds.extend([kind] * max(1, int(round(count * share))))
    kinds.extend([shares[0][0]] * max(0, count - len(kinds)))
    kinds = kinds[:count]
    rng.shuffle(kinds)
    return kinds


class OpStream:
    """A workload's generated input: set-up instances, then requests in
    chunks, with a running digest of everything generated."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.model = Model()
        self.initial: Dict[str, List[Dict[str, Any]]] = {}
        self._digest = hashlib.sha256(f"{name}:{seed}".encode())
        self.generated = 0
        self.invalid_generated = 0

    def note(self, op: Op) -> Op:
        self._digest.update(op.fingerprint())
        self.generated += 1
        if op.kind == "invalid":
            self.invalid_generated += 1
        return op

    def seed_instance(self, obj: str, key: Key, instance: Dict[str, Any]) -> None:
        self.initial.setdefault(obj, []).append(instance)
        self.model.put(obj, key, instance)
        self._digest.update(
            json.dumps(instance, sort_keys=True, separators=(",", ":")).encode()
        )

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


# -- instance builders ----------------------------------------------------------


def make_chart(
    pid: int,
    rng: random.Random,
    visits: int,
    leaves: Optional[int],
    physician: Optional[int] = None,
) -> Dict[str, Any]:
    """A patient chart. ``leaves`` fixes the count per leaf kind; None
    draws 1-3 diagnoses, 0-2 prescriptions and 0-3 labs per visit."""

    def count(low: int, high: int) -> int:
        return leaves if leaves is not None else rng.randint(low, high)

    chart: Dict[str, Any] = {
        "patient_id": pid,
        "name": f"Patient #{pid}",
        "birth_year": rng.randint(1930, 2010),
        "ward_name": None,
        "VISIT": [],
    }
    for visit_no in range(1, visits + 1):
        base = {"patient_id": pid, "visit_no": visit_no}
        chart["VISIT"].append({
            **base,
            "visit_date": f"199{rng.randint(0, 1)}-{rng.randint(1, 12):02d}-"
                          f"{rng.randint(1, 28):02d}",
            "physician_id": physician or rng.choice(PHYSICIANS),
            "reason": rng.choice(_CODES),
            "DIAGNOSIS": [
                {**base, "diag_no": n, "code": rng.choice(_CODES),
                 "severity": "mild"}
                for n in range(1, count(1, 3) + 1)
            ],
            "PRESCRIPTION": [
                {**base, "rx_no": n, "med_id": rng.choice(_MEDS),
                 "days": rng.randint(5, 30)}
                for n in range(1, count(0, 2) + 1)
            ],
            "LAB_RESULT": [
                {**base, "test_no": n, "test_name": rng.choice(_TESTS),
                 "value": round(rng.uniform(0.5, 200.0), 1)}
                for n in range(1, count(0, 3) + 1)
            ],
        })
    return chart


def rekey_chart(chart: Dict[str, Any], pid: int) -> Dict[str, Any]:
    """The same chart under a new patient id (every tuple carries it)."""

    def rekey(node: Any) -> Any:
        if isinstance(node, dict):
            return {
                name: (pid if name == "patient_id" else rekey(item))
                for name, item in node.items()
            }
        if isinstance(node, list):
            return [rekey(item) for item in node]
        return node

    return rekey(chart)


_LEAF_ATTR = {"DIAGNOSIS": "severity", "PRESCRIPTION": "days", "LAB_RESULT": "value"}


def tweak_chart(chart: Dict[str, Any], rng: random.Random, tick: int) -> Dict[str, Any]:
    """Change one attribute of one tuple; everything else is shared."""
    new = dict(chart)
    roll = rng.random()
    if roll < 0.2 or not chart["VISIT"]:
        new["name"] = f"Patient #{chart['patient_id']} r{tick}"
        return new
    visits = list(chart["VISIT"])
    at = rng.randrange(len(visits))
    visit = dict(visits[at])
    leaf_kinds = [kind for kind in _LEAF_ATTR if visit[kind]]
    if roll < 0.4 or not leaf_kinds:
        visit["reason"] = f"reason r{tick}"
    else:
        kind = rng.choice(leaf_kinds)
        leaves = list(visit[kind])
        which = rng.randrange(len(leaves))
        leaf = dict(leaves[which])
        attr = _LEAF_ATTR[kind]
        leaf[attr] = (
            f"sev r{tick}" if attr == "severity"
            else (tick % 90) + 1 if attr == "days"
            else round((tick % 1999) / 10.0 + 0.1, 1)
        )
        leaves[which] = leaf
        visit[kind] = leaves
    visits[at] = visit
    new["VISIT"] = visits
    return new


def make_chain(k0: int, tag: str) -> Dict[str, Any]:
    """One root of the depth-7 chain: two children at level 1, one below."""

    def level(depth: int, prefix: Tuple[int, ...]) -> Dict[str, Any]:
        node: Dict[str, Any] = {f"k{i}": v for i, v in enumerate(prefix)}
        node["payload"] = f"{tag}:{depth}"
        if depth == 0:
            node["lookup_id"] = k0 % 5
        if depth < CHAIN_DEPTH:
            fan = 2 if depth == 0 else 1
            node[f"R{depth + 1}"] = [
                level(depth + 1, prefix + (child,)) for child in range(fan)
            ]
        return node

    return level(0, (k0,))


def tweak_chain(chain: Dict[str, Any], rng: random.Random, tick: int) -> Dict[str, Any]:
    """Change the payload of one tuple along one root-to-leaf path."""
    target = rng.randrange(CHAIN_DEPTH + 1)
    new = dict(chain)
    node = new
    for depth in range(target):
        name = f"R{depth + 1}"
        children = list(node[name])
        at = rng.randrange(len(children))
        children[at] = dict(children[at])
        node[name] = children
        node = children[at]
    node["payload"] = f"r{tick}:{target}"
    return new


# -- workloads ---------------------------------------------------------------------


def _chart_write_ops(
    stream: OpStream,
    kind: str,
    rng: random.Random,
    fresh: Iterator[int],
    visits: int,
    leaves: Optional[int],
    rekey_every: int,
    counter: List[int],
    lane: int = 0,
    pick=None,
) -> Op:
    """One valid insert / replace / delete / get on a patient chart."""
    model = stream.model
    pick = pick or (lambda: model.pick(CHART, rng))
    if kind == "insert":
        pid = next(fresh)
        chart = make_chart(pid, rng, visits, leaves)
        model.put(CHART, (pid,), chart)
        return Op("insert", CHART, (pid,), payload=chart, lane=lane)
    key = pick()
    if kind == "get":
        return Op("get", CHART, key, expect=model.live[CHART][key], lane=lane)
    if kind == "delete":
        model.drop(CHART, key)
        return Op("delete", CHART, key, lane=lane)
    counter[0] += 1
    old = model.live[CHART][key]
    if rekey_every and counter[0] % rekey_every == 0:
        pid = next(fresh)
        new = rekey_chart(old, pid)
        model.drop(CHART, key)
        model.put(CHART, (pid,), new)
    else:
        new = tweak_chart(old, rng, counter[0])
        model.put(CHART, key, new)
    return Op("replace", CHART, key, payload=new, lane=lane)


def translate_deep(seed: int, ops: int, chunk: int = 250) -> Tuple[OpStream, Iterator[List[Op]]]:
    """Deep charts (6 visits x 3 leaves per kind: 61-tuple plans) and the
    depth-7 chain, with a tenth of the requests deliberately invalid."""
    rng = random.Random(seed)
    stream = OpStream("translate-deep", seed)
    model = stream.model
    fresh_pid = iter(range(100_000, 10**9))
    fresh_k0 = iter(range(100_000, 10**9))
    for pid in range(1000, 1060):
        stream.seed_instance(CHART, (pid,), make_chart(pid, rng, 6, 3))
    for k0 in range(1000, 1030):
        stream.seed_instance(CHAIN, (k0,), make_chain(k0, "seed"))
    kinds = mix(ops, [("replace", 0.5), ("insert", 0.2), ("delete", 0.1),
                      ("get", 0.1), ("invalid", 0.1)], rng)
    counter = [0]
    invalid_turn = [0]

    def invalid() -> Op:
        invalid_turn[0] += 1
        which = invalid_turn[0] % 3
        if which == 0:  # island key collision on insert
            key = model.pick(CHART, rng)
            clash = make_chart(key[0], rng, 6, 3)
            return Op("invalid", CHART, key, payload=clash, via="insert")
        if which == 1:  # island key collision on re-key
            key = model.pick(CHART, rng)
            other = model.pick(CHART, rng)
            while other == key:
                other = model.pick(CHART, rng)
            clash = rekey_chart(model.live[CHART][key], other[0])
            return Op("invalid", CHART, key, payload=clash, via="replace")
        # a change to a referenced relation the translator may not touch
        pid = next(fresh_pid)
        chart = make_chart(pid, rng, 6, 3, physician=UNKNOWN_PHYSICIAN)
        model.must_be_absent(CHART, (pid,))
        return Op("invalid", CHART, (pid,), payload=chart, via="insert")

    def chain_op(kind: str) -> Op:
        if kind == "insert":
            k0 = next(fresh_k0)
            chain = make_chain(k0, "new")
            model.put(CHAIN, (k0,), chain)
            return Op("insert", CHAIN, (k0,), payload=chain)
        key = model.pick(CHAIN, rng)
        if kind == "get":
            return Op("get", CHAIN, key, expect=model.live[CHAIN][key])
        if kind == "delete":
            model.drop(CHAIN, key)
            return Op("delete", CHAIN, key)
        counter[0] += 1
        new = tweak_chain(model.live[CHAIN][key], rng, counter[0])
        model.put(CHAIN, key, new)
        return Op("replace", CHAIN, key, payload=new)

    def chunks() -> Iterator[List[Op]]:
        for start in range(0, len(kinds), chunk):
            out = []
            for kind in kinds[start:start + chunk]:
                if kind == "invalid":
                    op = invalid()
                elif rng.random() < 0.25 and (
                    kind == "insert" or model.count(CHAIN) > 8
                ):
                    op = chain_op(kind)
                else:
                    if kind in ("delete",) and model.count(CHART) <= 8:
                        kind = "insert"
                    op = _chart_write_ops(
                        stream, kind, rng, fresh_pid, 6, 3, 10, counter
                    )
                out.append(stream.note(op))
            yield out

    return stream, chunks()


def durable_write(seed: int, ops: int, chunk: int = 1000) -> Tuple[OpStream, Iterator[List[Op]]]:
    """Flat charts (one visit, no leaves: 2-op plans), insert / replace /
    delete in equal shares plus a tenth of reads so read latency exists."""
    rng = random.Random(seed)
    stream = OpStream("durable-write", seed)
    fresh_pid = iter(range(100_000, 10**9))
    for pid in range(1000, 1200):
        stream.seed_instance(CHART, (pid,), make_chart(pid, rng, 1, 0))
    kinds = mix(ops, [("insert", 0.3), ("replace", 0.3), ("delete", 0.3),
                      ("get", 0.1)], rng)
    counter = [0]

    def chunks() -> Iterator[List[Op]]:
        for start in range(0, len(kinds), chunk):
            out = []
            for kind in kinds[start:start + chunk]:
                if kind == "delete" and stream.model.count(CHART) <= 8:
                    kind = "insert"
                out.append(stream.note(_chart_write_ops(
                    stream, kind, rng, fresh_pid, 1, 0, 0, counter
                )))
            yield out

    return stream, chunks()


READ_MOSTLY_PATIENTS = 2000


def read_mostly(seed: int, ops: int, chunk: int = 5000) -> Tuple[OpStream, Iterator[List[Op]]]:
    """2000 patients x 4 visits behind a lazy materialized view, zipf 0.9:
    95% get, 1% predicate query, 3% replace, 0.5% insert, 0.5% delete.

    Each write invalidates at most one cached instance, so at most 3.2%
    of the gets miss: ``read_p95_ms`` is a cache hit on every seed and the
    miss path shows in ``throughput_ops_s`` (a miss costs ~60 hits)."""
    rng = random.Random(seed)
    stream = OpStream("read-mostly", seed)
    model = stream.model
    fresh_pid = iter(range(100_000, 10**9))
    ranked: List[Key] = []
    by_year: Dict[int, set] = {}
    for pid in range(1000, 1000 + READ_MOSTLY_PATIENTS):
        chart = make_chart(pid, rng, 4, 2)
        stream.seed_instance(CHART, (pid,), chart)
        ranked.append((pid,))
        by_year.setdefault(chart["birth_year"], set()).add((pid,))
    rng.shuffle(ranked)
    zipf = Zipf(len(ranked), 0.9, rng)
    kinds = mix(ops, [("get", 0.95), ("replace", 0.03), ("query", 0.01),
                      ("insert", 0.005), ("delete", 0.005)], rng)
    counter = [0]
    extra: List[Key] = []  # inserted by the workload; deletes take these

    def chunks() -> Iterator[List[Op]]:
        for start in range(0, len(kinds), chunk):
            out = []
            for kind in kinds[start:start + chunk]:
                if kind == "query":
                    year = rng.randint(1930, 2010)
                    op = Op("query", CHART, (), text=f"birth_year = {year}",
                            expect=sorted(by_year.get(year, ())))
                elif kind == "delete" and extra:
                    key = extra.pop(rng.randrange(len(extra)))
                    by_year[model.live[CHART][key]["birth_year"]].discard(key)
                    model.drop(CHART, key)
                    op = Op("delete", CHART, key)
                elif kind in ("insert", "delete"):
                    op = _chart_write_ops(
                        stream, "insert", rng, fresh_pid, 4, 2, 0, counter
                    )
                    extra.append(op.key)
                    by_year.setdefault(op.payload["birth_year"], set()).add(op.key)
                else:
                    op = _chart_write_ops(
                        stream, kind, rng, fresh_pid, 4, 2, 0, counter,
                        pick=lambda: ranked[zipf.rank()],
                    )
                out.append(stream.note(op))
            yield out

    return stream, chunks()


#: Range routing fixed by the benchmark: patient ids below the boundary
#: live on shard 0, the rest on shard 1, so the generator knows which
#: re-keys cross shards without asking the program.
SHARD_BOUNDARY = 500_000
HTTP_PATIENTS = 200
LANES = 4


def _http_pid(rank: int) -> int:
    """Rank -> patient id: ranks alternate shards, then lanes (parity)."""
    side = rank % 2
    return side * SHARD_BOUNDARY + 1000 + rank // 2


def http_cluster(
    seed: int, closed_ops: int, open_phases: Sequence[Tuple[float, float]]
) -> Tuple[OpStream, List[List[Op]], List[Tuple[float, List[List[Op]]]]]:
    """Zipf 1.1 over 200 three-visit charts on 2 shards, one request
    stream per client connection (lanes own disjoint keys, so requests in
    flight together never address the same instance): 50% read, 35%
    replace, 10% insert, 5% delete; 2% of replaces re-key across shards.

    Returns the stream, the closed-loop ops per lane, and per open-loop
    phase ``(rate, ops per lane)`` with ``due`` set from the rate."""
    rng = random.Random(seed)
    stream = OpStream("http-cluster", seed)
    model = stream.model
    ranked: List[List[Key]] = [[] for _ in range(LANES)]
    for rank in range(HTTP_PATIENTS):
        pid = _http_pid(rank)
        stream.seed_instance(CHART, (pid,), make_chart(pid, rng, 3, 2))
        ranked[pid % LANES].append((pid,))
    zipfs = [Zipf(len(keys), 1.1, rng) for keys in ranked]
    extra: List[List[Key]] = [[] for _ in range(LANES)]
    fresh = [
        [iter(range(side * SHARD_BOUNDARY + 100_000 + lane, 10**9, LANES))
         for side in range(2)]
        for lane in range(LANES)
    ]
    counter = [0]
    shares = [("get", 0.5), ("replace", 0.35), ("insert", 0.1), ("delete", 0.05)]

    def lane_ops(lane: int, count: int) -> List[Op]:
        out = []
        for kind in mix(count, shares, rng):
            if kind == "delete" and not extra[lane]:
                kind = "insert"
            if kind == "insert":
                side = rng.randrange(2)
                op = _chart_write_ops(
                    stream, "insert", rng, fresh[lane][side], 3, 2, 0,
                    counter, lane=lane,
                )
                extra[lane].append(op.key)
            elif kind == "delete":
                key = extra[lane].pop(rng.randrange(len(extra[lane])))
                model.drop(CHART, key)
                op = Op("delete", CHART, key, lane=lane)
            elif kind == "replace" and extra[lane] and rng.random() < 0.02:
                # Re-home an inserted chart onto the other shard (2PC).
                at = rng.randrange(len(extra[lane]))
                key = extra[lane][at]
                side = 1 - (key[0] >= SHARD_BOUNDARY)
                pid = next(fresh[lane][side])
                new = rekey_chart(model.live[CHART][key], pid)
                model.drop(CHART, key)
                model.put(CHART, (pid,), new)
                extra[lane][at] = (pid,)
                op = Op("replace", CHART, key, payload=new, lane=lane,
                        cross=True)
            else:
                op = _chart_write_ops(
                    stream, kind, rng, fresh[lane][0], 3, 2, 0, counter,
                    lane=lane,
                    pick=lambda lane=lane: ranked[lane][zipfs[lane].rank()],
                )
            out.append(stream.note(op))
        return out

    closed = [lane_ops(lane, closed_ops // LANES) for lane in range(LANES)]
    phases = []
    for rate, seconds in open_phases:
        per_lane = max(1, int(rate * seconds / LANES))
        lanes = []
        for lane in range(LANES):
            ops = lane_ops(lane, per_lane)
            for index, op in enumerate(ops):
                op.due = index * LANES / rate
            lanes.append(ops)
        phases.append((rate, lanes))
    return stream, closed, phases
