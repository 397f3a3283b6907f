"""The four benchmark workloads.

A workload is run as a series of *rounds*.  Each round first sets up
from cold (the pretrained-SCN cache and the fast-path memo tables are
cleared, so SCN training lands in set-up) and then plays one fixed,
seed-determined batch of operations, which is the timed part.  Every
round of a run does the same work, so the run reports medians over
rounds, and every round's outputs must equal the first round's.

The program is reached only through module attributes looked up at call
time (``pretrained.train_scn``, ``tenancy_day.run_production_day``), so
the traced run's wrappers see every call.

Each op yields an :class:`Item`: the number of ops it covers, a key
saying what to check, and the raw output.  :meth:`Workload.check`
checks the first round's items against the benchmark's own oracles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from oracles import (
    canonical_topk,
    check_ledger,
    check_losses,
    check_members,
    check_topk,
    recall,
)


@dataclass
class Item:
    """One checked output of a round."""

    ops: int
    kind: str
    payload: Any

    def fingerprint(self) -> str:
        """Digest of the output, for round-to-round comparison."""
        digest = hashlib.sha256(self.kind.encode())
        _feed(digest, self.payload)
        return digest.hexdigest()


def _feed(digest: "hashlib._Hash", value: Any) -> None:
    if isinstance(value, np.ndarray):
        digest.update(str(value.dtype).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            digest.update(str(key).encode())
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for v in value:
            _feed(digest, v)
        digest.update(b"]")
    else:
        digest.update(repr(value).encode())


@dataclass
class RoundOutput:
    """What one timed round produced."""

    items: List[Item]
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(item.ops for item in self.items)


def scn_scores(graph: Any, qfv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exhaustive SCN scores of one query against ``rows`` (the oracle)."""
    q_id, d_id = graph.input_ids
    q_shape = graph.shape_of(q_id)
    d_shape = graph.shape_of(d_id)
    out = []
    for start in range(0, len(rows), 4096):
        chunk = rows[start : start + 4096]
        queries = np.broadcast_to(qfv.reshape(q_shape), (len(chunk), *q_shape))
        out.append(
            graph.forward(
                {
                    q_id: np.ascontiguousarray(queries),
                    d_id: chunk.reshape((len(chunk), *d_shape)),
                }
            ).reshape(-1)
        )
    return np.concatenate(out)


def stratified_zipf(
    n_intents: int, alpha: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` intents whose counts follow Zipf(``alpha``) exactly, in a
    seeded order.

    Counts are the Zipf law's largest-remainder apportionment of ``n``,
    so every seed sends the same number of distinct intents (the cache
    misses) and repeats (the hits); only their order and the query
    vectors change with the seed.  That keeps ``host_ops_per_s``
    comparable across seeds.
    """
    from repro.workloads.queries import ZipfSampler

    probs = ZipfSampler(n_intents, alpha).probabilities
    counts = np.floor(probs * n).astype(np.int64)
    short = n - int(counts.sum())
    counts[np.argsort(-(probs * n - counts), kind="stable")[:short]] += 1
    return rng.permutation(np.repeat(np.arange(n_intents), counts))


def cold_start() -> None:
    """Drop every in-process memo the program keeps between calls."""
    from repro.sim import fastpath
    from repro.workloads import pretrained

    pretrained.clear_cache()
    fastpath.clear_tables()


class Workload:
    """Base class: set-up, a timed round, checks and results."""

    name = ""
    #: rounds per run at the least (medians need three)
    min_rounds = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def release(self) -> None:
        """Drop the previous round's state before the next set-up."""
        self.__dict__ = {"seed": self.seed}

    def setup(self) -> None:
        """Cold set-up for one round (timed as ``setup_s``)."""
        raise NotImplementedError

    def round(self, log: Any) -> RoundOutput:
        """The timed operations; ``log.op`` is set to each op's index."""
        raise NotImplementedError

    def check(self, out: RoundOutput) -> List[Tuple[int, str]]:
        """Oracle failures as ``(item index, message)``."""
        raise NotImplementedError

    def results(self, out: RoundOutput) -> Dict[str, Tuple[float, str]]:
        """Workload-specific outcomes: name -> (value, unit)."""
        raise NotImplementedError

    def layer_stats(self, out: RoundOutput) -> Dict[str, float]:
        """Per-layer values read from outputs rather than spans."""
        return {}

    def corrupt(self, out: RoundOutput) -> str:
        """Damage ``out`` the way this workload's self-test needs."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class DeviceQuery(Workload):
    """Zipf query stream on one channel-level device with the cache on."""

    name = "device_query"
    app_name = "tir"
    rows = 32768
    db_intents = 32
    stream_intents = 8
    stream_len = 50
    alpha = 0.8
    paraphrase_noise = 0.15
    k = 10
    cache_threshold = 0.1
    des_replays = 4

    def setup(self) -> None:
        from repro.core import api
        from repro.workloads import apps, features, pretrained, queries

        cold_start()
        self.app = apps.get_app(self.app_name)
        self.graph = pretrained.train_scn(self.app, seed=0)
        spec = features.FeatureDatasetSpec(
            n_features=self.rows,
            dim=self.app.feature_floats,
            n_intents=self.db_intents,
            seed=self.seed,
        )
        self.features, _ = features.make_clustered_features(spec)
        rng = np.random.default_rng([self.seed, 1])
        intents = stratified_zipf(
            self.stream_intents, self.alpha, self.stream_len, rng
        )
        # the stream's centroids are the database's first intents (same
        # seed, same draw order), so queries land on populated clusters
        centroids = queries.QueryStream(
            dim=self.app.feature_floats,
            n_intents=self.stream_intents,
            seed=self.seed,
        ).centroids()
        noise = rng.normal(
            0.0, self.paraphrase_noise, (self.stream_len, self.app.feature_floats)
        )
        self.queries = (centroids[intents] + noise).astype(np.float32)
        self.device = api.DeepStoreDevice(level="channel")
        self.db = self.device.write_db(self.features)
        self.model = self.device.load_graph(self.graph)
        self.device.set_qc(self.cache_threshold)

    def round(self, log: Any) -> RoundOutput:
        from repro.core import event_query

        device = self.device
        items: List[Item] = []
        misses: List[int] = []
        for i, qfv in enumerate(self.queries):
            log.op = i
            result = device.get_results(device.query(qfv, self.k, self.model, self.db))
            latency = result.latency
            items.append(Item(1, "hit" if result.cache_hit else "miss", {
                "ids": result.feature_ids,
                "scores": result.scores,
                "seconds": latency.total_seconds,
                "joules": latency.energy.total_j
                + latency.base_power_w * latency.total_seconds,
            }))
            if not result.cache_hit:
                misses.append(i)
        rng = np.random.default_rng([self.seed, 2])
        replay = rng.choice(misses, size=min(self.des_replays, len(misses)), replace=False)
        meta = device.database_metadata(self.db)
        simulator = event_query.EventQuerySimulator(device.ssd.config)
        des = []
        for j, i in enumerate(sorted(replay.tolist())):
            log.op = self.stream_len + j
            run = simulator.run(self.app, meta, graph=self.graph)
            des.append({
                "query": i,
                "seconds": run.total_seconds,
                "pages": run.pages,
                "pages_failed": run.pages_failed,
            })
        # DES replays are extra work on queries already counted
        items.append(Item(0, "des", des))
        return RoundOutput(items, {"total_pages": meta.total_pages})

    def check(self, out: RoundOutput) -> List[Tuple[int, str]]:
        visible = np.arange(len(self.features))
        errors: List[Tuple[int, str]] = []
        self.tie_reordered = 0
        earlier_ids: set = set()
        for index, item in enumerate(out.items):
            if item.kind == "des":
                for run in item.payload:
                    if run["pages"] != out.extra["total_pages"] or run["pages_failed"]:
                        errors.append((index, (
                            f"DES replay of query {run['query']} covered "
                            f"{run['pages']} pages, database has "
                            f"{out.extra['total_pages']}"
                        )))
                    if not run["seconds"] > 0:
                        errors.append((index, "DES replay took no time"))
                continue
            qfv = self.queries[index]
            ids, scores = item.payload["ids"], item.payload["scores"]
            if item.kind == "miss":
                oracle = scn_scores(self.graph, qfv, self.features)
                problems = check_topk(ids, scores, oracle, visible, self.k)
                if not problems and not np.array_equal(
                    ids, canonical_topk(oracle, visible, self.k)
                ):
                    # same scores, other members of the K-th tie class
                    self.tie_reordered += 1
                earlier_ids.update(np.asarray(ids).tolist())
            else:
                # a hit re-ranks an earlier miss's top-K: score only
                # those rows and check the candidates came from a miss
                oracle = np.full(len(self.features), np.nan, dtype=np.float32)
                oracle[ids] = scn_scores(self.graph, qfv, self.features[ids])
                problems = check_members(ids, scores, oracle, visible)
                stray = set(np.asarray(ids).tolist()) - earlier_ids
                if not problems and stray:
                    problems = [f"hit returned ids {sorted(stray)} no miss produced"]
            errors.extend((index, p) for p in problems)
        return errors

    def results(self, out: RoundOutput) -> Dict[str, Tuple[float, str]]:
        queries = [i for i in out.items if i.kind != "des"]
        seconds = np.array([i.payload["seconds"] for i in queries])
        joules = np.array([i.payload["joules"] for i in queries])
        des = [run["seconds"] for run in out.items[-1].payload]
        hits = sum(1 for i in queries if i.kind == "hit")
        return {
            "sim_query_ms_p50": (_nearest_rank(seconds, 50) * 1e3, "ms"),
            "sim_query_ms_p99": (_nearest_rank(seconds, 99) * 1e3, "ms"),
            "sim_mj_per_query": (float(joules.mean()) * 1e3, "mJ"),
            "sim_des_query_ms": (float(np.median(des)) * 1e3, "ms"),
            "cache_hit_ratio": (hits / len(queries), "ratio"),
            "tie_reordered_misses": (float(getattr(self, "tie_reordered", 0)), "count"),
        }

    def corrupt(self, out: RoundOutput) -> str:
        # swap one returned id of the first miss for the database's
        # worst-scoring row
        index = next(i for i, item in enumerate(out.items) if item.kind == "miss")
        oracle = scn_scores(self.graph, self.queries[index], self.features)
        ids = out.items[index].payload["ids"].copy()
        ids[0] = int(np.argmin(oracle))
        out.items[index].payload["ids"] = ids
        return f"miss {index}: id 0 swapped for row {ids[0]}"


# ----------------------------------------------------------------------
class TenantDay(Workload):
    """The multi-tenant production day with its isolation pair."""

    name = "tenant_day"
    #: a round is one indivisible ~5 s call whose speed swings with the
    #: host's load, so a run needs more of them for a steady median
    min_rounds = 5

    def setup(self) -> None:
        from repro.tenancy import day as tenancy_day
        from repro.tenancy import server as tenancy_server

        cold_start()
        self.config = tenancy_day.default_production_config(self.seed)
        # the per-app cost models the day prices batches with; the day
        # builds its own, this times their construction from cold
        tenancy_server.MultiTenantServer(self.config)

    def round(self, log: Any) -> RoundOutput:
        from repro.tenancy import day as tenancy_day

        log.op = 0
        report = tenancy_day.run_production_day(self.config)
        runs = {
            "day": report.result,
            "with_aggressor_fixed": report.with_aggressor_fixed,
            "without_aggressor": report.without_aggressor,
        }
        items = []
        for run_name, result in runs.items():
            if result is None:
                continue
            for tenant, row in sorted(result.ledger.items()):
                items.append(Item(row["offered"], "ledger", {
                    "run": run_name,
                    "tenant": tenant,
                    "ledger": dict(row),
                    "completed": result.tenants[tenant].completed,
                    "shed": result.tenants[tenant].shed,
                    "slo_attainment": result.tenants[tenant].slo_attainment,
                    "p50_s": result.tenants[tenant].p50_s,
                    "p99_s": result.tenants[tenant].p99_s,
                }))
        return RoundOutput(items, {"aggressor": report.aggressor})

    def check(self, out: RoundOutput) -> List[Tuple[int, str]]:
        from repro.tenancy import trace as tenancy_trace

        full = tenancy_trace.generate_day(self.config)
        aggressor = out.extra["aggressor"]
        solo = tenancy_trace.generate_day(self.config, exclude=(aggressor,))
        offered = {
            "day": _count_by_tenant(full, self.config),
            "with_aggressor_fixed": _count_by_tenant(full, self.config),
            "without_aggressor": _count_by_tenant(solo, self.config),
        }
        errors: List[Tuple[int, str]] = []
        for index, item in enumerate(out.items):
            p = item.payload
            want = offered[p["run"]].get(p["tenant"], 0)
            problems = check_ledger({p["tenant"]: p["ledger"]}, {p["tenant"]: want})
            if not problems and p["completed"] != p["ledger"]["popped"]:
                problems = [
                    f"{p['tenant']}: completed {p['completed']} != "
                    f"popped {p['ledger']['popped']}"
                ]
            errors.extend((index, f"{p['run']}: {m}") for m in problems)
        return errors

    def results(self, out: RoundOutput) -> Dict[str, Tuple[float, str]]:
        day = [i.payload for i in out.items if i.payload["run"] == "day"]
        return {
            "sim_slo_attainment_min": (min(p["slo_attainment"] for p in day), "ratio"),
            "sim_query_ms_p99_max": (max(p["p99_s"] for p in day) * 1e3, "ms"),
            "offered_arrivals": (float(out.ops), "count"),
        }

    def layer_stats(self, out: RoundOutput) -> Dict[str, float]:
        day = [i.payload for i in out.items if i.payload["run"] == "day"]
        offered = sum(p["ledger"]["offered"] for p in day)
        return {"tenancy.shed_frac": sum(p["shed"] for p in day) / offered}

    def corrupt(self, out: RoundOutput) -> str:
        payload = out.items[0].payload
        payload["ledger"]["admitted"] += 1
        return f"{payload['run']}/{payload['tenant']}: admitted +1"


def _count_by_tenant(arrivals: List[Any], config: Any) -> Dict[str, int]:
    counts = {t.name: 0 for t in config.tenants}
    for arrival in arrivals:
        counts[arrival.tenant] += 1
    return counts


# ----------------------------------------------------------------------
class IngestIndex(Workload):
    """Inserts, deletes and updates beside IVF-probed queries."""

    name = "ingest_index"
    app_name = "textqa"
    rows = 32768
    intents = 32
    n_lists = 32
    nprobe = 4
    iterations = 6
    k = 10
    #: op mix of one round: kind -> count (played in a seeded order)
    mix = {"query": 24, "insert": 12, "delete": 8, "update": 8}
    insert_rows = 32
    delete_rows = 16
    #: compact (and so re-index) after every this many ops
    compact_every = 26
    region_pages_per_block = 16

    def setup(self) -> None:
        from repro.index import device as index_device
        from repro.workloads import apps, features, pretrained

        cold_start()
        self.app = apps.get_app(self.app_name)
        self.graph = pretrained.train_scn(self.app, seed=0)
        spec = features.FeatureDatasetSpec(
            n_features=self.rows,
            dim=self.app.feature_floats,
            n_intents=self.intents,
            seed=self.seed,
        )
        self.base, _ = features.make_clustered_features(spec)
        self.centroids = spec.centroids()
        self.device = index_device.IndexedDevice(level="channel")
        self.db = self.device.write_db(self.base)
        self.model = self.device.load_graph(self.graph)
        meta = self.device.database_metadata(self.db)
        total_rows = self.rows + self.mix["insert"] * self.insert_rows + self.mix["update"]
        pages = -(-total_rows // (meta.page_bytes // meta.feature_bytes))
        # no over-provisioning beyond the FTL's two spare blocks: a region
        # this tight makes garbage collection run within one round
        self.device.enable_ingest(
            self.db,
            op_fraction=0.0,
            region_blocks=-(-pages // self.region_pages_per_block) + 2,
            region_pages_per_block=self.region_pages_per_block,
        )
        self.script = self._script()

    def _vector(self, rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
        intents = rng.integers(0, self.intents, n)
        noise = rng.normal(0.0, sigma, (n, self.app.feature_floats))
        return (self.centroids[intents] + noise).astype(np.float32)

    def _script(self) -> List[Tuple[str, Any]]:
        """The round's op list, with the ids each mutation will touch.

        Ids are assigned sequentially by the store, so the benchmark
        knows every id in advance and can pick delete and update
        targets among rows that are visible at that point.
        """
        rng = np.random.default_rng([self.seed, 3])
        kinds = rng.permutation(
            [kind for kind, n in self.mix.items() for _ in range(n)]
        )
        visible = list(range(self.rows))
        next_id = self.rows
        script: List[Tuple[str, Any]] = []
        for n, kind in enumerate(kinds):
            if kind == "query":
                script.append(("query", self._vector(rng, 1, 0.15)[0]))
            elif kind == "insert":
                rows = self._vector(rng, self.insert_rows, 0.35)
                ids = np.arange(next_id, next_id + len(rows))
                next_id += len(rows)
                visible.extend(ids.tolist())
                script.append(("insert", (rows, ids)))
            elif kind == "delete":
                picks = rng.choice(len(visible), self.delete_rows, replace=False)
                ids = sorted(visible[i] for i in picks)
                dead = set(ids)
                visible = [v for v in visible if v not in dead]
                script.append(("delete", ids))
            else:
                old = visible.pop(int(rng.integers(0, len(visible))))
                row = self._vector(rng, 1, 0.35)[0]
                visible.append(next_id)
                script.append(("update", (old, row, next_id)))
                next_id += 1
            if (n + 1) % self.compact_every == 0 or n + 1 == len(kinds):
                if n + 1 < len(kinds):
                    script.append(("compact", None))
                probe = self._vector(rng, 1, 0.15)[0]
                script.append(("exhaustive", probe))
                script.append(("full_probe", probe))
        return script

    def round(self, log: Any) -> RoundOutput:
        from repro.ingest import device as ingest_device

        device, db, model = self.device, self.db, self.model
        device.build_index(
            db, model, self.n_lists, iterations=self.iterations, seed=self.seed
        )
        items: List[Item] = []
        for op, (kind, arg) in enumerate(self.script):
            log.op = op
            if kind in ("query", "full_probe"):
                nprobe = self.nprobe if kind == "query" else self.n_lists
                r = device.get_results(device.query(
                    arg, self.k, model, db, nprobe=nprobe, include_delta=True
                ))
                payload: Any = {
                    "ids": r.feature_ids,
                    "scores": r.scores,
                    "seconds": r.latency.total_seconds,
                    "probed_rows": r.probed_rows,
                }
            elif kind == "exhaustive":
                # the inherited scan path, bypassing the IVF routing
                r = device.get_results(
                    ingest_device.LifecycleDevice.query(device, arg, self.k, model, db)
                )
                payload = {"ids": r.feature_ids, "scores": r.scores}
            elif kind == "insert":
                payload = device.insert_db(db, arg[0])
            elif kind == "delete":
                device.delete_db_rows(db, arg)
                payload = None
            elif kind == "update":
                payload = device.update_db_row(db, arg[0], arg[1])
            else:
                c = device.compact_db(db)
                payload = (c.reclaimed_rows, c.rewritten_rows, c.write_amplification)
            items.append(Item(0 if kind == "compact" else 1, kind, payload))
        state = device.lifecycle(db)
        return RoundOutput(items, {
            "write_amp": state.writepath.write_amplification,
        })

    def _replay(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The benchmark's own mutation log replay.

        Returns every row ever written (id order) and, per script op,
        the ids visible when that op ran.
        """
        rows = [self.base]
        alive = np.ones(self.rows, dtype=bool)
        visible_at: List[np.ndarray] = []
        for kind, arg in self.script:
            if kind == "insert":
                rows.append(arg[0])
                alive = np.concatenate([alive, np.ones(len(arg[0]), dtype=bool)])
            elif kind == "delete":
                alive[arg] = False
            elif kind == "update":
                alive[arg[0]] = False
                rows.append(arg[1][None, :])
                alive = np.concatenate([alive, [True]])
            visible_at.append(np.flatnonzero(alive))
        return np.concatenate(rows), visible_at

    def check(self, out: RoundOutput) -> List[Tuple[int, str]]:
        table, visible_at = self._replay()
        errors: List[Tuple[int, str]] = []
        self.recalls: List[float] = []
        self.probed: List[float] = []
        for index, (item, (kind, arg)) in enumerate(zip(out.items, self.script)):
            visible = visible_at[index]
            problems: List[str] = []
            if kind == "insert" and not np.array_equal(item.payload, arg[1]):
                problems = [f"insert returned ids {item.payload}, log says {arg[1]}"]
            elif kind == "update" and item.payload != arg[2]:
                problems = [f"update returned id {item.payload}, log says {arg[2]}"]
            elif kind in ("query", "exhaustive", "full_probe"):
                oracle = scn_scores(self.graph, arg, table)
                ids, scores = item.payload["ids"], item.payload["scores"]
                if kind == "query":
                    problems = check_members(ids, scores, oracle, visible)
                    self.recalls.append(
                        recall(ids, canonical_topk(oracle, visible, self.k))
                    )
                    self.probed.append(item.payload["probed_rows"] / len(visible))
                else:
                    problems = check_topk(ids, scores, oracle, visible, self.k)
            errors.extend((index, f"{kind}: {p}") for p in problems)
        return errors

    def results(self, out: RoundOutput) -> Dict[str, Tuple[float, str]]:
        seconds = np.array(
            [i.payload["seconds"] for i in out.items if i.kind == "query"]
        )
        return {
            "sim_query_ms_p50": (_nearest_rank(seconds, 50) * 1e3, "ms"),
            "sim_query_ms_p99": (_nearest_rank(seconds, 99) * 1e3, "ms"),
            "sim_write_amp": (out.extra["write_amp"], "ratio"),
            "recall_at_k": (float(np.mean(getattr(self, "recalls", [np.nan]))), "ratio"),
        }

    def layer_stats(self, out: RoundOutput) -> Dict[str, float]:
        probed = getattr(self, "probed", None)
        return {"index.probed_row_frac": float(np.mean(probed)) if probed else 0.0}

    def corrupt(self, out: RoundOutput) -> str:
        # put a row deleted earlier in the round into a later query's result
        deleted = None
        for index, (kind, arg) in enumerate(self.script):
            if kind == "delete" and deleted is None:
                deleted = arg[0]
            elif kind == "query" and deleted is not None:
                ids = out.items[index].payload["ids"].copy()
                ids[-1] = deleted
                out.items[index].payload["ids"] = ids
                return f"query {index}: last id replaced by tombstoned row {deleted}"
        raise RuntimeError("script has no query after a delete")


# ----------------------------------------------------------------------
class ScnTrain(Workload):
    """Fixed-work pair training of the ReId SCN (Conv2D)."""

    name = "scn_train"
    app_name = "reid"
    pairs = 256
    epochs = 2
    batch_size = 64

    def setup(self) -> None:
        from repro.nn import training
        from repro.workloads import apps

        cold_start()
        self.app = apps.get_app(self.app_name)
        self.graph = self.app.build_scn(seed=0)
        rng = np.random.default_rng([self.seed, 4])
        q, d, y = training.make_pair_dataset(rng, self.app.feature_floats, self.pairs)
        self.q = q.reshape((-1, *self.app.feature_shape))
        self.d = d.reshape((-1, *self.app.feature_shape))
        self.y = y
        self.trainer = training.PairTrainer(self.graph, training.TrainConfig(
            learning_rate=0.05, momentum=0.9, batch_size=self.batch_size,
            epochs=self.epochs, seed=self.seed,
        ))

    def round(self, log: Any) -> RoundOutput:
        log.op = 0
        report = self.trainer.fit(self.q, self.d, self.y)
        return RoundOutput([Item(self.pairs * self.epochs, "losses", list(report.losses))])

    def check(self, out: RoundOutput) -> List[Tuple[int, str]]:
        return [(0, p) for p in check_losses(out.items[0].payload)]

    def results(self, out: RoundOutput) -> Dict[str, Tuple[float, str]]:
        return {"train_loss": (out.items[0].payload[-1], "nats")}

    def corrupt(self, out: RoundOutput) -> str:
        out.items[0].payload[-1] = float("nan")
        return "final loss set to NaN"


def _nearest_rank(values: np.ndarray, pct: float) -> float:
    ordered = np.sort(values)
    rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


WORKLOADS = {w.name: w for w in (DeviceQuery, TenantDay, IngestIndex, ScnTrain)}
