"""Inputs, programs and output checks of the four benchmark workloads.

Two sides share this file and never the same process:

* the **harness** (``run.py``'s parent process) calls :func:`generate_inputs`
  to derive every input from the seed — the graph container, the per-client
  op lists, the update stream — and :func:`check_outputs` to compare what the
  program returned against oracles it computes itself;
* the **program** (one fresh child process per set-up or measured run) calls
  :func:`run_program` with a spec that names only those generated inputs.

Why these four workloads, and why not others, is recorded in ``README.md``
next to this file; the one-line reasons live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import statistics
import time
from contextlib import ExitStack
from pathlib import Path

WORKLOADS = ("batch_local", "batch_gas_sim", "batch_gas_workers",
             "serve_mixed")
BATCH_WORKLOADS = WORKLOADS[:3]

#: Fixed input shape (ISSUE 11): powerlaw_cluster(n, 5, 0.5) and k_local=20.
FULL_VERTICES = 10_000
SMOKE_VERTICES = 1_000
EDGES_PER_VERTEX = 5
TRIANGLE_PROBABILITY = 0.5
K_LOCAL = 20

#: Warm-up reps before the first timed rep; they belong to ``setup_s``.
WARMUP_REPS = {"batch_local": 3, "batch_gas_sim": 1, "batch_gas_workers": 3}

#: Serving shape (ISSUE 11).
QUEUE_BOUND = 64
COMPACT_EVERY = 256
WRITE_SHARE = 0.10
FEED_OPS = 200_000          # far more than any run completes
SAMPLED_ANSWERS = 256
WARMUP_SHARE = 0.10         # first tenth of the serving window is cut

#: Stand-alone index/delta replay of the traced pass: long enough to cross
#: one compaction boundary, so ``index.compactions`` is not trivially 0.
REPLAY_UPDATES = COMPACT_EVERY + 16
KERNEL_PROBE_REPS = 5


def parallelism() -> int:
    """Workers / clients: ``min(2, cores this process may run on)``."""
    return min(2, len(os.sched_getaffinity(0)))


def snaple_config(seed: int):
    from repro import SnapleConfig

    return SnapleConfig.paper_default(seed=seed, k_local=K_LOCAL)


# ----------------------------------------------------------------------
# Harness side: inputs from the seed
# ----------------------------------------------------------------------
def generate_inputs(seed: int, workdir: Path, vertices: int) -> dict:
    """Write the graph container and the op lists; returns the input spec.

    Everything is a function of ``(seed, vertices)``: the same seed gives
    byte-identical files.
    """
    import numpy as np

    from repro.graph.generators import powerlaw_cluster

    graph = powerlaw_cluster(vertices, EDGES_PER_VERTEX,
                             TRIANGLE_PROBABILITY, seed=seed)
    container = workdir / "graph"
    start = time.perf_counter()
    graph.save_memmap(container)
    build_s = time.perf_counter() - start
    container_bytes = sum(entry.stat().st_size
                          for entry in container.iterdir())

    rng = np.random.default_rng(seed)
    # Query popularity ~ 1/(rank+1) over a seed-shuffled ranking: some
    # vertices repeat (result-cache hits), most of the tail does not.
    weights = 1.0 / (1.0 + rng.permutation(vertices))
    weights /= weights.sum()
    op_vertices = rng.choice(vertices, size=FEED_OPS, p=weights)
    op_is_write = rng.random(FEED_OPS) < WRITE_SHARE
    updates = _new_edges(graph, rng, int(op_is_write.sum()))
    sample = rng.choice(vertices, size=min(SAMPLED_ANSWERS, vertices),
                        replace=False)
    ops_path = workdir / "ops.npz"
    np.savez(ops_path, op_vertices=op_vertices, op_is_write=op_is_write,
             updates=updates, sample=sample)
    digest = hashlib.sha256()
    for array in (*graph.edge_arrays(), op_vertices, op_is_write, updates,
                  sample):
        digest.update(np.ascontiguousarray(array).tobytes())
    return {
        "seed": seed,
        "vertices": vertices,
        "container": str(container),
        "ops": str(ops_path),
        "inputs_digest": digest.hexdigest(),
        "graph.storage.build_s": build_s,
        "graph.storage.bytes": container_bytes,
    }


def _new_edges(graph, rng, count: int):
    """``count`` distinct directed edges absent from ``graph``, in draw order."""
    import numpy as np

    n = graph.num_vertices
    src, dst = graph.edge_arrays()
    taken = set((src.astype(np.int64) * n + dst).tolist())
    edges: list[tuple[int, int]] = []
    while len(edges) < count:
        pairs = rng.integers(0, n, size=(2 * count, 2))
        for u, v in pairs.tolist():
            key = u * n + v
            if u != v and key not in taken:
                taken.add(key)
                edges.append((u, v))
                if len(edges) == count:
                    break
    return np.asarray(edges, dtype=np.int64).reshape(count, 2)


# ----------------------------------------------------------------------
# Digests and oracles (harness side)
# ----------------------------------------------------------------------
def predictions_digest(predictions: dict[int, list[int]]) -> str:
    """SHA-256 over ``vertex -> ranked targets`` in ascending vertex order."""
    import numpy as np

    vertices = sorted(predictions)
    rows = [predictions[u] for u in vertices]
    digest = hashlib.sha256()
    digest.update(np.asarray(vertices, dtype=np.int64).tobytes())
    digest.update(np.fromiter(map(len, rows), dtype=np.int64,
                              count=len(rows)).tobytes())
    digest.update(np.fromiter(itertools.chain.from_iterable(rows),
                              dtype=np.int64).tobytes())
    return digest.hexdigest()


def oracle_digests(inputs: dict, workloads) -> dict[str, str]:
    """Expected predictions digest per batch workload, computed here.

    ``batch_local`` is checked against the scalar ``mode="reference"``
    implementation and ``batch_gas_sim`` against a fresh serial ``gas`` run
    (both draw truncation from one sequential stream).  ``workers=N`` runs
    draw per vertex instead, so they differ from the serial engine on the
    truncated hubs' neighbourhoods; their documented bit-exact twin is a
    cold :class:`~repro.serving.index.IncrementalIndex`, which is the
    oracle for ``batch_gas_workers``.
    """
    from repro import DiGraph, SnapleLinkPredictor
    from repro.serving.index import IncrementalIndex

    graph = DiGraph.load_memmap(inputs["container"])
    config = snaple_config(inputs["seed"])
    digests = {}
    if "batch_local" in workloads:
        report = SnapleLinkPredictor(config).predict(
            graph, backend="local", mode="reference")
        digests["batch_local"] = predictions_digest(report.predictions)
    if "batch_gas_sim" in workloads:
        report = SnapleLinkPredictor(config).predict(graph, backend="gas")
        digests["batch_gas_sim"] = predictions_digest(report.predictions)
    if "batch_gas_workers" in workloads:
        index = IncrementalIndex(graph, config)
        digests["batch_gas_workers"] = predictions_digest(
            index.all_predictions())
    return digests


def cold_index_after(inputs: dict, num_updates: int):
    """A cold index over the base graph plus the first ``num_updates``
    edges of the update stream, built without ``GraphDelta``."""
    import numpy as np

    from repro import DiGraph
    from repro.serving.index import IncrementalIndex

    base = DiGraph.load_memmap(inputs["container"])
    src, dst = base.edge_arrays()
    with np.load(inputs["ops"]) as ops:
        updates = ops["updates"][:num_updates]
    merged = DiGraph(base.num_vertices,
                     np.concatenate([src, updates[:, 0]]),
                     np.concatenate([dst, updates[:, 1]]))
    return IncrementalIndex(merged, snaple_config(inputs["seed"]))


def check_outputs(workload: str, inputs: dict, output: dict,
                  oracles: dict[str, str], golden: dict | None) -> list[str]:
    """Every way ``output`` disagrees with the oracles; empty when correct.

    ``golden`` is the committed record for this seed and size (``None`` for
    any other seed): it pins the inputs and the batch predictions across
    commits, where the oracles only pin them within one.
    """
    import numpy as np

    problems: list[str] = []

    def pinned(key: str, computed: str) -> str:
        if golden is not None and golden[key] != computed:
            problems.append(f"{key}: computed here {computed[:12]}, "
                            f"golden.json has {golden[key][:12]}")
        return computed

    pinned("inputs", inputs["inputs_digest"])
    if output["segments_left"]:
        problems.append(f"leaked shm segments: {output['segments_left']}")
    if workload in BATCH_WORKLOADS:
        expected = pinned(workload, oracles[workload])
        problems += [f"rep {rep}: predictions digest {digest[:12]} != "
                     f"oracle {expected[:12]}"
                     for rep, digest in enumerate(output["digests"])
                     if digest != expected]
        return problems
    index = cold_index_after(inputs, output["updates_applied"])
    with np.load(inputs["ops"]) as ops:
        sample = ops["sample"].tolist()
    for vertex, answer in zip(sample, output["sampled_answers"]):
        if answer != index.predictions(vertex):
            problems.append(f"top_k({vertex}) = {answer} != cold index "
                            f"{index.predictions(vertex)}")
    if "replay_digest" in output:
        expected = pinned("serve_mixed_replay", predictions_digest(
            cold_index_after(inputs, REPLAY_UPDATES).all_predictions()))
        if output["replay_digest"] != expected:
            problems.append("replayed index differs from the cold index")
    return problems


# ----------------------------------------------------------------------
# Process accounting (program side)
# ----------------------------------------------------------------------
def process_tree_hwm_mib(root: int) -> float:
    """Sum of ``VmHWM`` over ``root`` and all its live descendants, in MiB.

    ``RUSAGE_CHILDREN`` only covers reaped children, and the forkserver pool
    workers are alive (un-reaped) while we measure, so walk ``/proc``.
    """
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii",
                          errors="replace") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue            # exited while we were listing
            parent_of[int(entry)] = int(fields[1])
    tree = {root}
    grew = True
    while grew:
        grew = False
        for pid, parent in parent_of.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total_kib = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


# ----------------------------------------------------------------------
# Program side: one child process runs exactly one of these
# ----------------------------------------------------------------------
def run_program(spec: dict) -> dict:
    """Set up, measure (unless ``setup_only``) and tear down one workload.

    ``spec`` carries the generated inputs (container path, op-list path,
    seed), the workload name, ``seconds``, ``min_reps`` and the parent's
    ``spawned_at`` timestamp, from which ``setup_s`` is counted so that
    interpreter start and ``import repro`` are inside it.
    """
    from repro.runtime.shm import list_segments

    from trace import NULL_TRACER, Tracer

    tracer = Tracer(spec["workload"]) if spec.get("trace_path") else NULL_TRACER
    if spec["workload"] == "serve_mixed":
        output = _serve_program(spec, tracer)
    else:
        output = _batch_program(spec, tracer)
    output["segments_left"] = list_segments()
    if tracer.enabled:
        output["self_time"] = tracer.write(spec["trace_path"])
    return output


def _median(values) -> float:
    return float(statistics.median(values))


def _batch_program(spec: dict, tracer) -> dict:
    from repro import DiGraph, SnapleLinkPredictor, get_backend
    from repro.runtime.parallel import WorkerPoolLease

    workload = spec["workload"]
    config = snaple_config(spec["seed"])
    container = spec["container"]
    backend = "local" if workload == "batch_local" else "gas"
    options = ({"workers": parallelism()}
               if workload == "batch_gas_workers" else {})

    with ExitStack() as teardown:
        predictor = teardown.enter_context(SnapleLinkPredictor(config))
        if tracer.enabled and options:
            # predict() hides its pool lease; the traced rep calls the
            # backend directly and therefore brings its own.
            options["pool"] = teardown.enter_context(WorkerPoolLease())
        # The pool lease is keyed on the graph object, so a pooled workload
        # opens the container once, with the pool, instead of once per rep.
        pinned = DiGraph.load_memmap(container) if options else None

        def rep(number: int):
            tracer.rep = number
            with tracer.span("rep"):
                start = time.perf_counter()
                if pinned is not None:
                    graph = pinned
                else:
                    with tracer.span("graph.storage.load"):
                        graph = DiGraph.load_memmap(container)
                if tracer.enabled:
                    with tracer.span("engines.get_backend"):
                        engine = get_backend(backend, **options)
                    with tracer.span("engines.prepare"):
                        engine.prepare(graph, config)
                    with tracer.span("engines.run"):
                        report = engine.run()
                else:
                    report = predictor.predict(graph, backend=backend,
                                               **options)
                with tracer.span("read_topk"):
                    read = 0
                    for targets in report.predictions.values():
                        read += len(targets)
                predicted = time.perf_counter()
                with tracer.span("materialize_scores"):
                    dict(report.scores)
                scored = time.perf_counter()
            return predicted - start, scored - start, report

        warmup = [rep(number - WARMUP_REPS[workload])[0]
                  for number in range(WARMUP_REPS[workload])]
        output: dict = {
            "setup_s": time.perf_counter() - spec["spawned_at"],
            "warmup_s": warmup,
        }
        if spec["setup_only"]:
            return output

        predict_s: list[float] = []
        scores_s: list[float] = []
        digests: list[str] = []
        # Traced pass only, and numbers only: a kept report pins ~10 MB, so
        # every later rep would fault in fresh pages and time those instead.
        accounting: list[dict] = []
        report = None
        began = time.perf_counter()
        while (len(predict_s) < spec["min_reps"]
               or time.perf_counter() - began < spec["seconds"]):
            predicted, scored, report = rep(len(predict_s))
            predict_s.append(predicted)
            scores_s.append(scored)
            predictions = report.predictions
            if spec.get("corrupt") and not digests:
                predictions = _corrupted(predictions)
            digests.append(predictions_digest(predictions))
            if tracer.enabled:
                accounting.append({
                    "wall_clock_seconds": report.wall_clock_seconds,
                    "per_partition_seconds": report.per_partition_seconds,
                    "sync_overhead_seconds": report.sync_overhead_seconds,
                    "routing_seconds": report.extra.get("routing_seconds"),
                })
        output.update(
            span_s=time.perf_counter() - began,
            predict_s=predict_s,
            predict_scores_s=scores_s,
            digests=digests,
            peak_rss_mb=process_tree_hwm_mib(os.getpid()),
        )
        if tracer.enabled:
            output["layers"] = _batch_layers(spec, tracer, config, report,
                                             accounting, warmup)
        return output


def _corrupted(predictions: dict[int, list[int]]) -> dict[int, list[int]]:
    """``--selftest``: the same predictions with one target changed."""
    vertex = next(u for u, targets in predictions.items() if targets)
    changed = dict(predictions)
    changed[vertex] = [predictions[vertex][0] + 1, *predictions[vertex][1:]]
    return changed


# ----------------------------------------------------------------------
# Program side, traced pass only: per-layer metrics measured from outside
# ----------------------------------------------------------------------
def _batch_layers(spec: dict, tracer, config, last, accounting,
                  warmup) -> dict:
    """Per-layer metrics a traced batch run yields for its own layers."""
    from repro import DiGraph

    workload = spec["workload"]
    rep_s = _median(tracer.durations("rep")[len(warmup):])
    predict_s = rep_s - _median(tracer.durations("materialize_scores")
                                [len(warmup):])
    load_s = (_median(tracer.durations("graph.storage.load")[len(warmup):])
              if workload != "batch_gas_workers" else 0.0)
    prepare_s = _median(tracer.durations("engines.prepare")[len(warmup):])
    run_s = _median(tracer.durations("engines.run")[len(warmup):])
    layers = {
        "engines.prepare_s": prepare_s,
        "engines.run_s": run_s,
        "engines.dispatch_overhead_s": predict_s - load_s - prepare_s - run_s,
        "traced_predict_s": predict_s,
        "top_level_layers_s": load_s + prepare_s + run_s,
    }
    graph = DiGraph.load_memmap(spec["container"])
    if workload == "batch_local":
        layers["graph.storage.load_s"] = load_s
        layers.update(_kernel_layers(tracer, graph, config))
    elif workload == "batch_gas_sim":
        layers.update(_gas_layers(tracer, graph, config, last, accounting))
    else:
        layers.update(_parallel_layers(tracer, graph, config, last,
                                       accounting, warmup, predict_s))
    return layers


def _kernel_layers(tracer, graph, config) -> dict:
    """Direct calls to the kernel's phases, each timed on its own."""
    import numpy as np

    from repro.snaple import kernel

    targets = list(graph.vertices())
    tracer.rep = None
    for _ in range(KERNEL_PROBE_REPS):
        with tracer.span("snaple.kernel"):
            with tracer.span("kernel.truncate"):
                gamma = kernel.build_truncated_neighborhoods(graph, config)
            with tracer.span("kernel.similarity"):
                edges = kernel.edge_similarities(graph, gamma, config)
            with tracer.span("kernel.klocal"):
                kept = kernel.select_klocal(edges, config)
            with tracer.span("kernel.combine_rank"):
                predictions, scores = kernel.combine_and_rank(
                    graph, gamma, kept, config, targets,
                    neighbor_order="sampler", materialize_scores=False)
            with tracer.span("kernel.materialize"):
                materialized = dict(scores)
    indptr, _indices = graph.csr_out_adjacency()
    candidates = sum(len(row) for row in materialized.values())
    kept_predictions = sum(len(row) for row in predictions.values())
    return {
        "kernel.truncate_s": _median(tracer.durations("kernel.truncate")),
        "kernel.similarity_s": _median(tracer.durations("kernel.similarity")),
        "kernel.klocal_s": _median(tracer.durations("kernel.klocal")),
        "kernel.combine_rank_s":
            _median(tracer.durations("kernel.combine_rank")),
        "kernel.materialize_s":
            _median(tracer.durations("kernel.materialize")),
        "kernel.truncated_vertices": int(np.count_nonzero(
            np.diff(indptr) > config.truncation_threshold)),
        "kernel.edges_scored": int(edges.neighbor.size),
        "kernel.kept_neighbors": int(kept.ids.size),
        "kernel.candidates": candidates,
        "kernel.useful_ratio": kept_predictions / candidates,
    }


def _gas_layers(tracer, graph, config, last, accounting) -> dict:
    """The serial engine's own accounting plus its partitioning step."""
    from repro.runtime.partition import partition_graph

    machines = last.native.cluster.num_machines
    tracer.rep = None
    with tracer.span("partition.graph"):
        partition_graph(graph, machines, seed=config.seed)
    return {
        "gas.run_s": _median(rep["wall_clock_seconds"] for rep in accounting),
        "partition.graph_s": tracer.durations("partition.graph")[0],
        "partition.replication_factor":
            float(last.native.partition.replication_factor()),
        "gas.supersteps": last.supersteps,
        "gas.simulated_s": last.simulated_seconds,
        "gas.network_bytes": last.network_bytes,
        "gas.peak_memory_bytes": last.peak_memory_bytes,
    }


def _parallel_layers(tracer, graph, config, last, accounting, warmup,
                     predict_s) -> dict:
    """Coordination around the per-partition kernel calls."""
    from repro.runtime.partition import partition_vertices
    from repro.runtime.shm import (AttachmentCache, ShmRegistry,
                                   attach_graph, share_graph)

    tracer.rep = None
    with tracer.span("partition.vertices"):
        partition_vertices(graph, parallelism(), seed=config.seed)
    with ShmRegistry() as registry:
        with tracer.span("shm.share_graph"):
            handle = share_graph(registry, graph)
        cache = AttachmentCache()
        with tracer.span("shm.attach_graph"):
            attached = attach_graph(handle, cache)
        # Views first, then the mapping, then (on exit) the segment itself.
        del attached
        del cache

    def over_reps(value):
        return _median(value(rep) for rep in accounting)

    return {
        "partition.vertices_s": tracer.durations("partition.vertices")[0],
        "shm.share_graph_s": tracer.durations("shm.share_graph")[0],
        "shm.attach_graph_s": tracer.durations("shm.attach_graph")[0],
        # The first warm-up rep spawns the pool; a steady rep does not.
        "parallel.pool_spawn_s": warmup[0] - predict_s,
        "parallel.compute_max_s":
            over_reps(lambda r: max(r["per_partition_seconds"])),
        "parallel.compute_sum_s":
            over_reps(lambda r: sum(r["per_partition_seconds"])),
        "parallel.sync_overhead_s":
            over_reps(lambda r: r["sync_overhead_seconds"]),
        "parallel.routing_s": over_reps(lambda r: r["routing_seconds"]),
        "parallel.imbalance": over_reps(
            lambda r: max(r["per_partition_seconds"])
            / statistics.fmean(r["per_partition_seconds"])),
        "parallel.transport_bytes": int(last.extra["transport_bytes"]),
        "state.plane_peak_bytes": int(last.extra["state_plane_peak_bytes"]),
        "parallel.supersteps": last.supersteps,
        "parallel.worker_restarts": int(last.extra["worker_restarts"]),
    }


# ----------------------------------------------------------------------
# Program side: the serving workload
# ----------------------------------------------------------------------
def _serve_program(spec: dict, tracer) -> dict:
    import numpy as np

    from repro import DiGraph
    from repro.serving.service import PredictorService, ServingConfig

    clients = parallelism()
    config = snaple_config(spec["seed"])
    graph = DiGraph.load_memmap(spec["container"])
    service = PredictorService(
        graph, config,
        serving=ServingConfig(workers=clients, queue_bound=QUEUE_BOUND,
                              compact_every=COMPACT_EVERY))
    with tracer.span("serving.start"):
        service.start()
    try:
        output: dict = {
            "setup_s": time.perf_counter() - spec["spawned_at"],
        }
        if spec["setup_only"]:
            return output
        with np.load(spec["ops"]) as ops:
            feed = _OpFeed(ops["op_is_write"].tolist(),
                           ops["op_vertices"].tolist(),
                           ops["updates"].tolist())
            sample = ops["sample"].tolist()
        loops = [_ClientLoop(service, tracer, feed) for _ in range(clients)]
        began = time.perf_counter()
        deadline = began + spec["seconds"]
        for loop in loops:
            loop.start(deadline)
        for loop in loops:
            loop.join()
        stats = service.stats()
        stages = service.stage_stats()
        answers = [service.top_k(vertex).predicted for vertex in sample]
        if spec.get("corrupt"):
            answers[0] = [*answers[0][:-1], answers[0][-1] + 1]
        stable_from = began + WARMUP_SHARE * spec["seconds"]
        query_ms, update_ms = [], []
        per_second = [0] * int(deadline - stable_from)
        for loop in loops:
            for is_update, finished, latency in loop.completed:
                if stable_from <= finished <= deadline:
                    (update_ms if is_update else query_ms).append(
                        latency * 1e3)
                    second = int(finished - stable_from)
                    if second < len(per_second):
                        per_second[second] += 1
        output.update(
            stable_span_s=deadline - stable_from,
            query_ms=query_ms,
            update_ms=update_ms,
            ops_per_second=per_second,
            attempted=sum(loop.attempted for loop in loops),
            failed=sum(loop.failed for loop in loops),
            rejected=sum(loop.rejected for loop in loops),
            updates_applied=feed.updates_taken,
            sampled_answers=answers,
            peak_rss_mb=process_tree_hwm_mib(os.getpid()),
            compactions=stats.compactions,
            rescored_total=stats.dirty_vertices_rescored,
        )
    finally:
        service.stop()
    if tracer.enabled:
        output["layers"] = _serving_layers(tracer, graph, config,
                                           feed.updates, sample, stats,
                                           stages, output)
        output["replay_digest"] = output["layers"].pop("replay_digest")
    return output


class _OpFeed:
    """The fixed op list both clients draw from, one op at a time.

    Every tenth op (on average) is a single-edge ingest, so the write share
    holds whatever the clients' relative speed, and the *set* of applied
    updates after ``n`` writes is always the first ``n`` of the stream.
    """

    def __init__(self, is_write, vertices, updates) -> None:
        import threading

        self.updates = updates
        self.updates_taken = 0
        self._ops = iter(zip(is_write, vertices))
        self._lock = threading.Lock()

    def take(self):
        """``(number_of_update | None, vertex)`` or ``None`` when drained."""
        with self._lock:
            op = next(self._ops, None)
            if op is None:
                return None
            is_write, vertex = op
            if not is_write:
                return None, vertex
            self.updates_taken += 1
            return self.updates_taken - 1, vertex


class _ClientLoop:
    """One closed-loop client: the next request leaves when the last
    reply has arrived."""

    def __init__(self, service, tracer, feed: _OpFeed) -> None:
        import threading

        self._service = service
        self._tracer = tracer
        self._feed = feed
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._deadline = 0.0
        self.completed: list[tuple[bool, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0

    def start(self, deadline: float) -> None:
        self._deadline = deadline
        self._thread.start()

    def join(self) -> None:
        self._thread.join()

    def _run(self) -> None:
        from repro.errors import ReproError, ServingError

        service, tracer, feed = self._service, self._tracer, self._feed
        while time.perf_counter() < self._deadline:
            op = feed.take()
            if op is None:
                break
            update, vertex = op
            tracer.rep = self.attempted
            self.attempted += 1
            begin = time.perf_counter()
            try:
                if update is not None:
                    edge = tuple(feed.updates[update])
                    with tracer.span("service.ingest"):
                        result = service.ingest([edge])
                    if result.added != [edge]:
                        self.failed += 1
                        continue
                else:
                    with tracer.span("service.top_k"):
                        service.top_k(vertex)
            except ReproError as error:
                self.failed += 1
                self.rejected += isinstance(error, ServingError)
                continue
            end = time.perf_counter()
            self.completed.append((update is not None, end, end - begin))


def _serving_layers(tracer, graph, config, updates, sample, stats, stages,
                    output) -> dict:
    """Service counters, plus the same update stream replayed on a
    stand-alone index and delta: no service, no threads, no lock."""
    from repro.serving.delta import GraphDelta
    from repro.serving.index import IncrementalIndex

    tracer.rep = None
    with tracer.span("index.build"):
        index = IncrementalIndex(graph, config)
    compactions = 0
    replayed = updates[:REPLAY_UPDATES]
    for number, (u, v) in enumerate(replayed):
        tracer.rep = number
        with tracer.span("index.apply_edge"):
            index.apply_edges([(u, v)])
        if index.graph.num_delta_edges >= COMPACT_EVERY:
            with tracer.span("index.compact"):
                index.compact()
            compactions += 1
    read_us = []
    for vertex in sample:
        begin = time.perf_counter()
        index.predictions(vertex)
        index.prediction_scores(vertex)
        read_us.append((time.perf_counter() - begin) * 1e6)

    delta = GraphDelta(graph)
    for number, (u, v) in enumerate(replayed):
        tracer.rep = number
        with tracer.span("delta.add_edge"):
            delta.add_edge(u, v)
        if number % 16 == 0:
            with tracer.span("delta.csr_merge"):
                delta.csr_out_adjacency()
    with tracer.span("delta.compact"):
        delta.compact()

    pair_cache = index.pair_cache
    query_p50_ms = _median(output["query_ms"])
    query, ingest = stages["query"], stages["ingest"]
    return {
        "index.build_s": tracer.durations("index.build")[0],
        "index.apply_edge_s": _median(tracer.durations("index.apply_edge")),
        "index.read_us": _median(read_us),
        "delta.add_edge_s": _median(tracer.durations("delta.add_edge")),
        "delta.csr_merge_s": _median(tracer.durations("delta.csr_merge")),
        "delta.compact_s": tracer.durations("delta.compact")[0],
        "index.rescored_total": index.rescored_total,
        "index.rescored_per_update": index.rescored_total / len(replayed),
        "index.compactions": compactions,
        "paircache.hit_ratio":
            pair_cache.hits / (pair_cache.hits + pair_cache.misses),
        "service.read_overhead_ms": query_p50_ms - _median(read_us) / 1e3,
        "service.cache_hit_ratio":
            stats.cache_hits / (stats.cache_hits + stats.cache_misses),
        "service.queue_wait_ms": query["wait_total"] / query["count"] * 1e3,
        "service.rescore_ms":
            ingest["service_total"] / ingest["count"] * 1e3,
        "service.rejected": output["rejected"],
        "replay_digest": predictions_digest(index.all_predictions()),
        "traced_query_p50_ms": query_p50_ms,
    }
