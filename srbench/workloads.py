"""The benchmark workloads.

Each workload drives ``repro`` only through its public entry points
(``repro.api.Engine``, ``repro.gateway.Gateway`` / ``GatewayClient``,
``Engine.stream()``) and is a closed loop: a caller sends its next item
only after the previous one returned, so a slow program receives less
load instead of building a queue.

``infer_96``
    One caller, 96x96 images through ``Engine.infer`` on the compiled
    ``srresnet/scales/x2`` artifact, untiled, one thread.  The paper's
    deployment path: packed binary convs plus the FP head/tail.
``infer_96_fp32``
    The same loop on the float32 twin built from the same model seed.
    The packed engine does no work here, so a packed-kernel change
    should leave it unchanged while an FP-conv change moves both.
    Runs by name; not in ``BENCHMARK.json``'s list, for run time.
``gateway_mix``
    Two callers over HTTP to a 2-worker gateway (default serving knobs,
    float32, one thread per worker) serving ``srresnet/scales/x2`` and
    ``edsr/e2fif/x2`` with 16x16 and 32x32 inputs; a stated share of
    inputs repeats so the result cache engages.  Model time is small,
    so the front door, the worker hop and serving bookkeeping dominate.
``stream_clip``
    One frame in flight through ``Engine.stream()`` with 16-pixel
    tiles, best-effort: fresh 16-frame 96x96 ``synthetic_clip``
    segments (60% static, 1-pixel motion, a new seed per segment, each
    in its own stream session, so no frame is ever replayed within a
    session; the warm-up phase's segments are not measured).  A phase
    ends with its last segment, so it holds whole segments only.
    Exercises delta planning, tile reuse and serving micro-batching.

Model weights come from a fixed seed (the program under test is the
same on every run); the run's ``--seed`` only makes the inputs.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.api import Engine, EngineConfig
from repro.gateway import Gateway, GatewayClient, GatewayConfig
from repro.serve import ServerConfig
from repro.stream import dirty_fraction, synthetic_clip

from spans import Tracer

#: Weights seed, fixed: every run benchmarks the same models.
MODEL_SEED = 0
DTYPE = "float32"
PACKED = ("srresnet", "scales", 2)
FRAME = 96

#: Outputs kept per run for the bit-for-bit parity check.
PARITY_SAMPLES = 24


def _export(arch: str, scheme: str, scale: int, directory: Path) -> Path:
    """Build a model from the fixed seed and write its packed artifact."""
    engine = Engine.from_spec(arch, scheme=scheme, scale=scale,
                              config=EngineConfig(dtype=DTYPE,
                                                  seed=MODEL_SEED))
    try:
        return engine.export(directory / f"{arch}_{scheme}_x{scale}.npz")
    finally:
        engine.close()


def _packed_config(**kwargs) -> EngineConfig:
    return EngineConfig(dtype=DTYPE, n_threads=1, **kwargs)


@dataclass
class Sample:
    """One served item kept for the parity check."""

    key: object
    image: np.ndarray
    output: np.ndarray


@dataclass
class Outcome:
    """What the callers recorded during one or more phases.

    ``items`` holds the latency (s) of every attempted item; a failed
    or refused item has infinite latency, so it misses every latency
    limit.  ``seeds`` lists the stream segments started.
    """

    items: List[float] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    tiles_total: int = 0
    tiles_reused: int = 0
    seeds: List[int] = field(default_factory=list)

    def record(self, started: float, ok: bool) -> None:
        self.items.append(time.perf_counter() - started if ok else math.inf)

    def merge(self, other: "Outcome") -> None:
        self.items += other.items
        self.samples += other.samples[:PARITY_SAMPLES - len(self.samples)]
        self.tiles_total += other.tiles_total
        self.tiles_reused += other.tiles_reused
        self.seeds += other.seeds

    @property
    def latencies(self) -> List[float]:
        """Latencies of the delivered items."""
        return [lat for lat in self.items if lat != math.inf]

    @property
    def failed(self) -> int:
        return sum(lat == math.inf for lat in self.items)


class Workload:
    """Closed-loop workload; subclasses fill in the item and checks."""

    name = ""
    callers = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.phase = 0

    # -- lifecycle (subclasses) ----------------------------------------

    def setup(self, directory: Path) -> None:
        """Build artifacts from scratch, start serving, serve one item."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def caller(self, index: int) -> Callable[[Outcome], bool]:
        """A function serving one item per call into an Outcome.

        It returns True while its sequence of items (a stream segment)
        must go on, which keeps the phase running past its time.
        """
        raise NotImplementedError

    def references(self, samples: List[Sample]) -> int:
        """Recompute each sample one-shot; return the mismatch count."""
        raise NotImplementedError

    def trace_begin(self) -> None:
        """Read counters the program keeps, before the traced run."""

    def trace_targets(self, tracer: Tracer) -> None:
        """Wrap this workload's layer boundaries in ``tracer``."""

    def per_layer(self, tracer: Tracer, traced: Outcome,
                  plain: Outcome) -> Dict:
        """Per-layer metrics: spans come from the ``traced`` slices,
        counters the program keeps cover both ``traced`` and ``plain``."""
        return {}

    def end_phase(self) -> None:
        """Release per-phase state once every caller has stopped."""

    # -- helpers ---------------------------------------------------------

    def rng(self, *stream: int) -> np.random.Generator:
        """Input generator for one caller in one phase."""
        return np.random.default_rng([self.seed, self.phase, *stream])

    @staticmethod
    def keep(outcome: Outcome, rng: np.random.Generator, key, image,
             output) -> None:
        """Keep a seeded sample of outputs: the first item, then about
        one in eight."""
        if len(outcome.samples) < PARITY_SAMPLES and (
                not outcome.samples or rng.random() < 0.125):
            outcome.samples.append(Sample(key, np.array(image, copy=True),
                                          np.array(output, copy=True)))


def run_phase(workload: Workload, seconds: float) -> Outcome:
    """Drive every caller in a closed loop for ``seconds`` wall time,
    and on until each caller's item sequence is complete."""
    workload.phase += 1
    outcomes = [Outcome() for _ in range(workload.callers)]
    deadline = time.perf_counter() + seconds
    errors: List[BaseException] = []

    def loop(index: int) -> None:
        step = workload.caller(index)
        try:
            going_on = False
            while going_on or time.perf_counter() < deadline:
                going_on = step(outcomes[index])
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    if workload.callers == 1:
        # Inline, so every phase runs its BLAS calls on the one thread
        # the set-up used (a fresh thread can take a fresh BLAS buffer,
        # which makes peak RSS differ from run to run).
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(i,),
                                    name=f"caller-{i}")
                   for i in range(workload.callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    workload.end_phase()
    if errors:
        raise errors[0]
    merged = Outcome()
    for outcome in outcomes:
        merged.merge(outcome)
    return merged


# ---------------------------------------------------------------------------
# Model-level tracing shared by every workload that runs a forward here.
# ---------------------------------------------------------------------------


def trace_model_layers(tracer: Tracer) -> None:
    from repro import models, nn
    from repro.binarize import channel, spatial
    from repro.deploy import engine as deploy_engine
    tracer.patch(deploy_engine.PackedBinaryConv2d, "forward", "deploy.bconv")
    tracer.patch(deploy_engine, "packed_conv2d_bits", "deploy.kernel")
    # Private on purpose: threshold+pack has no public entry point yet.
    tracer.patch(deploy_engine, "_threshold_bits", "deploy.pack")
    tracer.patch(nn.Conv2d, "forward", "nn.conv")
    tracer.patch(nn.PixelShuffle, "forward", "nn.pixel_shuffle")
    tracer.patch(spatial.SpatialRescale2d, "forward", "binarize.rescale")
    tracer.patch(channel.ChannelRescale, "forward", "binarize.rescale")
    tracer.patch(models.SRResNet, "forward", "models.forward")
    tracer.patch(models.EDSR, "forward", "models.forward")


def model_layer_metrics(tracer: Tracer, items: int) -> Dict:
    def self_ms(name):
        return tracer.per_item_ms(name, items)

    def inclusive_ms(name):
        return tracer.per_item_ms(name, items, inclusive=True)

    return {
        "deploy.bconv_ms": self_ms("deploy.bconv"),
        "deploy.kernel_ms": inclusive_ms("deploy.kernel"),
        "deploy.pack_ms": inclusive_ms("deploy.pack"),
        "deploy.bconv_calls": tracer.per_item_count("deploy.bconv", items),
        "nn.conv_ms": self_ms("nn.conv"),
        "nn.pixel_shuffle_ms": self_ms("nn.pixel_shuffle"),
        "nn.other_ms": self_ms("models.forward"),
        "binarize.rescale_ms": inclusive_ms("binarize.rescale"),
        "models.forward_ms": inclusive_ms("models.forward"),
    }


# ---------------------------------------------------------------------------
# infer_96 / infer_96_fp32
# ---------------------------------------------------------------------------


class Infer96(Workload):
    """One caller, untiled 96x96 ``Engine.infer`` on the packed artifact."""

    name = "infer_96"

    def setup(self, directory: Path) -> None:
        self.artifact = _export(*PACKED, directory)
        self._start()

    def _start(self) -> None:
        self.engine = self._open()
        self.engine.infer(self._image(np.random.default_rng(0))).unwrap()

    def _open(self) -> Engine:
        return Engine.from_artifact(self.artifact, _packed_config())

    @staticmethod
    def _image(rng: np.random.Generator) -> np.ndarray:
        return rng.random((FRAME, FRAME, 3), dtype=np.float32)

    def teardown(self) -> None:
        self.engine.close()

    def caller(self, index: int):
        rng = self.rng(index)
        engine = self.engine

        def step(outcome: Outcome) -> bool:
            image = self._image(rng)
            t0 = time.perf_counter()
            result = engine.infer(image)
            outcome.record(t0, result.ok)
            if result.ok:
                self.keep(outcome, rng, None, image, result.image)
            return False

        return step

    def references(self, samples: List[Sample]) -> int:
        engine = self._open()
        try:
            return sum(not _identical(engine.infer(s.image).unwrap(), s.output)
                       for s in samples)
        finally:
            engine.close()

    def trace_targets(self, tracer: Tracer) -> None:
        trace_model_layers(tracer)
        tracer.patch(Engine, "infer", "api.infer")

    def per_layer(self, tracer: Tracer, traced: Outcome,
                  plain: Outcome) -> Dict:
        items = len(traced.latencies)
        metrics = model_layer_metrics(tracer, items)
        metrics["api.overhead_ms"] = (
            tracer.per_item_ms("api.infer", items, inclusive=True)
            - metrics["models.forward_ms"])
        return metrics


class Infer96Fp32(Infer96):
    """The float32 twin of ``infer_96``, built from the same seed."""

    name = "infer_96_fp32"

    def setup(self, directory: Path) -> None:
        self._start()

    def _open(self) -> Engine:
        return Engine.from_spec(PACKED[0], scheme="fp", scale=PACKED[2],
                                config=_packed_config(seed=MODEL_SEED))


# ---------------------------------------------------------------------------
# gateway_mix
# ---------------------------------------------------------------------------

GATEWAY_MODELS = (("srresnet", "scales", 2), ("edsr", "e2fif", 2))
GATEWAY_SIZES = (16, 32)
#: Share of requests that resend one of the caller's recent inputs.
REPEAT_SHARE = 0.25
RECENT = 32


def _route(key: Tuple[str, str, int]) -> str:
    return f"{key[0]}/{key[1]}/x{key[2]}"


class GatewayMix(Workload):
    """Two closed-loop HTTP callers against the default 2-worker gateway."""

    name = "gateway_mix"
    callers = 2

    def setup(self, directory: Path) -> None:
        zoo = directory / "zoo"
        zoo.mkdir()
        self.artifacts = {key: _export(*key, zoo) for key in GATEWAY_MODELS}
        self.gateway = Gateway(zoo, GatewayConfig(
            n_workers=2, server=ServerConfig(n_threads=1, dtype=DTYPE)))
        client = GatewayClient(self.gateway.address, client_id="setup")
        image = np.zeros((GATEWAY_SIZES[0],) * 2 + (3,), np.float32)
        client.infer(image, _route(GATEWAY_MODELS[0])).unwrap()
        # Per caller, kept across phases, so the short slices of a
        # traced run resend as often as one long untraced phase.
        self.recent: List[List[Tuple[Tuple, np.ndarray]]] = [
            [] for _ in range(self.callers)]

    def teardown(self) -> None:
        self.gateway.close()

    def caller(self, index: int):
        rng = self.rng(index)
        client = GatewayClient(self.gateway.address,
                               client_id=f"caller-{index}")
        recent = self.recent[index]

        def step(outcome: Outcome) -> bool:
            if recent and rng.random() < REPEAT_SHARE:
                key, image = recent[rng.integers(len(recent))]
            else:
                key = GATEWAY_MODELS[rng.integers(len(GATEWAY_MODELS))]
                size = GATEWAY_SIZES[rng.integers(len(GATEWAY_SIZES))]
                image = rng.random((size, size, 3), dtype=np.float32)
                recent.append((key, image))
                del recent[:-RECENT]
            t0 = time.perf_counter()
            result = client.infer(image, _route(key))
            outcome.record(t0, result.ok)
            if result.ok:
                self.keep(outcome, rng, key, image, result.output)
            return False

        return step

    def references(self, samples: List[Sample]) -> int:
        mismatches = 0
        for key, path in self.artifacts.items():
            engine = Engine.from_artifact(path, EngineConfig(dtype=DTYPE))
            try:
                mismatches += sum(
                    not _identical(engine.infer(s.image).unwrap(), s.output)
                    for s in samples if s.key == key)
            finally:
                engine.close()
        return mismatches

    # -- tracing ---------------------------------------------------------

    def trace_begin(self) -> None:
        self._scrape_before = self._scrape()

    def trace_targets(self, tracer: Tracer) -> None:
        from repro.gateway import gateway as gateway_module
        from repro.gateway import wire
        tracer.patch(gateway_module.Gateway, "proxy_infer", "gateway.proxy")
        for fn in ("dumps", "loads", "encode_array", "decode_array"):
            tracer.patch(wire, fn, "gateway.wire")
        front_port = self.gateway.address[1]

        def count_worker_connects(connect):
            def traced(conn):
                if conn.port != front_port:
                    tracer.mark("gateway.worker_connects")
                return connect(conn)
            return traced

        tracer.patch_raw(http.client.HTTPConnection, "connect",
                         count_worker_connects)

    def _get(self, path: str) -> bytes:
        host, port = self.gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def _scrape(self) -> Dict[str, float]:
        from repro.gateway import wire
        totals = scrape_serving(self._get("/metrics").decode("utf-8"))
        for stats in wire.loads(self._get("/stats"))["workers"].values():
            counters = stats.get("counters", {})
            totals["batches"] += counters.get("batches", 0)
            totals["batch_images"] += counters.get("batch_images", 0)
        return totals

    def per_layer(self, tracer: Tracer, traced: Outcome,
                  plain: Outcome) -> Dict:
        after = self._scrape()
        delta = {k: after[k] - self._scrape_before.get(k, 0.0) for k in after}
        metrics = serving_metrics(delta, len(traced.items) + len(plain.items))
        items = len(traced.items)
        metrics.update({
            "gateway.proxy_ms": tracer.per_item_ms("gateway.proxy", items,
                                                   inclusive=True),
            "gateway.wire_ms": tracer.per_item_ms("gateway.wire", items,
                                                  inclusive=True),
            "gateway.worker_connects": tracer.per_item_count(
                "gateway.worker_connects", items),
        })
        return metrics


def scrape_serving(text: str) -> Dict[str, float]:
    """Sum the serving families of a ``/metrics`` exposition over labels."""
    totals = {name: 0.0 for name in (
        "request_sum", "request_count", "cache_hit", "cache_miss",
        "serve_shed", "gateway_shed", "batches", "batch_images")}
    wanted = {
        "repro_serve_request_latency_seconds_sum": "request_sum",
        "repro_serve_request_latency_seconds_count": "request_count",
        "repro_serve_shed_total": "serve_shed",
        "repro_gateway_shed_total": "gateway_shed",
    }
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        if name in wanted:
            totals[wanted[name]] += float(value)
        elif name == "repro_serve_cache_total":
            outcome = "cache_hit" if 'outcome="hit"' in series \
                else "cache_miss"
            totals[outcome] += float(value)
    return totals


def serving_metrics(delta: Dict[str, float], items: int) -> Dict:
    lookups = delta["cache_hit"] + delta["cache_miss"]
    return {
        "serve.request_ms": 1e3 * delta["request_sum"]
        / max(delta["request_count"], 1.0),
        "serve.cache_hit_ratio": delta["cache_hit"] / max(lookups, 1.0),
        "serve.cache_lookups": lookups / max(items, 1),
        "serve.batch_size_mean": delta["batch_images"]
        / max(delta["batches"], 1.0),
        "serve.shed": delta["serve_shed"],
        "gateway.shed": delta["gateway_shed"],
    }


# ---------------------------------------------------------------------------
# stream_clip
# ---------------------------------------------------------------------------

TILE = 16
#: Frame latency depends on the frame's place in the segment (how many
#: tiles the moving sprite dirties).  Measured per place in 24-frame
#: segments: frame 0 ~70 ms (all tiles), frames 1-3 and 16-23 ~30 ms,
#: frames 4-15 ~45-55 ms, so the median frame sat between the two groups
#: and jumped from run to run.  16-frame segments have 3 fast frames and
#: 12 slow ones, so the median is a slow-group frame.
SEGMENT_FRAMES = 16
STATIC_FRACTION = 0.6
STEP = 1


class StreamClip(Workload):
    """One frame in flight through ``Engine.stream()``, fresh segments."""

    name = "stream_clip"

    def setup(self, directory: Path) -> None:
        self.artifact = _export(*PACKED, directory)
        self.engine = Engine.from_artifact(self.artifact, self._config())
        self.serve = self.engine.serve()
        first = synthetic_clip(1, FRAME, FRAME, seed=0)[0]
        with self.engine.stream(session=self.serve) as stream:
            stream.submit_frame(first).result(timeout=60.0).unwrap()
        self.stream = None

    @staticmethod
    def _config() -> EngineConfig:
        return _packed_config(tile=TILE, tile_overlap=0)

    def teardown(self) -> None:
        self.end_phase()
        self.serve.close()
        self.engine.close()

    def caller(self, index: int):
        rng = self.rng(index)
        frames: List[np.ndarray] = []

        def step(outcome: Outcome) -> bool:
            if not frames:
                self.end_phase()
                seed = int(rng.integers(2 ** 31))
                outcome.seeds.append(seed)
                frames.extend(synthetic_clip(
                    SEGMENT_FRAMES, FRAME, FRAME,
                    static_fraction=STATIC_FRACTION, seed=seed, step=STEP))
                self.stream = self.engine.stream(session=self.serve)
            frame = frames.pop(0)
            t0 = time.perf_counter()
            result = self.stream.submit_frame(frame).result(timeout=60.0)
            outcome.record(t0, result.ok)
            if result.ok:
                outcome.tiles_total += result.tiles_total
                outcome.tiles_reused += result.tiles_reused
                self.keep(outcome, rng, None, frame, result.image)
            return bool(frames)

        return step

    def end_phase(self) -> None:
        if self.stream is not None:
            self.stream.close()
            self.stream = None

    def references(self, samples: List[Sample]) -> int:
        engine = Engine.from_artifact(self.artifact, self._config())
        try:
            return sum(not _identical(engine.infer(s.image).unwrap(), s.output)
                       for s in samples)
        finally:
            engine.close()

    def trace_targets(self, tracer: Tracer) -> None:
        from repro.serve import server
        from repro.stream import session
        trace_model_layers(tracer)
        tracer.patch(session, "plan_frame_delta", "stream.plan")
        tracer.patch(server.ModelServer, "submit", "serve.submit")
        tracer.patch(server.ServeFuture, "result", "stream.tile_wait")

        def count_kicks(poll):
            def traced(self_, now=None, force=False):
                if force:
                    tracer.mark("serve.kicks")
                return poll(self_, now, force)
            return traced

        tracer.patch_raw(server.ModelServer, "poll", count_kicks)

    def per_layer(self, tracer: Tracer, traced: Outcome,
                  plain: Outcome) -> Dict:
        items = len(traced.latencies)
        metrics = model_layer_metrics(tracer, items)
        planned = max(traced.tiles_total, 1)
        metrics.update({
            "stream.plan_ms": tracer.per_item_ms("stream.plan", items,
                                                 inclusive=True),
            "stream.reuse_ratio": traced.tiles_reused / planned,
            "stream.tiles_planned": traced.tiles_total / max(items, 1),
            "stream.dirty_tiles": (traced.tiles_total - traced.tiles_reused)
            / max(items, 1),
            "stream.true_dirty_fraction": _true_dirty_fraction(
                traced.seeds),
            "serve.submit_ms": tracer.per_item_ms("serve.submit", items,
                                                  inclusive=True),
            "serve.kicks": tracer.per_item_count("serve.kicks", items),
            "stream.tile_wait_ms": tracer.per_item_ms("stream.tile_wait",
                                                      items, inclusive=True),
        })
        return metrics


def _true_dirty_fraction(seeds: List[int]) -> float:
    """Frame-to-frame dirty tile fraction of the given segments."""
    fractions = []
    for seed in seeds:
        clip = synthetic_clip(SEGMENT_FRAMES, FRAME, FRAME,
                              static_fraction=STATIC_FRACTION,
                              seed=seed, step=STEP)
        fractions += [dirty_fraction(a, b, TILE, overlap=0)
                      for a, b in zip(clip, clip[1:])]
    return float(np.mean(fractions)) if fractions else 0.0


def _identical(reference: np.ndarray, output: np.ndarray) -> bool:
    return (reference.dtype == output.dtype
            and reference.shape == output.shape
            and np.array_equal(reference, output))


WORKLOADS = {cls.name: cls for cls in (Infer96, Infer96Fp32, GatewayMix,
                                       StreamClip)}
