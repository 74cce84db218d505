"""The benchmark's workloads: inputs made from the seed, requests, and checks.

Every workload is a closed loop with one client: stexp is a batch engine and
each caller waits for its result. A workload sets up (input generation plus
any training and indexing the requests need), then serves requests until
the run's time is up. All calls go to public stexp functions that the
planned retrieval and config refactors keep; the per-query retrieval helpers
and slide encoders they replace are never called.

Each call into a layer is wrapped in ``timed``, which records its wall time
and, in a traced run, a span named ``<layer>.<function>``.
"""

from __future__ import annotations

import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stexp import contrastive, data, encoders, evaluation, inference

import oracle

# The end-to-end acceptance margin over the mean-expression baseline
# (tests/conftest.py: 0.25 x the ridge-oracle PCC of 0.909, rounded).
ACCEPTANCE_MARGIN = 0.23
# Floor on the domain ARI of a fold (PCA + k-means on the predictions against
# the planted domains). Over 63 folds of the original engine (every fold of
# seeds 1-10, the first fold of seeds 100-123) it ranged from 0.461 (seed 7,
# slide_001, a weak fold with PCC 0.667) to 1.0, median 1.0. Predictions with
# no domain signal score about 0, so a fold below 0.3 has lost the signal.
DOMAIN_ARI_FLOOR = 0.3
PCA_COMPONENTS = 20
N_DOMAINS = 4
REFERENCE_JITTER = 0.2  # log-normal per-gene jitter of resampled reference spots


@dataclass(frozen=True)
class Size:
    """Problem sizes. ``full`` is the acceptance config; ``tiny`` exists for the self-test."""

    train_slides: int
    spots: int
    genes: int
    hvg: int
    patch: tuple[int, int, int]
    conv: tuple[int, ...]
    d_embed: int
    heads: int
    batch: int
    epochs: int  # a LOOCV fold's training
    setup_epochs: int  # the brief fit behind the retrieval workloads
    k: int
    ref_slides: int  # reference slides of ref_spots rows each
    ref_spots: int
    query_holdout_slides: int  # held-out slides, each one predict_slide request

    def encoder_config(self) -> encoders.EncoderConfig:
        return encoders.EncoderConfig(
            hvg_num=self.hvg, d_embed=self.d_embed, n_heads=self.heads, conv_channels=self.conv,
            proj_hidden=self.d_embed, patch_shape=self.patch,
        )

    def train_config(self, seed: int, epochs: int) -> contrastive.TrainConfig:
        return contrastive.TrainConfig(
            batch_size=self.batch, epochs=epochs, learning_rate=2e-3, temperature=0.05, seed=seed
        )

    def gen_config(self, n_slides: int) -> data.GenConfig:
        return data.GenConfig(
            n_slides=n_slides, spots_per_slide=self.spots, gene_num=self.genes,
            n_domains=N_DOMAINS, signal=1.0, patch_shape=self.patch,
        )


SIZES = {
    "full": Size(
        train_slides=4, spots=128, genes=96, hvg=64, patch=(3, 32, 32), conv=(16, 32, 64),
        d_embed=256, heads=4, batch=64, epochs=40, setup_epochs=3, k=50,
        ref_slides=25, ref_spots=4096, query_holdout_slides=4,
    ),
    "tiny": Size(
        train_slides=4, spots=16, genes=24, hvg=8, patch=(3, 8, 8), conv=(4,),
        d_embed=16, heads=2, batch=8, epochs=2, setup_epochs=1, k=5,
        ref_slides=4, ref_spots=64, query_holdout_slides=2,
    ),
}


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, passed: bool, what: str) -> None:
        self.record_many(1, 0 if passed else 1, what)

    def record_many(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failures.extend([what] * failed)

    @property
    def failed(self) -> int:
        return len(self.failures)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two float32 arrays, without copying them."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def steps_per_epoch(dataset: data.ProcessedDataset, batch: int) -> int:
    """fit's batches per epoch: full batches of each training slide."""
    return sum(s.spot_num // batch for s in dataset.train_slides())


def sequential_batches(n: int, batch: int) -> list[slice]:
    return [slice(i, min(i + batch, n)) for i in range(0, n, batch)]


def embed_queries(patches: np.ndarray, checkpoint: contrastive.Checkpoint) -> np.ndarray:
    """Query embeddings batched the way predict_slide batches them."""
    cfg = checkpoint.encoder_config
    batch = checkpoint.train_config.batch_size
    return np.concatenate(
        [encoders.embed_patches(patches[b], checkpoint.params, cfg) for b in sequential_batches(len(patches), batch)]
    )


def reference_slides(source: list[data.Slide], size: Size, rng: np.random.Generator) -> list[data.Slide]:
    """Raw reference spots resampled from generated spots.

    Each reference spot takes a random generated spot's counts as Poisson
    rates under log-normal per-gene jitter, keeping its domain program and
    coordinates. Reference spots need no pixels, so a one-wide zero feature
    column stands in for the patch.
    """
    counts = np.concatenate([s.expression for s in source]).astype(np.float64)
    coords = np.concatenate([s.coords for s in source])
    slides = []
    for r in range(size.ref_slides):
        pick = rng.integers(0, counts.shape[0], size.ref_spots)
        rates = counts[pick] * np.exp(rng.normal(0.0, REFERENCE_JITTER, size=(size.ref_spots, counts.shape[1])))
        expression = rng.poisson(rates).astype(np.float32)
        empty = np.flatnonzero(expression.sum(axis=1) == 0)
        expression[empty, np.argmax(rates[empty], axis=1)] = 1.0
        slides.append(data.Slide(
            slide_id=f"ref_{r:03d}", expression=expression, coords=coords[pick], coord_max=source[0].coord_max,
            gene_names=source[0].gene_names, features=np.zeros((size.ref_spots, 1), dtype=np.float32),
        ))
    return slides


def staged_fold(slides, test_id, size: Size, seed: int, timed):
    """evaluation.run_fold's stages called one by one, each timed on its own."""
    train_ids = [s.slide_id for s in slides if s.slide_id != test_id]
    with timed("data.preprocess"):
        dataset = data.preprocess(slides, hvg_num=size.hvg, train_ids=train_ids)
    with timed("contrastive.fit"):
        checkpoint = contrastive.fit(dataset, size.train_config(seed, size.epochs), size.encoder_config())
    with timed("inference.build_index"):
        index = inference.build_index(checkpoint, dataset.train_slides())
    test = dataset.get(test_id)
    with timed("inference.predict_slide"):
        pred = inference.predict_slide(checkpoint, index, test, size.k)
    with timed("evaluation.compute_metrics"):
        record = evaluation.compute_metrics(pred, test.expression, slide_id=test_id, gene_names=dataset.gene_names)
    return record, checkpoint, dataset, index, pred


@dataclass
class ProbeInputs:
    """What the traced run's layer probe needs from a workload."""

    checkpoint: contrastive.Checkpoint
    train_slide: data.Slide  # processed; its first batch is the probed training step
    index: inference.RetrievalIndex
    query_slide: data.Slide  # processed, not in the index
    raw_slide: data.Slide
    manifest: dict
    k: int


class Workload:
    name = ""
    item_unit = ""

    def __init__(self, size: Size, seed: int, workdir: Path, tracer):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.checks = Checks()
        self.fit_steps = 0  # optimizer steps in one fit
        self.queries = 0  # query spots predicted by requests

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        with self.tracer.span(name):
            yield
        self.times[name].append(time.perf_counter() - start)

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        return path

    def generate(self, n_slides: int) -> list[data.Slide]:
        root = self.fresh_dir("data")
        with self.timed("data.synth_generate"):
            data.synth_generate(self.size.gen_config(n_slides), self.seed, root)
        with self.timed("data.load_dataset"):
            return data.load_dataset(root)

    def train_briefly(self, slides):
        ids = [s.slide_id for s in slides]
        with self.timed("data.preprocess"):
            dataset = data.preprocess(slides, hvg_num=self.size.hvg, train_ids=ids[: self.size.train_slides])
        cfg = self.size.train_config(self.seed, self.size.setup_epochs)
        with self.timed("contrastive.fit"):
            checkpoint = contrastive.fit(dataset, cfg, self.size.encoder_config())
        self.fit_steps = cfg.epochs * steps_per_epoch(dataset, cfg.batch_size)
        return dataset, checkpoint

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work after set-up, so the first timed request starts with warm allocator and caches."""

    def request(self, i: int) -> int:
        """Serve request i; returns the number of work items it completed."""
        raise NotImplementedError

    def check(self) -> None:
        """Correctness checks on the last request's outputs, run outside its timing."""
        raise NotImplementedError

    def named_metrics(self, latencies: list[float], items: int) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def probe_inputs(self) -> ProbeInputs:
        raise NotImplementedError


class FoldTrain(Workload):
    """One or more LOOCV folds of the acceptance config, staged as run_fold stages them."""

    name = "fold_train"
    item_unit = "training spots"

    def setup(self) -> None:
        self.slides = self.generate(self.size.train_slides)
        self.fold: dict = {}  # the latest fold only, so memory does not grow with the folds run
        self.first_fold_quality: tuple[float, float] | None = None  # (pcc_acg, domain ARI)

    def warm_up(self) -> None:
        ids = [s.slide_id for s in self.slides]
        dataset = data.preprocess(self.slides, hvg_num=self.size.hvg, train_ids=ids[1:])
        contrastive.fit(dataset, self.size.train_config(self.seed, self.size.setup_epochs), self.size.encoder_config())

    def request(self, i: int) -> int:
        fold = (self.seed + i) % len(self.slides)
        test_id = self.slides[fold].slide_id
        seed = evaluation.fold_seed(self.seed, fold)
        record, checkpoint, dataset, index, pred = staged_fold(self.slides, test_id, self.size, seed, self.timed)
        self.fold = {"record": record, "checkpoint": checkpoint, "dataset": dataset, "index": index,
                     "pred": pred, "test_id": test_id}
        self.fit_steps = self.size.epochs * steps_per_epoch(dataset, self.size.batch)
        self.queries += pred.shape[0]
        return self.fit_steps * self.size.batch

    def check(self) -> None:
        fold = self.fold
        dataset, test = fold["dataset"], fold["dataset"].get(fold["test_id"])
        train_mean = np.concatenate([s.expression for s in dataset.train_slides()]).mean(axis=0)
        baseline = evaluation.compute_metrics(np.tile(train_mean, (test.spot_num, 1)), test.expression).pcc_acg
        pcc = fold["record"].pcc_acg
        self.checks.record(pcc >= baseline + ACCEPTANCE_MARGIN,
                           f"{test.slide_id}: pcc_acg {pcc:.4f} < mean baseline {baseline:.4f} + {ACCEPTANCE_MARGIN}")
        clusters = int(np.unique(test.labels).size)
        with self.timed("evaluation.detect_domains"):
            labels = evaluation.detect_domains(fold["pred"], clusters, PCA_COMPONENTS, self.seed)
        ari = evaluation.ari(labels, test.labels)
        self.checks.record(ari >= DOMAIN_ARI_FLOOR, f"{test.slide_id}: domain ARI {ari:.4f} < {DOMAIN_ARI_FLOOR}")
        if self.first_fold_quality is None:
            self.first_fold_quality = (pcc, ari)

    def named_metrics(self, latencies, items):
        pcc, ari = self.first_fold_quality  # the first fold's: it repeats exactly at a fixed seed
        return {
            "loocv_fold_s": (float(np.median(latencies)), "s"),
            "train_spots_per_s": (items / sum(self.times["contrastive.fit"]), "1/s"),
            "pcc_acg": (pcc, "r"),
            "domain_ari": (ari, "ARI"),
        }

    def probe_inputs(self) -> ProbeInputs:
        last = self.fold
        raw = next(s for s in self.slides if s.slide_id == last["test_id"])
        return ProbeInputs(last["checkpoint"], last["dataset"].train_slides()[0], last["index"],
                           last["dataset"].get(last["test_id"]), raw, last["dataset"].manifest, self.size.k)


class Query100k(Workload):
    """predict_slide on whole held-out slides against a saved and reloaded ~100k-row index."""

    name = "query_100k"
    item_unit = "queries"

    def setup(self) -> None:
        self.state = None  # release the previous repetition's index before building the next
        s = self.size
        slides = self.generate(s.train_slides + s.query_holdout_slides)
        dataset, checkpoint = self.train_briefly(slides)
        refs = reference_slides(slides[: s.train_slides], s, np.random.default_rng(self.seed))
        processed = []
        for ref in refs:
            with self.timed("data.transform_slide"):
                processed.append(data.transform_slide(ref, dataset.manifest))
        with self.timed("inference.build_index"):
            built = inference.build_index(checkpoint, processed)
        index_dir = self.fresh_dir("index")
        with self.timed("inference.save_index"):
            inference.save_index(built, index_dir)
        with self.timed("inference.load_index"):
            index = inference.load_index(index_dir)
        self.checks.record(
            same_bits(index.embeddings, built.embeddings) and same_bits(index.expressions, built.expressions)
            and index.provenance == built.provenance,
            "save_index/load_index round trip is not bit-identical")
        del built
        pool = dataset.test_slides()
        self.state = {"checkpoint": checkpoint, "index": index, "pool": pool, "dataset": dataset, "raw_ref": refs[0]}
        self.query_embeddings: dict[int, np.ndarray] = {}
        self.verdicts: dict[tuple[int, bytes], int] = {}
        self.oracle = oracle.OracleReport()

    def warm_up(self) -> None:
        st = self.state
        inference.predict_slide(st["checkpoint"], st["index"], st["pool"][-1], self.size.k)

    def request(self, i: int) -> int:
        st = self.state
        slot = i % len(st["pool"])
        query = st["pool"][slot]
        with self.timed("inference.predict_slide"):
            pred = inference.predict_slide(st["checkpoint"], st["index"], query, self.size.k)
        self.last = (slot, pred)
        self.queries += query.spot_num
        return query.spot_num

    def check(self) -> None:
        """Oracle-check every predicted row; a byte-identical repeat reuses its verdict."""
        st = self.state
        slot, pred = self.last
        query = st["pool"][slot]
        if slot not in self.query_embeddings:
            self.query_embeddings[slot] = embed_queries(query.patches, st["checkpoint"])
        key = (slot, pred.tobytes())
        if key not in self.verdicts:
            failing = oracle.check_predictions(pred, self.query_embeddings[slot], st["index"].embeddings,
                                               st["index"].expressions, self.size.k, self.oracle)
            self.verdicts[key] = len(failing)
        self.checks.record_many(query.spot_num, self.verdicts[key],
                                f"{query.slide_id}: a prediction differs from the float64 oracle")

    def named_metrics(self, latencies, items):
        return {
            "query_per_s": (items / sum(latencies), "1/s"),
            "predict_ms_p50": (float(np.median(latencies)) * 1e3, "ms"),
            "oracle_max_abs_err": (self.oracle.max_abs_err, "abs"),
            "oracle_near_ties": (float(self.oracle.near_ties), "count"),
        }

    def probe_inputs(self) -> ProbeInputs:
        st = self.state
        return ProbeInputs(st["checkpoint"], st["dataset"].train_slides()[0], st["index"], st["pool"][0],
                           st["raw_ref"], st["dataset"].manifest, self.size.k)


WORKLOADS = {w.name: w for w in (FoldTrain, Query100k)}
