"""One job of one workload in a fresh process.

Times the set-up a user pays on every run (importing faceverify and
loading the job's inputs from disk), then the user-facing job, then
reads the process's peak resident memory.  The result goes to a JSON
file; with --spans the job also runs under the tracer and writes its
spans.  Only the standard library is imported before the timed import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def setup_report(inputs: Path, out: Path, seed: int):
    """`faceverify report` from the generated config."""
    from faceverify import cli

    config = str(inputs / "config.ini")

    def job():
        with open(out / "stdout.txt", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            rc = cli.main(["report", "--config", config, "--out-dir", str(out / "report")])
        if rc != 0:
            raise RuntimeError(f"faceverify report exited with {rc}")
        return {}

    return job


def setup_enroll(inputs: Path, out: Path, seed: int, checkpoint: Path | None = None):
    """Align raw faces with their 7-landmark records, then extract
    unit-norm descriptors with the stock net, as `faceverify align`
    followed by `faceverify extract` does."""
    import numpy as np

    from faceverify import align as al
    from faceverify import pnm, storage
    from faceverify.micronet import extract_features

    net = storage.read_checkpoint(checkpoint or inputs.parent / "stock.jvnt")
    records = al.read_landmark_file(inputs / "landmarks.csv")
    raw = [(name, lm, pnm.read_pnm(inputs / "raw" / name)) for name, lm in records]

    def job():
        frame = al.CanonicalFrame()
        aligned = out / "aligned"
        aligned.mkdir(parents=True, exist_ok=True)
        for name, lm, img in raw:
            lm.validate()
            transform = al.estimate_similarity(lm.points, frame.landmarks)
            pnm.write_pnm(aligned / name, al.warp_to_canonical(img, transform, frame))
        media = sorted(name for name, _, _ in raw)
        images = np.stack([pnm.read_pnm(aligned / m)[:, :, None] for m in media])
        feats = extract_features(net, images, batch_size=32)
        storage.write_features(out / "features.jvfe", feats, media)
        return {}

    return job


def setup_train(inputs: Path, out: Path, seed: int):
    """Toy CNN training: float32, width/4, 32x32 inputs, batch 128."""
    import numpy as np

    from faceverify import pnm, storage
    from faceverify.micronet import TrainConfig, build_face_net, train
    from perfbench.inputs import TOY_BATCH, TOY_CLASSES, TOY_INIT_STD, TOY_ITERS, TOY_LEARNING_RATE, TOY_SIZE

    rows = [line.split(",") for line in (inputs / "labels.csv").read_text(encoding="utf-8").split()]
    images = np.stack([pnm.read_pnm(inputs / "images" / m)[:, :, None] for m, _ in rows])
    labels = np.array([int(label) for _, label in rows])
    net = build_face_net(
        num_classes=TOY_CLASSES, in_channels=1, input_size=TOY_SIZE, width_divisor=4, dtype=np.float32
    )
    cfg = TrainConfig(
        batch_size=TOY_BATCH, learning_rate=TOY_LEARNING_RATE, max_iters=TOY_ITERS, seed=seed, init_std=TOY_INIT_STD
    )

    def job():
        result = train(net, images, labels, cfg)
        storage.write_checkpoint(out / "toy.jvnt", net)
        return {"losses": [float(v) for v in result.losses]}

    return job


SETUPS = {
    "verify_d320": setup_report,
    "verify_hard_d32": setup_report,
    "enroll_stock": setup_enroll,
    "train_toy": setup_train,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import faceverify.cli  # noqa: F401  (pulls numpy and every module)

    import_s = time.perf_counter() - t0
    tracer = None
    if args.spans:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    job = SETUPS[args.workload](Path(args.inputs), out, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return 0

    t1 = time.perf_counter()
    extra = job()
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {"import_s": import_s, "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, **extra}
    if tracer is not None:
        tracer.dump(args.spans, import_s=import_s, wall_s=wall_s)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
