"""In-process A/B timing of one workload function against a base revision.

    python tools/ab.py BASE FUNCTION [--alternations N] [--seed S] [--small]

``git archive`` exports ``src/regionsim`` at the git revision BASE into a
temporary directory. That tree and this checkout's ``src/regionsim``
(edits included) are imported side by side under the package names
``ab_base`` and ``ab_change``. Each side sets up FUNCTION's inputs with its
own code and runs it once untimed; then FUNCTION runs on each side in turn,
and the side that goes first switches every alternation. Each alternation
prints both times, their ratio (change / base) and the winner; the last
line gives the median ratio, the wins and whether both sides returned the
same output bytes.

Both sides share one interpreter, allocator and BLAS at one thread, so a
difference of a few percent resolves here where separate-process runs on a
busy machine swing by much more. For the same reason a change to state of
the whole process, such as an allocator setting made at import, acts on
both sides at once: only separate-process pairs can measure it.

Functions (seed S is the world and the train seed):

- ``distill``: ``train_generation(2)`` from a generation-1 checkpoint, one
  epoch with the full generation-2 config, as perfbench's
  ``distill-regions`` trains it.
- ``encode``: ``encode_images`` over the train gallery of a world with a 4x
  train gallery, with the seed's untrained model.

``--small`` runs on criterion 8's tiny world instead; the self-test in
``tests/test_ab.py`` uses it.
"""

import argparse
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GALLERY_SCALE = 4


def export(rev: str, dest: Path, repo: Path = ROOT) -> Path:
    """``src/regionsim`` at revision ``rev`` of ``repo``, unpacked under
    ``dest``; returns the ``src`` directory holding it."""
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev, "src/regionsim"],
        capture_output=True,
        check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def load(src: Path, name: str):
    """Import the ``regionsim`` package under ``src`` as package ``name``.
    Its modules import each other relatively, so they resolve inside it."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    init = src / "regionsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("config", "model", "synthcity", "trainer"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def _world(pkg, seed: int, small: bool, gallery_scale: int = 1):
    ws = pkg.synthcity.WorldSpec
    if small:
        spec = ws(seed=seed, length_m=120.0, n_train_queries=8, n_train_gallery=48,
                  n_test_queries=8, n_test_gallery=48)
    else:
        spec = ws(seed=seed)
    spec = dataclasses.replace(spec, n_train_gallery=gallery_scale * spec.n_train_gallery)
    return pkg.synthcity.generate_dataset(spec)


def _config(pkg, seed: int, small: bool):
    extra = dict(k_positives=5, eval_out_dim=16, center_init_images=8) if small else {}
    return pkg.config.RunConfig(seed=seed, epochs=1, workers=1, **extra)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def distill(pkg, seed: int, small: bool):
    ds, cfg = _world(pkg, seed, small), _config(pkg, seed, small)
    gen1 = pkg.trainer.train_generation(1, None, ds, cfg).checkpoint

    def run() -> str:
        res = pkg.trainer.train_generation(2, gen1, ds, cfg)
        return _digest(a for _, a in res.checkpoint.tensors) + res.label_digest

    return run


def encode(pkg, seed: int, small: bool):
    ds, cfg = _world(pkg, seed, small, GALLERY_SCALE), _config(pkg, seed, small)
    images = ds.split("train-gallery")
    model = pkg.model.init_model(cfg.seed, [img.pixels for img in images[: cfg.center_init_images]])

    def run() -> str:
        return _digest([pkg.trainer.encode_images(model, images, 1)[1]])

    return run


FUNCTIONS = {"distill": distill, "encode": encode}


def alternate(runs: dict, alternations: int) -> tuple[list[float], bool]:
    """Time ``runs["base"]`` and ``runs["change"]`` in turn; print and
    return each alternation's ratio, and whether every output matched."""
    outputs = {side: run() for side, run in runs.items()}  # untimed warm-up
    identical = outputs["base"] == outputs["change"]
    ratios = []
    for i in range(alternations):
        times = {}
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            gc.collect()
            start = time.perf_counter()
            out = runs[side]()
            times[side] = time.perf_counter() - start
            identical &= out == outputs[side]
        ratio = times["change"] / times["base"]
        ratios.append(ratio)
        winner = "change" if ratio < 1.0 else "base"
        print(f"{i + 1:3d}  base {times['base']:.4f} s  change {times['change']:.4f} s  "
              f"ratio {ratio:.3f}  {winner}", flush=True)
    return ratios, identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare this checkout against")
    ap.add_argument("function", choices=sorted(FUNCTIONS))
    ap.add_argument("--alternations", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--small", action="store_true", help="criterion 8's tiny world")
    ap.add_argument("--repo", type=Path, default=ROOT, help="git repository holding BASE")
    args = ap.parse_args(argv)
    if args.alternations < 1:
        ap.error("--alternations must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        try:
            base_src = export(args.base, Path(tmp), args.repo)
        except subprocess.CalledProcessError as exc:
            print(f"ab: cannot export {args.base}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        sides = {"base": load(base_src, "ab_base"), "change": load(ROOT / "src", "ab_change")}
        set_up = FUNCTIONS[args.function]
        runs = {side: set_up(pkg, args.seed, args.small) for side, pkg in sides.items()}
        ratios, identical = alternate(runs, args.alternations)
    wins = sum(r < 1.0 for r in ratios)
    print(f"{args.function} seed {args.seed}: median ratio {statistics.median(ratios):.3f}, "
          f"change won {wins}/{len(ratios)}, outputs {'identical' if identical else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    # Before either tree imports numpy: one BLAS thread, as in perfbench.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
