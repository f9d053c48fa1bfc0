import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import depthsr

# Prints digests of the streamed matches on LR 64^2, 32^2 and 12^2 scenes and
# of a weighted LR 16^2 pipeline run. At LR 12^2 (hw = 144) the last of three
# 64-row tiles holds 16 rows and is zero-padded.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from depthsr import fusion, matcher, scenes, trainer

streamed = []
for hr in (256, 128, 48):
    # At LR 64^2 each GEMM tile is split across threads.
    scene = scenes.render_scene(scenes.SceneSpec(width=hr, height=hr))
    rgb_maps = fusion.rgb_order_maps(
        fusion.encode_rgb(scene.rgb, 4, 8), fusion.PipelineConfig(orders=("zero",))
    )
    streamed += matcher.match_order(rgb_maps, fusion.encode_depth(scene.d_lr, 8), "zero", 4)
rng = np.random.default_rng(0)
cfg = fusion.PipelineConfig(
    w_fuse=fusion.default_fuse_weights(8) + 0.1 * rng.normal(size=(8, 32)),
    w_head=0.01 * rng.normal(size=(16, 8)),
)
small = scenes.render_scene(scenes.SceneSpec())
pred = fusion.run_pipeline(small.rgb, small.d_lr, cfg)
for arr in (*streamed, pred.depth):
    print(hashlib.sha256(arr.tobytes()).hexdigest())
# The probes run in workers with one BLAS thread; the descent does not.
fitted = trainer.fit(scenes.render_scene(scenes.SceneSpec(width=32, height=32)),
                     trainer.TrainConfig(steps=2), fusion.PipelineConfig(channels=2, moma_iters=2))
history = np.array([[r.l_rec, r.l_grad, r.l_hes, r.l_total] for r in fitted.history])
parts = (history, fitted.config.w_head, fitted.config.w_fuse)
print(hashlib.sha256(b"".join(arr.tobytes() for arr in parts)).hexdigest())
"""


def test_all_names_resolve_unique_and_sorted():
    names = depthsr.__all__
    assert all(hasattr(depthsr, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


# Public names that nothing in src/ uses yet, each with the reason it stays.
_UNUSED_IN_SRC = {
    "grid.pixel_unshuffle": "the space-to-depth inverse of pixel_shuffle (ROADMAP item 3(a))",
}


def test_every_public_definition_is_used_in_src():
    """A public function or class that only tests use belongs in tests/."""
    pkg = Path(depthsr.__file__).parent
    sources = {p.stem: p.read_text() for p in pkg.glob("*.py") if p.name != "__init__.py"}
    unused = []
    for info in pkgutil.iter_modules([str(pkg)]):
        module = importlib.import_module(f"depthsr.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            own = sources[info.name].replace(inspect.getsource(obj), "", 1)
            texts = [own] + [text for stem, text in sources.items() if stem != info.name]
            if not any(re.search(rf"\b{name}\b", text) for text in texts):
                unused.append(f"{info.name}.{name}")
    assert sorted(unused) == sorted(_UNUSED_IN_SRC)


def test_module_references_in_src_resolve():
    """Every `module.name` that src/ writes, in code or in prose, names an
    attribute of that package module. Only the first attribute counts, so
    perfbench metric names such as `matcher.match_order.calls` pass."""
    pkg = Path(depthsr.__file__).parent
    modules = [info.name for info in pkgutil.iter_modules([str(pkg)])]
    reference = re.compile(rf"(?<![\w.])({'|'.join(modules)})\.([A-Za-z_]\w*)")
    found = [
        (path.name, m) for path in sorted(pkg.glob("*.py")) for m in reference.finditer(path.read_text())
    ]
    assert found
    stale = [
        f"{name}: {m.group(0)}"
        for name, m in found
        if not hasattr(importlib.import_module(f"depthsr.{m.group(1)}"), m.group(2))
    ]
    assert stale == []


def test_outputs_do_not_depend_on_thread_count():
    src = str(Path(depthsr.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        digests.append(run.stdout.split())
    assert len(digests[0]) == 8
    assert digests[0] == digests[1]


def test_oracles_share_no_private_code():
    """The oracles are references the fast paths are checked against, so they
    import no private helper from the package."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "depthsr"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_has_a_global_statement():
    """Module state that a function rebinds is per process, so a probe worker
    holding some could make the gradient depend on the worker count."""
    pkg = Path(depthsr.__file__).parent
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(pkg.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []
