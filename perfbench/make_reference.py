"""Regenerate the stored fitted config and the default-seed references.

    python3 perfbench/make_reference.py [--refit]

Run from the repository root with src/ on PYTHONPATH. --refit first
re-fits perfbench/fitted/fitted.cfg: 3 fit steps from the default config
(no random init) on the default boxes HR 64^2 scene, about 90 s on a
2-core machine. Then, for every workload and profile, one op per distinct
input is run at the default seed, its seed-independent checks must pass,
and its outputs are written to perfbench/reference/.
"""

from __future__ import annotations

import argparse

import numpy as np

import workloads as wl
from depthsr import configio, fusion, scenes, trainer


def refit() -> None:
    scene = scenes.render_scene(scenes.SceneSpec(width=64, height=64, scale=4, noise_sigma=0.0))
    result = trainer.fit(scene, trainer.TrainConfig(steps=3, init_scale=0.0), fusion.PipelineConfig())
    configio.dump_config(result.config, wl.FITTED_CONFIG)


def write_reference(name: str, profile: str) -> None:
    workload = wl.make_workload(name, wl.DEFAULT_SEED, profile)
    try:
        outputs = {}
        for i in range(workload.inputs):
            key, out = workload.op(i)
            problems = workload.problems(key, out, None)
            if problems:
                raise SystemExit(f"{name} {profile}: {problems}")
            outputs[key] = out
        wl.REFERENCE_DIR.mkdir(exist_ok=True)
        np.savez_compressed(wl.reference_path(name, profile), **workload.reference_arrays(outputs))
    finally:
        workload.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refit", action="store_true", help="re-fit the stored config first")
    args = parser.parse_args()
    if args.refit:
        refit()
    for profile in wl.PROFILES:
        for name in wl.WORKLOADS:
            write_reference(name, profile)
            print(f"wrote {wl.reference_path(name, profile)}")


if __name__ == "__main__":
    main()
