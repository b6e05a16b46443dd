"""Golden outputs: SHA-256 digests of the CLI's outputs on one pinned CPU path.

The outputs are default ``optimize`` at seeds 0 and 1, a seed-0 run state
cut after 20 steps and resumed by ``optimize --resume``, ``meta-train
--iterations 20`` and ``bench --problem zdt1 --budget 60``.  Each runs in
its own Python process under ``PINNED_ENV``, which holds numpy's dispatch
and OpenBLAS's kernels to x86-64-v3 (AVX2 and FMA3, no AVX-512), so that
the digests name one arithmetic rather than one machine's.

``tests/test_golden.py`` compares the digests with ``golden_digests.json``.
A change that alters results on purpose rewrites that file with

    PYTHONPATH=src python tests/golden_outputs.py

which prints the digests that changed and those that stayed against the
file it rewrites; a re-baselining change lists both in CHANGES.md.
``thread_count_outputs`` runs a test's probe on one BLAS thread and on
two, on the pinned path or the default one.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "golden_digests.json")
PINNED_ENV = {
    "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
    "OPENBLAS_CORETYPE": "Haswell",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_FILES = ("run_state.json", "evaluations.jsonl", "front.csv", "hv_curve.csv")
CUT_STEPS = 20

# Printed by a child under PINNED_ENV: the versions and CPU path it runs on.
_PROBE = r"""
import json, platform, ctypes
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
features = umath.__cpu_features__
blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
core = None
try:
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
except OSError:
    paths = set()
for path in sorted(paths):
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        try:
            fn = getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        core = fn().decode()
        break
    if core:
        break
print(json.dumps({
    "machine": platform.machine(),
    "numpy": np.__version__,
    "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    "blas_core": core,
    "baseline": list(umath.__cpu_baseline__),
    "dispatch": [f for f in umath.__cpu_dispatch__ if features.get(f)],
    "avx2_fma3": bool(features.get("AVX2") and features.get("FMA3")),
}))
"""

_CUT = r"""
import sys
from buttonlab import cid_step, initial_state, parse_config, save_artifact
state = initial_state(parse_config(""))
for _ in range(int(sys.argv[2])):
    state = cid_step(state)
save_artifact(sys.argv[1], state)
"""


def _env(pinned: bool = True) -> dict:
    import buttonlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(buttonlab.__file__)))
    env = {**os.environ, **(PINNED_ENV if pinned else {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def _python(args: list[str], env: dict) -> str:
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} exited {done.returncode}: {done.stderr}")
    return done.stdout


def platform_info() -> dict:
    """The versions and CPU path a child process runs on under PINNED_ENV."""
    return json.loads(_python(["-c", _PROBE], _env()))


def thread_count_outputs(code: str, pinned: bool) -> tuple[str, str]:
    """Standard output of Python ``code`` run on one BLAS thread and on two,
    each in its own process, under PINNED_ENV or on the default CPU path."""
    return tuple(
        _python(["-c", code], {**_env(pinned), **dict.fromkeys(THREAD_VARS, threads)}) for threads in ("1", "2")
    )


def unpinned_reason(info: dict) -> str | None:
    """What is missing to run on the pinned path, or None when it is pinned."""
    if info["machine"] not in ("x86_64", "AMD64"):
        return f"not x86-64 (machine is {info['machine']})"
    if not info["avx2_fma3"]:
        return "the CPU lacks AVX2 or FMA3 (x86-64-v3)"
    wide = [f for f in info["dispatch"] if f.startswith("AVX512") or f == "X86_V4"]
    if wide:
        return f"numpy {info['numpy']} still dispatches to {wide} under NPY_DISABLE_CPU_FEATURES"
    if info["blas_core"] is None:
        return f"no OpenBLAS core type could be read (BLAS is {info['blas']})"
    if info["blas_core"] != "Haswell":
        return f"OpenBLAS did not take OPENBLAS_CORETYPE=Haswell (it runs {info['blas_core']})"
    return None


def describe(info: dict) -> str:
    return (
        f"numpy {info['numpy']}, {info['blas']} (core {info['blas_core']}), "
        f"numpy dispatch {info['dispatch']} over baseline {info['baseline']}"
    )


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def compute_digests(workdir: str) -> dict[str, str]:
    """Run every golden output under PINNED_ENV in ``workdir``; name -> SHA-256."""
    env = _env()
    cli = ["-m", "buttonlab.cli"]
    digests = {}

    def run_files(name: str, args: list[str]):
        out = os.path.join(workdir, name)
        _python([*cli, "optimize", "--out-dir", out, *args], env)
        for file in RUN_FILES:
            digests[f"{name}/{file}"] = _sha256(os.path.join(out, file))

    run_files("optimize-seed0", ["--seed", "0"])
    run_files("optimize-seed1", ["--seed", "1"])
    cut = os.path.join(workdir, f"cut-after-{CUT_STEPS}.json")
    _python(["-c", _CUT, cut, str(CUT_STEPS)], env)
    digests[os.path.basename(cut)] = _sha256(cut)
    run_files(f"optimize-seed0-resumed-after-{CUT_STEPS}", ["--resume", cut])

    policy = os.path.join(workdir, "meta-train-20.json")
    _python([*cli, "meta-train", "--iterations", "20", "--out", policy], env)
    digests["meta-train-20.json"] = _sha256(policy)

    line = _python([*cli, "bench", "--problem", "zdt1", "--budget", "60"], env)
    digests["bench-zdt1-60.stdout"] = hashlib.sha256(line.encode()).hexdigest()
    return digests


def load() -> dict:
    with open(DIGESTS) as handle:
        return json.load(handle)


def compare(old: dict[str, str], new: dict[str, str]) -> tuple[list[str], list[str]]:
    """(changed, unchanged) output names; an output in one map only is changed."""
    names = sorted(set(old) | set(new))
    changed = [name for name in names if old.get(name) != new.get(name)]
    return changed, [name for name in names if name not in changed]


def main() -> int:
    info = platform_info()
    reason = unpinned_reason(info)
    if reason is not None:
        print(f"cannot pin the CPU path: {reason}", file=sys.stderr)
        return 1
    old = load()["outputs"] if os.path.exists(DIGESTS) else {}
    with tempfile.TemporaryDirectory() as workdir:
        outputs = compute_digests(workdir)
    changed, unchanged = compare(old, outputs)
    for label, names in (("changed", changed), ("unchanged", unchanged)):
        print(f"{label} ({len(names)}):")
        for name in names:
            print(f"  {name}")
    with open(DIGESTS, "w") as handle:
        json.dump({"written_under": describe(info), "outputs": outputs}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {DIGESTS}: {len(outputs)} digests under {describe(info)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
