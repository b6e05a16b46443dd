"""The CLI's outputs, byte for byte, against the digests in golden_digests.json."""

import pytest

import golden_outputs


def test_golden_outputs_match_their_digests(tmp_path):
    info = golden_outputs.platform_info()
    reason = golden_outputs.unpinned_reason(info)
    if reason is not None:
        pytest.skip(f"golden outputs need the pinned CPU path: {reason}")
    want = golden_outputs.load()
    got = golden_outputs.compute_digests(str(tmp_path))
    changed = [
        f"{name}: {want['outputs'].get(name)} -> {got.get(name)}"
        for name in golden_outputs.compare(want["outputs"], got)[0]
    ]
    assert not changed, (
        "golden outputs changed:\n  " + "\n  ".join(changed)
        + f"\nthis run: {golden_outputs.describe(info)}"
        + f"\ndigests written under: {want['written_under']}"
        + "\nA deliberate change rewrites them: PYTHONPATH=src python tests/golden_outputs.py"
    )
