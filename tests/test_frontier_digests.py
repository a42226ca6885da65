"""Report bytes of larger CLI runs, pinned by sha256.

`test_golden_reports.py` pins whole files at small sizes.  The routes
that act only at larger sizes (shell forms past the 2^24-cell limit, run
folds over many distinct magnitudes, t2's kernel columns, the Paley-lemma
sums at n_max 65536, a kernel dump of 2^14 cells, conjugate sweeps of one
and of two 2^18-cell chunks) are pinned here by the
digest of each report.  Each case runs in-process with `--out <name>`
relative to a temporary working directory, so the echoed `out` field is
the same on every machine.  A changed digest is a changed report.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from dyadlab.cli import main

IDENTITIES = [  # verify identities --resolution 8 --depth 5, seeds 0-9
    "d722aaf654b13a5a4de2026ddf158f7fc8c2271922beced1f25a939b291b57ab",
    "b8c069478cfcf05087430c6e53d8d990acf236fcefde60ff740493ce4b8c49e1",
    "a97677a4329ad200eaa9c00203d871f2536d0491d83546dfe55d6e9dd5ea757f",
    "9bee30372168c27439c9f878843ef9d53e440f0de7454790d4757743769ac6cb",
    "ca7650fa19de5cf946e55f33526dd4a3de155aabd0f2d450ceab96aa82843183",
    "c67b968f93df584dcc3034ddc81014c35fd022b70a2771fe89ff8146679b7d39",
    "16e7326b2cad0678f5fcfc86ef3b4ef21b4f5041d0d6c542964b5a8840136fcc",
    "155718289beb3be008cd62303e8a6fb4ef5a178354ed6c5190d375f9b78c19dd",
    "a6e7a0c089e84705986fa1ddb5799efb445eb25599c24d0535e400b5d01511c9",
    "fb553d994c281d629c50f20a3231e4d24f5106d27b5d5fd5d79d2eff798ef55c",
]

CASES = {
    "t1_p1_4_d40": (
        ["counterexample", "t1", "--p", "1/4", "--depth", "40"],
        "913c461cac9e798738bc65ede59574da27726f487f9e87e7f5e3b52f5d682344"),
    "t1_p2_5_d14": (
        ["counterexample", "t1", "--p", "2/5", "--depth", "14"],
        "a1d4d296b980c91d441f2a6bbc7dea944b53a03995fe2088c6e3d726d66b9573"),
    "t1_p0.3_d16": (
        ["counterexample", "t1", "--p", "0.3", "--depth", "16"],
        "cbdbbe60a222c98060ba21768db899b239b2bc5a6734a4736a19a593d232d418"),
    "t2_d20": (
        ["counterexample", "t2", "--depth", "20"],
        "9f6e7b2665a23afb661a3ff0a924f96323d577a737b3fc3ece697b5573ca8587"),
    "t2_d24": (
        ["counterexample", "t2", "--depth", "24"],
        "a77fa60d2b8049e6d15c786b899f69324f37f9ce01f769e63559d9ada07bad70"),
    "converge_t1_d12": (
        ["converge", "--family", "t1", "--depth", "12"],
        "aa15f44d8795be016a99316f4367642241e16a8a6e9ffdb522ca1d6e7ed2b642"),
    "converge_t1_d16": (
        ["converge", "--family", "t1", "--depth", "16"],
        "7c986ef2bee6f8845b9dfc3905d787f62d30a6d33bb2aecb24fbfe1c2f3bf79f"),
    "converge_t1_p0.3_d10": (
        ["converge", "--family", "t1", "--p", "0.3", "--depth", "10"],
        "ba8c223c734bd89fa4f5ab76389a531cc09afbf27721a961ce51daa30794916d"),
    "converge_t2_d12": (
        ["converge", "--family", "t2", "--depth", "12"],
        "65b5855066837cee1108145397f8807938ec6bb6a0f92f3c26cb6ec14d2943e1"),
    "yano_65536": (
        ["verify", "yano", "--n-max", "65536", "--resolution", "16"],
        "e83ef85594e5e55cac89457a290e2fd62571721df122d557cfbf47b6be7bfd5c"),
    "kernel_fejer_n3_r14": (
        ["kernel", "--kind", "fejer", "--n", "3", "--resolution", "14"],
        "804748a71514449d50680dc7450ca7d6c52ee31c5fb0f5b7cd11ee81bf481e66"),
    "lemma2_A10": (
        ["verify", "lemma2", "--A", "10"],
        "790515f2ae102c669a26f5346824fd53724c8a16e63eaf17ed775dc133de8542"),
    # one 2^18-cell chunk of 512 sign points, and two chunks of 5,120 in all
    "identities_d8_seed3": (
        ["verify", "identities", "--depth", "8", "--seed", "3"],
        "5df27989a3c93e6a5579e0502553174dd351fea660689367da65b8350eecf62c"),
    "identities_d9_seed3": (
        ["verify", "identities", "--depth", "9", "--seed", "3"],
        "910034b33ae9a3c541baa82a0973af1c9826bd35a9e484ee35cb091d1ea00bc9"),
    **{f"identities_seed{seed}": (
        ["verify", "identities", "--resolution", "8", "--depth", "5", "--seed", str(seed)], want)
       for seed, want in enumerate(IDENTITIES)},
}


def digest(argv: list[str]) -> str:
    """Run argv in the current directory and return the sha256 of its report bytes."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", "report"]) == 0
    return hashlib.sha256(Path("report").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, want = CASES[name]
    assert digest(argv) == want
