"""Output pins: the dam-break sweep script must reproduce these files byte for byte.

Any change to the numerics shows up here as a digest mismatch; a refactor
that claims to keep the numbers must leave this file untouched.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each snapshot CSV written by scripts/run_dam_break.py with its
# defaults (256 cells, t_end 0.1, snapshots every 0.01), keyed by run directory.
SNAPSHOT_SHA256 = {
    "dam_break_ell10": (
        "2f97ff969e14d1750f110335e77d0e8538c660278f177d7f2f2b6ae65b66ad56",
        "a291b826e4d218a582caa2cee2d14782ac0292f266727cfd072e80c8608c5da5",
        "3b4ffd6364d40d0222c51a8a8036c83eb8fb74c79a52f6b99ae3ccdac93aced4",
        "1c2ca43e91f1ddbfa7574db9b0e260facb1dc4480e130e83f3a005e967ba4ca1",
        "1cea135ff98838707320d94d0fed30048a761371f64b102675f64cac3f21ca16",
        "10352681c5f85c8ab360cccd84a82e905b46679bc0a89f0377646521335ae3cd",
        "8ac481ea641e200c46ea3d5c8cd58463e487d177ee6be4009270b18d577211c5",
        "78ef63e8eddc54e44cc575439983fdf3c72b9b3272405789e5948dd3b1593479",
        "43f761887ce1a97abca9dc979b1ca0fce0ecf0cfccd3e3c8e967c8c6c041e96c",
        "b0dc6e7dfd0ac5e7777c21d0f7451ffad74f5c84d8f68f8df79ca04ba91daca1",
        "2ccf48fc0aede4dacc2a34434353813ddd18f7ec23f8e6091ec44900d81a010c",
    ),
    "dam_break_ell100": (
        "2f97ff969e14d1750f110335e77d0e8538c660278f177d7f2f2b6ae65b66ad56",
        "1b707f73899c4f28cad43e595d5830551993fb88c4f8945ea800a40d9d8e1a12",
        "389538a8eea655b05853f0338c1c88a4dda487bc8f469c1098f574960a14df44",
        "6b0614b4040adec4b9ce0819480976f2504ef6cbbabbbfaeb96409ef0b9528b7",
        "68b1c97785a24df7a8de583099e66461a3573e43623dccf09a9f2eedba85ca0b",
        "bb89a3fab39801c17fafb50a4a4e302f7b6951e985099d1e7103554fd42cb173",
        "d6de36debbfe92ecadb6d6b315745f03c79a0b8e2f01c2f7333efcaec82ae5c8",
        "e1f16458f8920c11b59b8f2d1e944d5f7e1e56b2106b9bdf15d9a7e525e29eb5",
        "868567243658e0b5c61c69fa8ac0a2d9dcc18f8cb0effbbdf2dadfa73a506eea",
        "6829d8830abb90de4e7013b91d9e903c03ed2294a830ebbd7d74460f03f95a05",
        "92caf5d0e3023069095940ca18100606048885cebc18104b58c7907ce64831a3",
    ),
    "dam_break_ell1000": (
        "2f97ff969e14d1750f110335e77d0e8538c660278f177d7f2f2b6ae65b66ad56",
        "c3a0526d110a25c8471e13769c5f9455b4f9d892981eae9e66d955074af5be9e",
        "4aac709c49eb7955f078d4bc039be18804a388d81cd1161fe08590d1050e597b",
        "e5f5ced7eba2f4d41a1a88a958acc8351fe20e085b6475d84ce1647a6cfb6081",
        "aa6fc58bd87c1ea8b658cbd6fb6458b8b8accd2f2d22506ae2a0dfebd73b6358",
        "ffb4c295c7d1e0a1710c6ab9ff56fd3cee7f825ebf892fe427756ebaff796ca2",
        "3d07a6a6ca6cdbcec86ea41fc6093e819ba6da02d86e0a7a33392950943a4165",
        "472ca86cac3e0d94ef6b83eeac60b005442a5592638e8671ad8c11ebcfc0c086",
        "da38cad70ac2c96bc5764db950fb55c8689ce006446b006d36522661fc31e030",
        "0de4c29cec530da53ed1f7adfac0141e3dffe5945499baf73a42319915659cae",
        "86cc80f0c395c5257049ccc2879230f208c95ce827a09d5d50cd64c4f3078c25",
    ),
}


# SHA-256 of the (final.svg, diagnostics.csv) pair of the same runs.
SUMMARY_SHA256 = {
    "dam_break_ell10": (
        "9ec5ad7c01113e95bd9c4642a90476ef580abae174a6fef5782902bc7e285ccc",
        "317d170d166c0831d0e036b75a293f94e3a2f7a172f0dae46aa36ff102b08d5f",
    ),
    "dam_break_ell100": (
        "d7eaf50a74e5ac8311d7c502e444c9b7d732fde5f73bc9c3d73b84e93bf76da3",
        "e3205fd828e90ba264343caec3460aeb1af12010bddc215d196582af46371345",
    ),
    "dam_break_ell1000": (
        "6b0e9b6527d1e7ff81782fbbf60bba7d9783f1d530218e9094ecb2291d2b15f6",
        "e480d55c88c25d71ee1d6a4d7e83cb67e0a256fea0ce12435250f704d207d5e4",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_dam_break.py"), "--out", str(out)],
        check=True, env=env, capture_output=True,
    )
    return out


def test_dam_break_sweep_snapshots_pinned(sweep_out):
    got = {
        run_dir: tuple(_sha256(f) for f in sorted((sweep_out / run_dir).glob("snapshot_*.csv")))
        for run_dir in SNAPSHOT_SHA256
    }
    assert got == SNAPSHOT_SHA256


def test_dam_break_sweep_summaries_pinned(sweep_out):
    got = {
        run_dir: tuple(_sha256(sweep_out / run_dir / f) for f in ("final.svg", "diagnostics.csv"))
        for run_dir in SUMMARY_SHA256
    }
    assert got == SUMMARY_SHA256
