"""Result bytes: the one-walk writer against the reference text, and every
subcommand's output pinned by hash.

The writer tests draw results of every kind the commands print and compare
the text with ``ref_result_text``, ``ref_csv_text`` and ``ref_obj_text`` of
``conftest``, byte for byte.  For the pinned outputs, each invocation runs
in-process with ``--out`` into a scratch directory (the mesh path is
relative, so that the manifest that names it does not vary); the manifest's
wall time is blanked and the sha256 of each file compared with the hash the
same invocation gave before the result writer was rewritten.  A change to
any printed digit, separator or indent fails here.

The benchmark's invocations (``benchmark/workloads.py``) are pinned too:
each workload runs in-process at seeds 0 and 1, and its exit codes and
files, with the wall time and the scratch directory blanked, are hashed
into one sha256 per (workload, seed).
"""

import contextlib
import hashlib
import importlib
import io
import math
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ref_csv_text, ref_obj_text, ref_result_text
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from thermalent import cli
from thermalent.cli import dispatch
from thermalent.core import CHUNK, PopVector
from thermalent.geometry import HullMesh, VolumeEstimate

_WALL_TIME = re.compile(rb'"wall_time_s": [-+0-9.eE]+')

STATE = "0.4,0.25,0.33,0.02"

#: label -> (argv, {output file: sha256 of its bytes, wall time blanked})
PINNED = {
    "classify": (
        ("classify", "--state", STATE, "--beta", "1"),
        {"out": "c8842a4607241682d1fd3e3e598fde07c06883cccde4bfc087f5e06073da6697"},
    ),
    "classify-top-inf": (
        ("classify", "--state", "0,0,0,1", "--beta", "inf"),
        {"out": "7292a17a21d4b7565791ca9b32aa8370d0edd0ab62af478c7ff00750809197a4"},
    ),
    "cone-json": (
        ("cone", "--state", STATE, "--beta", "1"),
        {"out": "fb191e4d71844aeafba325006b3f831aecb447054724a17b317c943f87ca81ad"},
    ),
    "cone-csv": (
        ("cone", "--state", STATE, "--beta", "1", "--format", "csv"),
        {"out": "024050ffced28574f8ef6ad4c390a9d84bcf5eb8f359c3bdb85cd016fdaa0ccb"},
    ),
    "cone-qutrit": (
        ("cone", "--state", "0.7,0.2,0.1", "--energies", "0,1,2", "--beta", "inf"),
        {"out": "9b1a58425283d5c9ab4c1d4dcf8ccddcd7dcd07228032a6866a9de820813b46d"},
    ),
    "curve-csv": (
        ("curve", "--state", "0.7,0.2,0.1", "--energies", "0,1,2", "--beta", "0.5", "--points",
         "20"),
        {"out": "bec8d7e87aa9dd57a9f55827ff64f2c21166e990f227d532d6643e1a661346b9"},
    ),
    "curve-json": (
        ("curve", "--state", STATE, "--beta", "1", "--points", "20", "--format", "json"),
        {"out": "dc7c6cf1fa7143094c6879650615138ffba839f459b023829145e20e44990e02"},
    ),
    "boundary-csv-mesh": (
        ("boundary", "--beta", "0.5", "--grid", "6", "--mesh-out", "mesh.obj"),
        {"mesh.obj": "00027f96c3f677a29e86e101f1b0fc250f38b21a4274c24070fe1e7e368f1494",
         "out": "03e64f244c43e199c7f3c8691635fd0c692e00fbeddae5b2348aa9b090d2c254"},
    ),
    "boundary-json": (
        ("boundary", "--beta", "inf", "--grid", "6", "--format", "json"),
        {"out": "bec1e74c8599e6709a48cbdd58d6333e393a4ceacecb86af33c647a2de0904b9"},
    ),
    "critical-thermal": (
        ("critical-temp", "--beta-s", "5"),
        {"out": "d65eeebb1e345bcb57cf62b9b98c828dc83bec6d7579de480774e1dc426c52c9"},
    ),
    "critical-state": (
        ("critical-temp", "--state", "0.12,0.38,0.12,0.38", "--range", "0:2", "--scan", "50"),
        {"out": "a9471cd0e87fbcb750832d01e1c3d855c31d4265898fdf3470ad9e0b965a326b"},
    ),
    "volume": (
        ("volume", "--set", "TNE", "--beta", "1", "--samples", "20000", "--seed", "3",
         "--threads", "1"),
        {"out": "991c236789bc9955104f42c6cb46bd712a32013cb199ec0706e09640a5dff439"},
    ),
    "jc-csv": (
        ("jc", "--initial", "11", "--betaE-range", "0.5:2:3"),
        {"out": "ac6fa7cf0f8b20fd6859c067bf0831465689b39bc51aa758df6212ef029e5c5e"},
    ),
    "jc-json": (
        ("jc", "--initial", "00", "--betaE", "1", "--format", "json"),
        {"out": "a5131de49d7e1a4f8e8a59ed5a1b37ccb79446ccf8ad3daf4fce574bab37ce5c"},
    ),
    "mtp": (
        ("mtp", "--state", "0,0,0,1", "--beta", "2", "--budget", "200"),
        {"out": "f666e21ac1aac042b6c4b3dc8aee3604bdd8c5ee3e7b2ec3500ffc3389bbd035"},
    ),
    "catalysis-demo": (
        ("catalysis-demo",),
        {"out": "df0d4bee9469b6f2e432515fbd818f1d83c8af1ef326e61fe8850a8534729869"},
    ),
}


def blanked_sha256(data: bytes) -> str:
    return hashlib.sha256(_WALL_TIME.sub(b'"wall_time_s": 0', data)).hexdigest()


def run_pinned(argv, tmp_path, monkeypatch) -> dict:
    """Run one invocation; the sha256 of each file it wrote, by name."""
    monkeypatch.chdir(tmp_path)
    assert dispatch(list(argv) + ["--out", "out"]) == 0
    return {p.name: blanked_sha256(p.read_bytes()) for p in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("label", PINNED)
def test_result_bytes(label, tmp_path, monkeypatch):
    argv, hashes = PINNED[label]
    assert run_pinned(argv, tmp_path, monkeypatch) == hashes


#: (workload, seed) -> sha256 of the pass's exit codes and files, in order
WORKLOAD_PINNED = {
    ("mc-finite", 0): "f5c31c179c35c4fd8040ef5581faab528f5f695fdd7eccee60683a4e58365cb2",
    ("mc-finite", 1): "d46e4f41bd7dda91d9726c70082c5aa21caf5014cc848af135e550fe2e640d72",
    ("mc-zero-temp", 0): "e8871f05abdc57cd15b16985a0d0f48524a99cc5ecb092bc2c13f865eb670f81",
    ("mc-zero-temp", 1): "84ada4473c66763dd543e97e01cd0c84b81c076eaa0fe8c5f64f581324298cb8",
    ("cli-queries", 0): "a0e7d4c1a49e2fcc553e3e535467feabbd6f9c150223111cc25e00b187a70281",
    ("cli-queries", 1): "61818f7322c6b7c5b7026a4bed7843676149e5f21f11328b286512b247ce4ed4",
}


@pytest.mark.parametrize("name, seed", WORKLOAD_PINNED)
def test_workload_bytes(name, seed, tmp_path, monkeypatch):
    """A full-size pass of one workload; on a mismatch the message lists the
    hash of each invocation, to compare with a run of the parent commit."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    workload = importlib.import_module("workloads").Workload(name, seed, "full", tmp_path)
    each = []
    for op in workload.ops:
        h = hashlib.sha256(str(dispatch(list(op.argv))).encode())
        for path in (op.out, op.mesh):
            if path is not None and path.exists():
                h.update(_WALL_TIME.sub(b'"wall_time_s": 0', path.read_bytes())
                         .replace(bytes(tmp_path), b"<scratch>"))
        each.append(f"{op.label} {h.hexdigest()}")
    total = hashlib.sha256("\n".join(each).encode()).hexdigest()
    assert total == WORKLOAD_PINNED[name, seed], "\n".join(each)


# ---------------------------------------------------------------------------
# the writer against the reference text
# ---------------------------------------------------------------------------

#: floats whose printing has a special case: signed zeros, non-finite values,
#: subnormals, the ends of the fixed-point range of ``repr``, and values a
#: half unit from the 12th significant digit, which round by the bits
EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308,
               1e-5, 1e-4, 1e16, 1e15, 0.1 + 0.2, 999999999999.5, 9999999999995.0,
               0.1234567890125, -1.0000000000005, 2.5e-300, 1.7976931348623157e308)


@st.composite
def rounding_edges(draw):
    """A 12-digit mantissa with a trailing 5 (or 4 or 6) at a random exponent."""
    digits = draw(st.integers(10 ** 11, 10 ** 12 - 1))
    last = draw(st.sampled_from("456"))
    sign, exp = draw(st.sampled_from("+-")), draw(st.integers(-320, 290))
    return float(f"{sign}{digits}{last}e{exp}")


floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS), rounding_edges())
texts = st.one_of(st.text(), st.sampled_from(('say "hi"', "back\\slash", "\u00e9\u03b2\u221e",
                                              "tab\tnew\nline", "\U0001f600", "")))
shapes = st.one_of(st.sampled_from([(0,), (0, 3)]), hnp.array_shapes(min_dims=1, max_dims=2,
                                                                       max_side=6))
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(np.int64, shapes),
    hnp.arrays(np.bool_, shapes),
)
populations = st.lists(st.floats(0, 1), min_size=1, max_size=5).filter(
    lambda v: sum(v) > 0).map(lambda v: PopVector(np.array(v) / sum(v)))
scalars = st.one_of(
    floats, st.integers(), st.booleans(), st.none(), texts,
    floats.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.fractions().map(Fraction), populations, arrays,
    st.builds(VolumeEstimate, floats, floats, st.integers(0, 10 ** 9), st.integers(0, 99)),
)
results = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(floats, max_size=6),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=12,
)


class TestWriter:
    @given(results)
    @example({"a": [1.0, -0.0, math.nan], "b": {"c": (math.inf, None, True)}, "\u00e9": "x"})
    @example(np.zeros((0, 4)))
    @example([VolumeEstimate(0.1234567890123456, 0.5, 10, 3), PopVector([0.5, 0.5]),
              Fraction(3, 4)])
    def test_indented_json(self, obj):
        assert cli._json(obj) == ref_result_text(obj)

    @given(st.dictionaries(texts, results, max_size=5))
    def test_compact_json(self, obj):
        assert cli._json(obj, None) == ref_result_text(obj, None)

    @given(st.integers(0, 4), st.integers(0, 5), st.data())
    def test_csv(self, n_int, n_float, data):
        """Integer columns then float columns, as the cone table has."""
        manifest = data.draw(st.dictionaries(texts, results, max_size=3))
        n_rows = data.draw(st.integers(0, 6))
        rows = [data.draw(st.lists(st.integers(), min_size=n_int, max_size=n_int))
                + data.draw(st.lists(floats, min_size=n_float, max_size=n_float))
                for _ in range(n_rows)]
        header = [f"c{i}" for i in range(n_int + n_float)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(SimpleNamespace(format="csv", out=None), manifest, None, (header, rows))
        assert out.getvalue() == ref_csv_text(manifest, header, rows)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3)), elements=floats),
           hnp.arrays(np.intp, st.tuples(st.integers(0, 8), st.just(3)),
                      elements=st.integers(0, 10 ** 6)))
    @example(np.array([[-0.0, -1.5, 0.25], [1e-17, -2.0 / 3.0, 0.0]]), np.array([[0, 1, 0]]))
    def test_obj(self, points3d, faces):
        mesh = HullMesh(vertices=points3d, points3d=points3d, faces=faces, volume=0.0,
                        volume_fraction=0.0)
        assert mesh.to_obj() == ref_obj_text(points3d, faces)

    @given(st.lists(floats, min_size=cli.BULK, max_size=3 * cli.BULK))
    def test_bulk_floats(self, values):
        """Runs of at least BULK floats: a list, and a 1-D and a four-column
        array, whose row blocks the vectorized test checks, in a dict."""
        points = np.array(values[:len(values) // 4 * 4]).reshape(-1, 4)
        for obj in (values, np.array(values), {"n": len(points), "points": points}):
            assert cli._json(obj) == ref_result_text(obj)
            assert cli._json(obj, None) == ref_result_text(obj, None)

    @given(hnp.arrays(st.sampled_from([np.int64, np.bool_]),
                      st.tuples(st.integers(cli.BULK, 2 * cli.BULK), st.integers(1, 3))))
    def test_bulk_arrays_of_other_kinds(self, arr):
        assert cli._json({"a": arr}) == ref_result_text({"a": arr})

    def test_row_blocks(self):
        """An array, tables and a mesh of more than CHUNK rows, which cross a
        row-block boundary: every value of the first block reads back from
        its token, and the second block holds every edge float."""
        points = np.random.default_rng(0).dirichlet(np.ones(4), CHUNK + 5)
        points[CHUNK:] = np.resize(EDGE_FLOATS, (5, 4))
        result = {"n_points": len(points), "points": points}
        assert cli._json(result) == ref_result_text(result)
        mesh = HullMesh(vertices=points, points3d=points[:, :3], volume=0.0, volume_fraction=0.0,
                        faces=np.arange(3 * len(points)).reshape(-1, 3))
        assert mesh.to_obj() == ref_obj_text(mesh.points3d, mesh.faces)
        manifest = {"subcommand": "boundary", "n": 1.5}
        header = ["order", "p1", "p2", "p3", "p4"]
        for rows in (points, [[i, *row] for i, row in enumerate(points.tolist())]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli._emit(SimpleNamespace(format="csv", out=None), manifest, None,
                          (header[-len(rows[0]):], rows))
            assert out.getvalue() == ref_csv_text(manifest, header[-len(rows[0]):], rows)
