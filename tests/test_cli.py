import copy
import hashlib
import json
import math
import random

import pytest

from _regions import assert_canonical
from pfms import (
    PfmsError,
    complement,
    convex_combination,
    cut,
    emit_instance,
    intersection,
    parse_instance,
    union,
)
from pfms.cli import main

CONVEX_DOC = {
    "format_version": "1",
    "domain": [0.0, 1.0, 2.0],
    "depth": 1,
    "elements": [
        [[0.2, 0.1, 0.5]],
        [[0.6, 0.2, 0.1]],
        [[0.3, 0.1, 0.4]],
    ],
}

BIMODAL_DOC = {
    "format_version": "1",
    "domain": [0.0, 1.0, 2.0],
    "depth": 1,
    "elements": [
        [[0.6, 0.1, 0.2]],
        [[0.1, 0.2, 0.1]],
        [[0.5, 0.1, 0.3]],
    ],
}

SHIFTED_DOC = {
    "format_version": "1",
    "domain": [0.0, 1.0, 3.0],
    "depth": 1,
    "elements": [
        [[0.2, 0.1, 0.5]],
        [[0.6, 0.2, 0.1]],
        [[0.3, 0.1, 0.4]],
    ],
}


# level 1 neutral, level 2 positive and level 3 negative channels dip or bump
DIP_DOC = {
    "format_version": "1",
    "domain": [0.0, 0.5, 1.25, 2.0, 3.0, 4.5],
    "depth": 3,
    "elements": [
        [[0.3, 0.1, 0.4], [0.2, 0.1, 0.5], [0.1, 0.2, 0.3]],
        [[0.5, 0.2, 0.2], [0.4, 0.1, 0.3], [0.3, 0.2, 0.2]],
        [[0.7, 0.1, 0.1], [0.1, 0.2, 0.2], [0.1, 0.3, 0.5]],
        [[0.6, 0.2, 0.1], [0.5, 0.1, 0.2], [0.4, 0.1, 0.1]],
        [[0.4, 0.1, 0.3], [0.3, 0.1, 0.4], [0.2, 0.2, 0.3]],
        [[0.2, 0.1, 0.5], [0.1, 0.1, 0.6], [0.1, 0.1, 0.6]],
    ],
}

# A negative bump between a -0.0 flank and a 0.0 flank: Python's max keeps
# the first of tied endpoints, so the witness prints rhs -0.0
SIGNED_ZERO_DOC = {
    "format_version": "1",
    "domain": [-10.0, -1.0, -0.0, 1.0, 10.0],
    "depth": 2,
    "elements": [
        [[0.3, 0.1, -0.0], [0.3, 0.1, 0.2]],
        [[0.3, 0.1, -0.0], [-0.0, 0.1, 0.2]],
        [[0.3, 0.1, 0.5], [-0.0, 0.1, 0.2]],
        [[0.3, 0.1, 0.0], [0.2, 0.1, 0.2]],
        [[0.3, 0.1, 0.0], [0.2, 0.1, 0.2]],
    ],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (
        ("convex", CONVEX_DOC),
        ("bimodal", BIMODAL_DOC),
        ("shifted", SHIFTED_DOC),
        ("dip", DIP_DOC),
        ("signed-zero", SIGNED_ZERO_DOC),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": "1", "domain": [0, 1], "depth": 1}')
    paths["bad"] = str(bad)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    paths["garbled"] = str(garbled)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_instance(self, files, capsys):
        code, out, err = run(capsys, "validate", files["convex"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "valid": True,
            "points": 3,
            "depth": 1,
            "domain": [0.0, 2.0],
        }
        assert err == ""

    def test_invalid_instance_reports_reason(self, files, capsys):
        code, out, _ = run(capsys, "validate", files["bad"])
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert "elements" in doc["error"]

    def test_garbled_json_is_invalid(self, files, capsys):
        code, out, _ = run(capsys, "validate", files["garbled"])
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_missing_file_is_usage_error(self, files, capsys):
        code, out, err = run(capsys, "validate", files["convex"] + ".nope")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


HOSTILE_INPUTS = {
    "huge-integer": json.dumps(
        {**CONVEX_DOC, "domain": [int("9" * 400), 1.0, 2.0]}
    ).encode(),
    "deep-nesting": b"[" * 100_000,
    "not-utf8": b'{"format_version": "1\xff"}',
    # json.loads refuses int literals over CPython's 4,300-digit limit
    "long-integer": json.dumps(CONVEX_DOC).replace(
        '"depth": 1', '"depth": 1' + "0" * 5000
    ).encode(),
}


@pytest.mark.parametrize(
    "name, command, expected",
    [
        ("huge-integer", "validate", 1),
        ("huge-integer", "check-convex", 2),
        ("deep-nesting", "validate", 1),
        ("deep-nesting", "check-convex", 2),
        ("not-utf8", "validate", 2),
        ("not-utf8", "check-convex", 2),
        ("long-integer", "validate", 1),
        ("long-integer", "check-convex", 2),
    ],
)
def test_hostile_input_keeps_exit_code_contract(
    tmp_path, capsys, name, command, expected
):
    path = tmp_path / f"{name}.json"
    path.write_bytes(HOSTILE_INPUTS[name])
    code, out, err = run(capsys, command, str(path))
    assert code == expected
    if expected == 1:
        assert json.loads(out)["valid"] is False
    else:
        assert out == ""
        assert err.startswith("error:")


class TestCheckConvex:
    def test_convex_exact(self, files, capsys):
        code, out, _ = run(capsys, "check-convex", files["convex"])
        assert code == 0
        doc = json.loads(out)
        assert doc["convex"] is True
        assert doc["mode"] == "exact"
        assert doc["levels"] == [True]
        assert doc["witness"] is None

    def test_non_convex_exact_gives_witness(self, files, capsys):
        code, out, _ = run(capsys, "check-convex", files["bimodal"])
        assert code == 1
        doc = json.loads(out)
        assert doc["convex"] is False
        w = doc["witness"]
        assert (w["x"], w["y"], w["lambda"]) == (0.0, 2.0, 0.5)
        assert w["level"] == 1
        assert w["channel"] == "positive"
        assert w["lhs"] == 0.1
        assert w["rhs"] == 0.5

    def test_sampled_mode(self, files, capsys):
        code, out, _ = run(
            capsys,
            "check-convex", files["bimodal"],
            "--mode", "sampled", "--samples", "200", "--seed", "0",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["mode"] == "sampled"
        assert doc["convex"] is False
        assert doc["witness"] is not None

    def test_sampled_mode_on_convex_input(self, files, capsys):
        code, out, _ = run(
            capsys,
            "check-convex", files["convex"],
            "--mode", "sampled", "--samples", "50", "--seed", "7",
        )
        assert code == 0
        assert json.loads(out)["convex"] is True


# sha256 of the sampled check's stdout with default sample counts; the
# README example is convex, so both seeds print the same report
SAMPLED_STDOUT_DIGESTS = {
    ("convex", "1"): "be15213abcab88f4dc4b3aa01085f3d93a4ae6af7b792ab51edfbd05a5f28823",
    ("convex", "2"): "be15213abcab88f4dc4b3aa01085f3d93a4ae6af7b792ab51edfbd05a5f28823",
    ("dip", "1"): "75a12e18f3322a16b7e9f0ea456fc1b6d1b38a41f1875676f4069b11a8a4f6fc",
    ("dip", "2"): "2d857845a8b35407aba4b3d5d6a5228e185e8998cf9c99fb12dd37eee079ea12",
    ("signed-zero", "1"): "649846bb7d03bc8f1336d37ca62813a13d0102b868c5ffca8472bd0f8edf3d90",
    ("signed-zero", "2"): "f5b5500745c7452d7e4647bf2360d91f3d364c6bec56b0e5168f05d877dabf1a",
}


@pytest.mark.parametrize("name, seed", sorted(SAMPLED_STDOUT_DIGESTS))
def test_sampled_stdout_bytes_pinned(files, capsys, name, seed):
    # A change to the sampled check must not move a single stdout byte:
    # the seeded pairs, the witness order and the float bits all show here.
    code, out, _ = run(
        capsys, "check-convex", files[name], "--mode", "sampled", "--seed", seed
    )
    assert code == (0 if name == "convex" else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLED_STDOUT_DIGESTS[name, seed]
    if name == "signed-zero":
        assert '"rhs": -0.0' in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check-convex", "{convex}", "--mode", "sampled", "--samples", "1000001"],
        ["check-convex", "{convex}", "--mode", "sampled", "--lambdas", "10001"],
        ["suite", "--name", "jensen", "--trials", "100001"],
    ],
)
def test_counts_above_their_limits_are_usage_errors(files, capsys, argv):
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be at most" in err


class TestCut:
    def test_single_level(self, files, capsys):
        code, out, _ = run(
            capsys,
            "cut", files["convex"],
            "--r", "0.4", "--s", "0.15", "--t", "0.2", "--level", "1",
        )
        assert code == 0
        doc = json.loads(out)
        (interval,) = doc["intervals"]
        assert interval[0] == pytest.approx(0.75, abs=1e-9)
        assert interval[1] == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_all_levels(self, files, capsys):
        code, out, _ = run(
            capsys, "cut", files["convex"], "--r", "0.0", "--s", "0.0", "--t", "1.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["levels"]["1"] == [[0.0, 2.0]]

    def test_empty_cut(self, files, capsys):
        code, out, _ = run(
            capsys,
            "cut", files["convex"],
            "--r", "0.7", "--s", "0.0", "--t", "1.0", "--level", "1",
        )
        assert code == 0
        assert json.loads(out) == {"intervals": []}

    def test_bad_level_is_data_error(self, files, capsys):
        code, _, err = run(
            capsys,
            "cut", files["convex"],
            "--r", "0.1", "--s", "0.0", "--t", "1.0", "--level", "4",
        )
        assert code == 2
        assert err.startswith("error:")


def _fragmented_doc():
    # 321 nodes with -0.0 at index 160.  Level 1's positive channel zigzags
    # across r = 0.4 and its neutral and negative channels cross s = 0.1 and
    # t = 0.0 elsewhere, so its cut falls into 59 pieces; one of them,
    # (0.0, -0.0), is entered at the -0.0 node by a crossing solved as 0.0
    # and left by an exit solved onto that node
    points = [(i - 160) * 0.5 for i in range(321)]
    points[160] = -0.0
    elements = []
    for i in range(321):
        p = (0.7, 0.2, 0.3, 0.55)[i % 4] + 0.01 * (i % 3)
        n = 0.05 + 0.02 * (i % 5) if i % 6 else 0.02
        g = 0.0 if i % 9 else 0.1
        elements.append([[p, n, g], [0.6 * p, n, g]])
    elements[159][0][2] = 0.1
    elements[160][0] = [0.7, 0.1, -0.0]
    elements[161][0] = [0.6, 0.1, 0.3]
    return {"format_version": "1", "domain": points, "depth": 2, "elements": elements}


# sha256 of `pfms cut` stdout on the fragmented instance, recorded before
# the cut was solved in one pass per level
FRAGMENTED_CUT_DIGESTS = {
    None: "17d3703d80c0cd4dc55cfcafb865f6867d30d33733fdf7379b79a15b0f65fd89",
    "1": "063cc3d2ece32318f4b4140f4fb0ae1fe48c71b3d1b1b677e8046d83992a2dce",
    "2": "900efa8595292718446aa62494502a57060249cb515187108b31b5d76c12f547",
}


@pytest.mark.parametrize("level", [None, "1", "2"])
def test_fragmented_cut_stdout_bytes_pinned(tmp_path, capsys, level):
    path = tmp_path / "fragmented.json"
    path.write_text(json.dumps(_fragmented_doc()))
    argv = ["cut", str(path), "--r", "0.4", "--s", "0.1", "--t", "0.0"]
    code, out, _ = run(capsys, *argv, *(["--level", level] if level else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FRAGMENTED_CUT_DIGESTS[level]
    doc = json.loads(out)
    if level != "2":
        pieces = doc["intervals"] if level else doc["levels"]["1"]
        signs = [(math.copysign(1.0, a), math.copysign(1.0, b)) for a, b in pieces if a == b == 0.0]
        assert len(pieces) == 59 and signs == [(1.0, -1.0)]
    ms = parse_instance(path.read_text())
    for k in (int(level),) if level else range(1, ms.depth + 1):
        assert_canonical(cut(ms, (0.4, 0.1, 0.0), k))


class TestHull:
    def test_bimodal_hull_payload(self, files, capsys):
        code, out, _ = run(capsys, "hull", files["bimodal"])
        assert code == 0
        doc = json.loads(out)
        assert doc["domain"] == [0.0, 1.0, 2.0]
        assert doc["values"][1][0] == [0.5, 0.2, 0.1]
        assert doc["fully_valid"] is True

    def test_hull_of_convex_is_identity(self, files, capsys):
        code, out, _ = run(capsys, "hull", files["convex"])
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == [e for e in CONVEX_DOC["elements"]]
        assert doc["valid"] == [[True], [True], [True]]


class TestOp:
    def test_union_matches_library(self, files, capsys):
        code, out, _ = run(capsys, "op", "union", files["convex"], files["bimodal"])
        assert code == 0
        a = parse_instance(json.dumps(CONVEX_DOC))
        b = parse_instance(json.dumps(BIMODAL_DOC))
        assert out.strip() == emit_instance(union(a, b))
        assert parse_instance(out) == union(a, b)

    def test_intersection_matches_library(self, files, capsys):
        code, out, _ = run(
            capsys, "op", "intersection", files["convex"], files["bimodal"]
        )
        assert code == 0
        a = parse_instance(json.dumps(CONVEX_DOC))
        b = parse_instance(json.dumps(BIMODAL_DOC))
        assert parse_instance(out) == intersection(a, b)

    def test_complement_is_unary(self, files, capsys):
        code, out, _ = run(capsys, "op", "complement", files["convex"])
        assert code == 0
        a = parse_instance(json.dumps(CONVEX_DOC))
        assert parse_instance(out) == complement(a)

    def test_complement_of_a_valid_triple_at_the_sum_bound(self, tmp_path, capsys):
        # (p + n) + g is the cap exactly; after the swap (g + n) + p is not
        doc = {
            "format_version": "1",
            "domain": [0.0],
            "depth": 1,
            "elements": [[[0.9956448355104628, 0.0020480749286869806, 0.0023070905608504333]]],
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", str(path))[0] == 0
        code, out, err = run(capsys, "op", "complement", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["elements"] == [
            [[0.0023070905608504333, 0.0020480749286869806, 0.9956448355104627]]
        ]
        path.write_text(out)
        assert run(capsys, "validate", str(path))[0] == 0

    def test_blend_of_valid_triples_at_the_sum_bound(self, tmp_path, capsys):
        # the blended sum rounds to 1.0000000010000003, 1 ulp past the cap
        paths = []
        for name, triple in (("a", [0.895325524671799, 0.07281089690537494, 0.0318635794228261]),
                             ("b", [0.7520498189338021, 0.05641897257137142, 0.1915312094948266])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(CONVEX_DOC, domain=[0.0], elements=[[triple]])))
            paths.append(str(path))
        code, out, err = run(capsys, "op", "blend", *paths, "--lambda", "0.9424655091787275")
        assert (code, err) == (0, "")
        path = tmp_path / "blend.json"
        path.write_text(out)
        assert run(capsys, "validate", str(path))[0] == 0

    @pytest.mark.parametrize("a, b, lam", [
        # the blended neutral degree rounds past the range bound
        ([[[-1e-09, -1e-09, 1.000000001]]], [[[1.000000001, -1e-09, -1e-09]]], "0.2"),
        # level 2's blended positive degree rounds past the level order
        ([[[0.4, 0.1, 0.1], [0.4 + 1e-9, 0.1, 0.1]]], [[[0.3, 0.2, 0.1], [0.3 + 1e-9, 0.2, 0.1]]],
         "0.5"),
    ])
    def test_blend_of_valid_operands_at_the_range_and_order_bounds(self, tmp_path, capsys, a, b, lam):
        paths = []
        for name, elements in (("a", a), ("b", b)):
            path = tmp_path / f"{name}.json"
            doc = dict(CONVEX_DOC, domain=[0.0], depth=len(elements[0]), elements=elements)
            path.write_text(json.dumps(doc))
            assert run(capsys, "validate", str(path))[0] == 0
            paths.append(str(path))
        code, out, err = run(capsys, "op", "blend", *paths, "--lambda", lam)
        assert (code, err) == (0, "")
        path = tmp_path / "blend.json"
        path.write_text(out)
        assert run(capsys, "validate", str(path))[0] == 0

    def test_complement_rejects_second_operand(self, files, capsys):
        code, _, err = run(
            capsys, "op", "complement", files["convex"], files["bimodal"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_blend(self, files, capsys):
        code, out, _ = run(
            capsys,
            "op", "blend", files["convex"], files["bimodal"], "--lambda", "0.25",
        )
        assert code == 0
        a = parse_instance(json.dumps(CONVEX_DOC))
        b = parse_instance(json.dumps(BIMODAL_DOC))
        assert parse_instance(out) == convex_combination(a, b, 0.25)

    def test_blend_requires_lambda(self, files, capsys):
        code, _, err = run(capsys, "op", "blend", files["convex"], files["bimodal"])
        assert code == 2
        assert err.startswith("error:")

    def test_binary_op_requires_second_operand(self, files, capsys):
        code, _, err = run(capsys, "op", "union", files["convex"])
        assert code == 2
        assert err.startswith("error:")

    def test_mismatched_grids_is_data_error(self, files, capsys):
        code, _, err = run(capsys, "op", "union", files["convex"], files["shifted"])
        assert code == 2
        assert err.startswith("error:")


# Two valid nodes whose blends round 1 ulp past the sum bound at about
# one interior coordinate in eleven.
SUM_EDGE_DOC = dict(CONVEX_DOC, domain=[0, 1], elements=[
    [[0.2981919417804871, 0.673293969443177, 0.02851408977633607]],
    [[0.7854861716415126, 0.14307781977692424, 0.07143600958156326]],
])


@pytest.mark.parametrize("argv", [
    ("check-convex", "--mode", "sampled"),
    ("jensen", "--points", "0.2478845313785698", "--weights", "1"),
])
def test_blends_past_the_sum_bound_are_answered(tmp_path, capsys, argv):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(SUM_EDGE_DOC))
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "") and json.loads(out)


class TestJensen:
    def test_holds_on_convex_instance(self, files, capsys):
        code, out, _ = run(
            capsys,
            "jensen", files["convex"],
            "--points", "0.0,2.0", "--weights", "0.5,0.5", "--level", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["point"] == 1.0
        assert doc["slacks"][1] == pytest.approx(0.1, abs=1e-12)

    def test_fails_on_bimodal_instance(self, files, capsys):
        code, out, _ = run(
            capsys,
            "jensen", files["bimodal"],
            "--points", "0.0,2.0", "--weights", "0.5,0.5",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["slacks"][0] == pytest.approx(-0.4, abs=1e-12)

    def test_single_point_reports_evaluation(self, files, capsys):
        code, out, _ = run(
            capsys, "jensen", files["convex"], "--points", "0.5", "--weights", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["grades"][0] == pytest.approx(0.4, abs=1e-12)
        assert doc["grades"][2] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("domain", [[0.0, 50.0, 100.0],
                                        [0.0, 1e308, 1.7976931348623157e308]])
    def test_weights_summing_past_one_stay_in_the_domain(self, domain, tmp_path, capsys):
        # the weights sum to one within TOL_SUM and carry the weighted
        # point past the domain's end, or past the float range, before it
        # is kept between the points
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(CONVEX_DOC, domain=domain)))
        end = repr(domain[-1])
        code, out, err = run(
            capsys,
            "jensen", str(path),
            "--points", f"{end},{end}", "--weights", "0.5,0.5000000009",
        )
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        assert report["point"] == domain[-1]
        assert report["ok"] is (code == 0)

    def test_bad_weights_is_data_error(self, files, capsys):
        code, _, err = run(
            capsys,
            "jensen", files["convex"],
            "--points", "0.0,2.0", "--weights", "0.9,0.5",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unparseable_floats_are_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["jensen", files["convex"], "--points", "a,b", "--weights", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSuiteCommand:
    def test_passing_suite(self, files, capsys):
        code, out, _ = run(
            capsys, "suite", "--name", "algebra-laws", "--trials", "10", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "algebra-laws"
        assert doc["trials"] == 10
        assert doc["passed"] is True

    def test_expected_failure_suite_passes(self, files, capsys):
        code, out, _ = run(
            capsys,
            "suite", "--name", "hull-theorem-discrepancy",
            "--trials", "3", "--seed", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["expect_failures"] is True
        assert doc["failure_count"] >= 1

    def test_unknown_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--name", "nonsense", "--trials", "3"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestParser:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Hostile-input fuzz: seeded mutations of the documents above, fed to every
# command that reads an instance file (``suite`` reads none).

_LONG = "\ue000long"  # stand-ins, replaced in the text once it is written
_DEEP = "\ue000deep"
_OPEN = "\ue000open"
_EXTREMES = [
    1e308, -1e308, 5e-324, -0.0, 2**63, -1, 10**400, -(10**400),
    math.inf, -math.inf, math.nan, _LONG,
]
_ODD_VALUES = [None, True, False, "0.5", "", [], {}, [[0.1, 0.1, 0.1]], {"depth": 1}]
_MILD = [0, 0.0, -0.0, 5e-324, 1e-17, 0.1]  # grades that often stay valid
_COMMANDS = [
    ["validate", "A"],
    ["check-convex", "A"],
    ["check-convex", "A", "--mode", "sampled", "--samples", "20", "--lambdas", "5"],
    ["cut", "A", "--r", "0.1", "--s", "0.0", "--t", "0.9"],
    ["cut", "A", "--r", "0.1", "--s", "0.0", "--t", "0.9", "--level", "2"],
    ["hull", "A"],
    ["op", "union", "A", "B"],
    ["op", "intersection", "B", "A"],
    ["op", "complement", "A"],
    ["op", "blend", "A", "B", "--lambda", "0.25"],
    ["jensen", "A", "--points", "0.5,1.5", "--weights", "0.5,0.5"],
]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _mutated(rng, base):
    """Document bytes with one to three seeded edits: a dropped, repeated
    or unknown key, a value of another type, an extreme or a mild number,
    deep nesting, a bad byte or a cut.  A third of the documents get mild
    numbers only, so that many of them stay valid."""
    doc, repeats = copy.deepcopy(base), []
    mild_only = rng.random() < 1 / 3
    kinds = ["mild"] if mild_only else [
        "drop", "repeat", "unknown", "swap", "extreme", "nest", "mild"
    ]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        if not isinstance(doc, dict):
            kind = "swap"
        if kind == "drop" and doc:
            del doc[rng.choice(list(doc))]
        elif kind == "repeat":
            key = rng.choice(list(base))
            value = rng.choice([base[key], *_EXTREMES, *_ODD_VALUES])
            repeats.append((key, value))
        elif kind == "mild":
            numbers = [
                path for path in _paths(doc)
                if path[:1] == ("elements",) and type(_at(doc, path)) in (int, float)
            ]
            if numbers:
                doc = _replaced(doc, rng.choice(numbers), rng.choice(_MILD))
        elif kind == "unknown":
            doc["comment"] = rng.choice(_ODD_VALUES)
        else:
            value = {
                "swap": lambda: copy.deepcopy(rng.choice(_ODD_VALUES)),
                "extreme": lambda: rng.choice(_EXTREMES),
                "nest": lambda: rng.choice([_DEEP, _OPEN]),
            }[kind]()
            doc = _replaced(doc, rng.choice(list(_paths(doc))), value)
    text = json.dumps(doc)
    for key, value in repeats:  # json.loads keeps the last of repeated keys
        if text.endswith("}"):
            text = f"{text[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"
    text = (
        text.replace(json.dumps(_LONG), "1" + "0" * 5000)
        .replace(json.dumps(_DEEP), "[" * 500 + "]" * 500)
        .replace(json.dumps(_OPEN), "[" * 100_000)
    )
    data = text.encode()
    if not mild_only and rng.random() < 0.2:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + rng.choice([b"\xff", b"\x00", b"\xef\xbb\xbf", b""])
    return data


def _well_formed(data):
    """Does this file hold a valid instance document?"""
    try:
        parse_instance(data.decode("utf-8"))
    except (UnicodeDecodeError, PfmsError):
        return False
    return True


@pytest.mark.parametrize(
    "name, base",
    [("convex", CONVEX_DOC), ("bimodal", BIMODAL_DOC), ("shifted", SHIFTED_DOC),
     ("dip", DIP_DOC), ("signed-zero", SIGNED_ZERO_DOC)],
)
def test_mutated_documents_keep_exit_code_contract(tmp_path, capsys, name, base):
    rng = random.Random(f"fuzz-{name}")
    second = tmp_path / "second.json"
    second.write_text(json.dumps(base))
    first = tmp_path / "first.json"
    for _ in range(30):
        data = _mutated(rng, base)
        first.write_bytes(data)
        well_formed = _well_formed(data)
        for command in _COMMANDS:
            argv = [{"A": str(first), "B": str(second)}.get(a, a) for a in command]
            code, out, err = run(capsys, *argv)
            where = f"{argv[:2]} on {data[:120]!r}"
            assert code in (0, 1, 2), where
            report = json.loads(out) if out else None  # stdout is JSON or empty
            if code == 2:
                assert out == "" and err.startswith("error:"), where
            elif command[0] == "validate":
                assert report["valid"] is (code == 0) is well_formed, where
            else:  # a property was checked, so the document must be valid
                assert well_formed, where
