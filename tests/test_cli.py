import csv
import filecmp
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import classpv
from classpv import PermutationMethod, example22_model, sample_gaussian_mixture, standard_2class_model
from classpv import cli
from classpv.cli import main

from reference_pvalues import refit_pvalue


@pytest.fixture()
def train_csv(tmp_path):
    model = standard_2class_model()
    d = sample_gaussian_mixture(model, [20, 20], seed=11)
    path = tmp_path / "train.csv"
    lines = ["f1,f2,label"]
    for i in range(d.n):
        lines.append(f"{float(d.features[i, 0])!r},{float(d.features[i, 1])!r},c{d.labels[i]}")
    path.write_text("\n".join(lines) + "\n")
    return path, d


def _query_csv(tmp_path, rows):
    path = tmp_path / "query.csv"
    lines = ["f1,f2"] + [f"{float(x)!r},{float(y)!r}" for x, y in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestClassify:
    def test_pvalues_on_grid_and_duplicate_near_top(self, tmp_path, train_csv, capsys):
        train_path, d = train_csv
        dup = d.features[0]
        query_path = _query_csv(tmp_path, [(dup[0], dup[1]), (0.5, 0.5)])
        rc = main([
            "classify", "--train", str(train_path), "--label", "label",
            "--query", str(query_path), "--method", "knn", "--mode", "valid-shortcut",
            "--k", "2", "--alpha", "0.05", "--seed", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        rows = _read_csv(tmp_path / "out" / "classify.csv")
        assert len(rows) == 2
        for row in rows:
            for name in ("p_c1", "p_c2"):
                p = float(row[name])
                j = round(p * 21)
                assert abs(p - j / 21) < 1e-9
        # a query equal to a class-1 training point: with k=2 its neighborhood is
        # the duplicate pair, the posterior weight is 1 and the rank hits the top
        assert float(rows[0]["p_c1"]) == 1.0

    def test_region_encoding(self, tmp_path, train_csv):
        # typicality is the outlier-sensitive method: a far query is rejected by
        # both classes, a central one keeps both
        train_path, _ = train_csv
        query_path = _query_csv(tmp_path, [(1.0, 0.0), (50.0, 50.0)])
        rc = main([
            "classify", "--train", str(train_path), "--label", "label",
            "--query", str(query_path), "--method", "typicality", "--alpha", "0.05",
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        rows = _read_csv(tmp_path / "o" / "classify.csv")
        assert rows[0]["region_0.05"] == "c1+c2"
        assert rows[1]["region_0.05"] == "-"

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,label\n1.0,a\nnot-a-number,b\n")
        rc = main([
            "classify", "--train", str(bad), "--label", "label",
            "--query", str(bad), "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "f1" in err

    @pytest.mark.parametrize("mode", ["exact-swap", "valid-shortcut", "naive"])
    @pytest.mark.parametrize("method", ["plugin", "knn", "logistic", "typicality"])
    def test_nan_query_exit_2_in_every_mode(self, tmp_path, train_csv, capsys, method, mode):
        train_path, _ = train_csv
        query = tmp_path / "nan.csv"
        query.write_text("f1,f2\n0.0,0.0\n0.5,nan\n")
        rc = main([
            "classify", "--train", str(train_path), "--label", "label", "--query", str(query),
            "--method", method, "--mode", mode, "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nan.csv" in err and "line 3" in err and "'f2'" in err
        assert not (tmp_path / "o").exists()

    def test_non_finite_training_cell_exit_2(self, tmp_path, capsys):
        train = tmp_path / "inf.csv"
        train.write_text("f1,f2,label\n0.0,1.0,a\n\n2.0,-inf,b\n")
        q = _query_csv(tmp_path, [(0.0, 0.0)])
        rc = main([
            "classify", "--train", str(train), "--label", "label", "--query", str(q),
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "inf.csv" in err and "line 4" in err and "'f2'" in err

    def test_degenerate_training_exit_4(self, tmp_path):
        const = tmp_path / "const.csv"
        const.write_text("f1,f2,label\n1.0,5.0,a\n2.0,5.0,a\n3.0,5.0,b\n4.0,5.0,b\n")
        q = _query_csv(tmp_path, [(1.0, 5.0)])
        rc = main([
            "classify", "--train", str(const), "--label", "label", "--query", str(q),
            "--method", "plugin", "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 4

    def test_far_query_takes_the_refit(self, tmp_path, capsys):
        # the plug-in closed form cancels far from the data, so such a query
        # takes the augmented refit: singular at 1e7 (exit 4, pivot named),
        # equal to the refit p-values at 1e6
        d = sample_gaussian_mixture(example22_model(), [30, 30, 30], seed=1)
        train = tmp_path / "train.csv"
        train.write_text("f1,f2,label\n" + "".join(
            f"{float(a)!r},{float(b)!r},c{label}\n" for (a, b), label in zip(d.features, d.labels)))
        fitted = PermutationMethod("plugin").fit(d)
        for scale, code in ((1e7, 4), (1e6, 0)):
            far = np.array([scale, 0.7 * scale])
            q = _query_csv(tmp_path, [(0.5, 0.5), far])
            rc = main([
                "classify", "--train", str(train), "--label", "label", "--query", str(q),
                "--method", "plugin", "--seed", "1", "--out", str(tmp_path / f"o{code}"),
            ])
            assert rc == code
            if code:
                assert "pivot 0.561768 at index 1" in capsys.readouterr().err
                continue
            row = _read_csv(tmp_path / "o0" / "classify.csv")[1]
            for theta in (1, 2, 3):
                expected = refit_pvalue(fitted, "valid-shortcut", theta, far)
                assert row[f"p_c{theta}"] == format(expected, ".12g")

    def test_seed_echoed_when_omitted(self, tmp_path, train_csv, capsys):
        train_path, _ = train_csv
        q = _query_csv(tmp_path, [(0.0, 0.0)])
        rc = main([
            "classify", "--train", str(train_path), "--label", "label",
            "--query", str(q), "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert re.search(r"seed: \d+", capsys.readouterr().out)


class TestCrossval:
    def test_report_identities(self, tmp_path, train_csv):
        train_path, _ = train_csv
        out = tmp_path / "rep"
        rc = main([
            "crossval", "--train", str(train_path), "--label", "label",
            "--method", "plugin", "--alpha", "0.05", "--seed", "2",
            "--out", str(out), "--format", "csv", "--format", "json", "--format", "svg",
        ])
        assert rc == 0
        pattern_rows = _read_csv(out / "pattern_alpha0.05.csv")
        inclusion_rows = _read_csv(out / "inclusion_alpha0.05.csv")
        for prow, irow in zip(pattern_rows, inclusion_rows):
            total = sum(float(v) for k, v in prow.items() if k.startswith("eq_"))
            assert total == pytest.approx(1.0)
            # inclusion = sum of patterns containing the class
            for theta_name in ("c1", "c2"):
                via = sum(
                    float(v)
                    for k, v in prow.items()
                    if k.startswith("eq_") and theta_name in k.removeprefix("eq_").split("+")
                )
                assert float(irow[f"in_{theta_name}"]) == pytest.approx(via)

    def test_svg_rectangle_areas_proportional(self, tmp_path, train_csv):
        train_path, _ = train_csv
        out = tmp_path / "rep2"
        rc = main([
            "crossval", "--train", str(train_path), "--label", "label",
            "--method", "knn", "--k", "7", "--alpha", "0.05", "--seed", "2",
            "--out", str(out), "--format", "svg",
        ])
        assert rc == 0
        cvrows = _read_csv(out / "crossval_pvalues.csv")
        # reconstruct chart row order: sorted by (label, row index)
        ordered = sorted(cvrows, key=lambda r: (r["label"], int(r["row"])))
        expected = [float(r[c]) for r in ordered for c in ("p_c1", "p_c2")]
        tree = ET.parse(out / "pvalue_chart.svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        rects = [r for r in tree.getroot().iter("{http://www.w3.org/2000/svg}rect") if r.get("class") == "pv"]
        assert len(rects) == len(expected)
        side_full = 24.0  # cell minus padding, fixed by the chart geometry
        for rect, p in zip(rects, expected):
            area = float(rect.get("width")) * float(rect.get("height"))
            assert abs(area - side_full**2 * p) <= 0.005 * side_full**2

    def test_warns_from_leave_one_out_group_sizes(self, tmp_path, model2):
        # 19 per class: the full grid reaches 1/20 = alpha, but a row's own
        # class has 18 points once the row is left out, so its floor is 1/19
        d = sample_gaussian_mixture(model2, [19, 19], seed=3)
        path = tmp_path / "train19.csv"
        path.write_text("f1,f2,label\n" + "".join(
            f"{float(d.features[i, 0])!r},{float(d.features[i, 1])!r},c{d.labels[i]}\n" for i in range(d.n)
        ))
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="never below 1/19") as record:
            rc = main([
                "crossval", "--train", str(path), "--label", "label", "--alpha", "0.05",
                "--seed", "1", "--out", str(out),
            ])
        assert rc == 0
        assert len([w for w in record if "never below" in str(w.message)]) == 2
        # the warnings name the line that called main, not cli.main's dispatch
        assert {w.filename for w in record if "never below" in str(w.message)} == {__file__}
        rows = _read_csv(out / "crossval_pvalues.csv")
        assert all(float(r[f"p_{r['label']}"]) >= 1.0 / 19 > 0.05 for r in rows)

    @pytest.mark.parametrize("command", ["classify", "crossval"])
    def test_typicality_does_not_warn_of_a_rank_floor(self, tmp_path, command):
        # 8 + 8 rows: a rank p-value never falls below 1/9 > 0.05, so the
        # plug-in warns for both classes; typicality, an exact pivot, has no
        # such floor and excludes both classes at a far point
        rng = np.random.default_rng(8)
        path = tmp_path / "train8.csv"
        path.write_text("f1,f2,label\n" + "".join(
            f"{x!r},{y!r},c{1 + i // 8}\n" for i, (x, y) in enumerate(rng.normal(size=(16, 2)).tolist())
        ))
        query = str(_query_csv(tmp_path, [(20.0, 20.0)]))
        extra = ["--query", query] if command == "classify" else []
        for method, warned in (("plugin", 2), ("typicality", 0)):
            out = tmp_path / method
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                rc = main([command, "--train", str(path), "--label", "label", *extra, "--method", method,
                           "--alpha", "0.05", "--seed", "1", "--out", str(out)])
            assert rc == 0
            assert len([w for w in record if "can never be excluded" in str(w.message)]) == warned
        if command == "classify":
            row, = _read_csv(tmp_path / "typicality" / "classify.csv")
            assert float(row["p_c1"]) < 0.05 and float(row["p_c2"]) < 0.05 and row["region_0.05"] == "-"

    def test_relabel_to_singular_covariance_exit_4(self, tmp_path):
        path = tmp_path / "move.csv"
        path.write_text("f1,f2,label\n0.0,0.0,a\n1.0,0.0,a\n2.0,3.0,a\n5.0,3.0,b\n6.0,3.0,b\n")
        rc = main([
            "crossval", "--train", str(path), "--label", "label", "--method", "plugin",
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 4

    def test_singleton_class_exit_3(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f1,label\n0.0,a\n1.0,a\n2.0,a\n3.0,b\n")
        rc = main([
            "crossval", "--train", str(path), "--label", "label", "--seed", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3


class TestSimulateAndDeterminism:
    def test_region_map_small(self, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "region-map", "--model", "example22", "--grid-points", "9",
            "--alpha", "0.05", "--alpha", "0.01", "--seed", "5", "--out", str(out),
            "--format", "csv", "--format", "json", "--format", "svg",
        ])
        assert rc == 0
        rows = _read_csv(out / "region_map_alpha0.05.csv")
        assert len(rows) == 81
        assert {"x", "y", "region"} <= set(rows[0])
        payload = json.loads((out / "region_map.json").read_text())
        assert "0.05" in payload["patterns"]

    def test_validity_runs_single_method(self, tmp_path):
        out = tmp_path / "val"
        rc = main([
            "simulate", "validity", "--method", "knn", "--mode", "valid-shortcut",
            "--replications", "40", "--alpha", "0.1", "--seed", "6", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out / "validity.csv")
        assert {r["statistic"] for r in rows} == {"knn"}

    def test_validity_method_takes_every_method_flag(self, tmp_path, monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "validity_experiment", lambda cfg: configs.append(cfg) or SimpleNamespace(cells=[]))
        rc = main([
            "simulate", "validity", "--method", "knn", "--mode", "naive", "--k", "3", "--scale-features",
            "--replications", "1", "--seed", "6", "--out", str(tmp_path / "val"),
        ])
        assert rc == 0
        assert configs[0].methods == (PermutationMethod("knn", "naive", k=3, scale_features=True),)

    def test_validity_without_method_runs_battery(self, tmp_path):
        out = tmp_path / "battery"
        rc = main([
            "simulate", "validity", "--replications", "3", "--sizes", "6", "6",
            "--alpha", "0.1", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out / "validity.csv")
        assert {(r["statistic"], r["mode"]) for r in rows} == {
            (s, m) for s in ("plugin", "knn", "logistic") for m in ("exact-swap", "valid-shortcut")
        }

    def test_validity_battery_leaves_logistic_out_for_three_classes(self, tmp_path):
        out = tmp_path / "battery3"
        rc = main([
            "simulate", "validity", "--model", "example22", "--replications", "2", "--sizes", "6", "6", "6",
            "--alpha", "0.1", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out / "validity.csv")
        assert {(r["statistic"], r["mode"]) for r in rows} == {
            (s, m) for s in ("plugin", "knn") for m in ("exact-swap", "valid-shortcut")
        }

    def test_validity_json_holds_the_settings_and_the_csv_cells(self, tmp_path):
        out = tmp_path / "valjson"
        rc = main([
            "simulate", "validity", "--method", "plugin", "--replications", "3", "--sizes", "6", "7",
            "--alpha", "0.1", "--alpha", "0.25", "--seed", "8", "--out", str(out),
            "--format", "csv", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads((out / "validity.json").read_text())
        assert (payload["seed"], payload["replications"], payload["sizes"]) == (8, 3, [6, 7])
        written = [
            {**{name: str(cell[name]) for name in ("statistic", "mode", "theta", "ok")},
             "alpha": cli._alpha_tag(cell["alpha"]),
             **{name: cli._num(cell[name]) for name in ("rate", "std_error", "bound")}}
            for cell in payload["cells"]
        ]
        assert len(written) == 4
        assert written == _read_csv(out / "validity.csv")

    def test_convergence_runs(self, tmp_path):
        out = tmp_path / "conv"
        rc = main([
            "simulate", "convergence", "--schedule", "60", "120", "--queries", "20",
            "--mc-samples", "1000", "--seed", "6", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out / "convergence.csv")
        assert [r["n"] for r in rows] == ["60", "120"]

    @pytest.mark.parametrize("source", ("model", "train"))
    def test_region_map_without_lattice_points_exit_2(self, tmp_path, train_csv, capsys, source):
        train_path, _ = train_csv
        given = ["--model", "example22"] if source == "model" else ["--train", str(train_path), "--label", "label"]
        out = tmp_path / "empty"
        rc = main(["simulate", "region-map", *given, "--grid-points", "0", "--seed", "5", "--out", str(out)])
        assert rc == 2
        assert "xs is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_region_map_negative_grid_points_exit_2(self, tmp_path, capsys):
        out = tmp_path / "negative"
        rc = main(["simulate", "region-map", "--model", "example22", "--grid-points", "-1", "--seed", "5",
                   "--out", str(out)])
        assert rc == 2
        assert "--grid-points must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("bounds", "message"),
        [
            (["--grid-min", "nan"], "must be finite"),
            (["--grid-max", "inf"], "must be finite"),
            (["--grid-min=-inf"], "must be finite"),
            (["--grid-min", "2", "--grid-max", "1"], "must be below --grid-max, got 2.0 and 1.0"),
            (["--grid-min", "1", "--grid-max", "1"], "must be below --grid-max, got 1.0 and 1.0"),
        ],
    )
    @pytest.mark.parametrize("source", ("model", "train"))
    def test_region_map_bad_lattice_exit_2(self, tmp_path, train_csv, capsys, bounds, message, source):
        train_path, _ = train_csv
        given = ["--model", "example22"] if source == "model" else ["--train", str(train_path), "--label", "label"]
        out = tmp_path / "bad"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", "region-map", *given, *bounds, "--grid-points", "5", "--mc-samples", "100",
                       "--seed", "5", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_region_map_of_one_lattice_point_takes_any_bounds(self, tmp_path):
        out = tmp_path / "one"
        rc = main(["simulate", "region-map", "--model", "example22", "--grid-min", "1", "--grid-max", "1",
                   "--grid-points", "1", "--mc-samples", "100", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert [(r["x"], r["y"]) for r in _read_csv(out / "region_map_alpha0.05.csv")] == [("1", "1")]

    def test_convergence_without_queries_exit_2(self, tmp_path, capsys):
        rc = main([
            "simulate", "convergence", "--schedule", "60", "--queries", "0",
            "--mc-samples", "100", "--seed", "6", "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2
        assert "n_queries must be at least 1" in capsys.readouterr().err

    def test_unknown_kind_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "nonsense", "--out", str(tmp_path)])
        assert info.value.code == 2

    def test_byte_identical_rerun(self, tmp_path, train_csv):
        train_path, _ = train_csv
        args = [
            "crossval", "--train", str(train_path), "--label", "label",
            "--method", "knn", "--k", "5", "--alpha", "0.05", "--seed", "9",
            "--format", "csv", "--format", "json", "--format", "svg",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
        assert mismatch == [] and errors == []


_GOOD_TRAIN = "f1,f2,label\n0.0,1.0,a\n2.0,0.5,b\n1.0,1.5,a\n"


class TestInputErrors:
    """Every input problem the CLI reads exits 2 with a message naming the
    file it is in."""

    @pytest.mark.parametrize("files, args, expected", [
        pytest.param({}, ["--train", "t.csv", "--label", "label"], ["t.csv"], id="no-such-file"),
        pytest.param({"t.csv": ""}, ["--train", "t.csv", "--label", "label"], ["t.csv", "header"], id="empty"),
        pytest.param({"t.csv": "f1,f2,label\n"}, ["--train", "t.csv", "--label", "label"], ["t.csv", "no data rows"],
                     id="no-rows"),
        pytest.param({"t.csv": "f1,f2,label\n0.0,1.0,a\n2.0,b\n"}, ["--train", "t.csv", "--label", "label"],
                     ["t.csv", "line 3", "expected 3 fields, found 2"], id="ragged"),
        pytest.param({"t.csv": _GOOD_TRAIN}, ["--train", "t.csv", "--label", "class"], ["t.csv", "'class'"],
                     id="no-label-column"),
        pytest.param({"t.csv": _GOOD_TRAIN}, ["--label", "label"], ["--train"], id="no-train-flag"),
        pytest.param({"t.csv": _GOOD_TRAIN}, ["--train", "t.csv"], ["t.csv", "--label"], id="no-label-flag"),
        pytest.param({"t.csv": _GOOD_TRAIN, "q.csv": "f1,g2\n0.0,0.0\n"}, ["--train", "t.csv", "--label", "label"],
                     ["q.csv", "do not match"], id="query-columns"),
        pytest.param({"t.csv": _GOOD_TRAIN}, ["--train", "t.csv", "--label", "label", "--config", "c.json"],
                     ["c.json"], id="no-config-file"),
        pytest.param({"t.csv": _GOOD_TRAIN, "c.json": "{"},
                     ["--train", "t.csv", "--label", "label", "--config", "c.json"], ["c.json", "invalid JSON"],
                     id="config-not-json"),
    ])
    def test_exit_2_naming_the_file(self, tmp_path, monkeypatch, capsys, files, args, expected):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        rc = main(["classify", *args, "--query", "q.csv", "--seed", "1", "--out", "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(part in err for part in expected), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-1"])
    @pytest.mark.parametrize("command", ["classify", "crossval", "simulate"])
    def test_alpha_outside_the_unit_interval_exit_2_before_any_work(self, tmp_path, train_csv, capsys, command, alpha):
        # a second, valid level must not hide the bad one
        train_path, _ = train_csv
        query = str(_query_csv(tmp_path, [(0.5, 0.5)]))
        args = {"classify": ["--train", str(train_path), "--label", "label", "--query", query],
                "crossval": ["--train", str(train_path), "--label", "label"],
                "simulate": ["validity", "--replications", "2", "--sizes", "4", "4"]}[command]
        rc = main([command, *args, "--alpha", "0.05", "--alpha", alpha, "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: alpha must lie in (0, 1), got {float(alpha)}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["exact-swap", "valid-shortcut", "naive"])
    @pytest.mark.parametrize("command", ["classify", "crossval", "region-map"])
    @pytest.mark.parametrize("k, message", [
        ("0", "k must be at least 1, got 0"),
        ("-2", "k must be at least 1, got -2"),
        ("41", "k must lie in 1..n=40, got 41"),
    ])
    def test_k_outside_1_to_n_exit_2_in_every_mode(self, tmp_path, train_csv, capsys, mode, command, k, message):
        train_path, _ = train_csv
        args = {"classify": ["classify", "--query", str(_query_csv(tmp_path, [(0.5, 0.5)]))],
                "crossval": ["crossval"],
                "region-map": ["simulate", "region-map", "--grid-points", "3"]}[command]
        rc = main([*args, "--train", str(train_path), "--label", "label", "--method", "knn", "--mode", mode,
                   "--k", k, "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_module_entry_point_runs(self):
        src = str(Path(classpv.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "classpv", "--help"], env=env, capture_output=True, text=True)
        assert result.returncode == 0
        assert "classify" in result.stdout


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, train_csv, capsys):
        train_path, _ = train_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "plugin", "seed": 4, "alpha": [0.2]}))
        q = _query_csv(tmp_path, [(0.0, 0.0)])
        rc = main([
            "classify", "--train", str(train_path), "--label", "label", "--query", str(q),
            "--config", str(cfg), "--method", "knn", "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert "seed: 4" in capsys.readouterr().out
        header = (tmp_path / "o" / "classify.csv").read_text().splitlines()[0]
        assert "region_0.2" in header

    def test_unknown_config_key(self, tmp_path, train_csv):
        train_path, _ = train_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mehtod": "plugin"}))
        q = _query_csv(tmp_path, [(0.0, 0.0)])
        rc = main([
            "classify", "--train", str(train_path), "--label", "label", "--query", str(q),
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("values, key", [
        ({"alpha": 0.05}, "alpha"),
        ({"k": "7"}, "k"),
        ({"format": "json"}, "format"),
        ({"method": "plug-in"}, "method"),
    ])
    def test_config_values_checked_against_their_flags(self, tmp_path, train_csv, capsys, values, key):
        train_path, _ = train_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        q = _query_csv(tmp_path, [(0.0, 0.0)])
        rc = main([
            "classify", "--train", str(train_path), "--label", "label", "--query", str(q),
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, values, key", [
        ("classify", {"replications": 5}, "replications"),
        ("crossval", {"query": "q.csv"}, "query"),
        ("crossval", {"grid_points": 3}, "grid_points"),
    ])
    def test_config_key_without_a_flag_in_the_subcommand(self, tmp_path, train_csv, capsys, command, values, key):
        train_path, _ = train_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        q = _query_csv(tmp_path, [(0.0, 0.0)])
        argv = [command, "--train", str(train_path), "--label", "label", "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        rc = main(argv + (["--query", str(q)] if command == "classify" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and command in err
        assert not (tmp_path / "o").exists()

    def test_config_must_be_an_object(self, tmp_path, train_csv):
        train_path, _ = train_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        rc = main(["crossval", "--train", str(train_path), "--label", "label", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
