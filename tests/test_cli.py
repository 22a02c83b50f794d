import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

import golden
from optiq import approx, cli, serialize
from optiq.approx import approximate, fidelity_bound, haar_random, multi_start
from optiq.circuit import decompose
from optiq.cli import main
from optiq.errors import InternalConsistencyError, NumericalInstabilityError
from optiq.fock import enumerate_basis
from optiq.lie import ImageBasis, build_image_basis


@pytest.fixture()
def qft3_file(tmp_path):
    path = tmp_path / "qft3.json"
    serialize.save_matrix(path, golden.QFT3)
    return str(path)


@pytest.fixture()
def order_file(tmp_path):
    path = tmp_path / "order.json"
    path.write_text(json.dumps([list(s) for s in golden.ORDER_22]))
    return "@" + str(path)


def run(args):
    return main(args)


class TestApproximateCommand:
    def test_nothing_reads_dense_elements(self, tmp_path, qft3_file, order_file,
                                          monkeypatch):
        # the package builds and reads its image bases on the support alone
        def dense(self):
            raise AssertionError("ImageBasis.elements was read")

        monkeypatch.setattr(ImageBasis, "elements", property(dense))
        ib = build_image_basis(enumerate_basis(3, 3))
        U = haar_random(10, 5)
        assert approximate(U, np.eye(3), ib, max_iter=50).iterations > 0
        assert len(multi_start(U, ib, k=3, max_iter=50)) >= 1
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2",
                    "--ordering", order_file, "--starts", "3",
                    "-o", str(tmp_path / "report.json")]) == 0

    def test_small_run_and_replay(self, tmp_path, qft3_file, order_file):
        out = tmp_path / "report.json"
        code = run(["approximate", qft3_file, "-m", "2", "-n", "2",
                    "--ordering", order_file, "--starts", "6", "--seed", "3",
                    "--max-iter", "400", "-o", str(out), "--trace"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["format_version"] == cli.REPORT_VERSION
        assert report["config"]["rng_seed"] == 3
        assert report["clusters"]
        for cluster in report["clusters"]:
            assert {"final_distance", "fidelity_bound", "hit_count",
                    "scattering_matrix", "evolution_matrix",
                    "circuit", "trace"} <= set(cluster)
        assert sum(c["hit_count"] for c in report["clusters"]) == 6
        assert run(["replay", str(out)]) == 0

    def test_byte_identical_reports(self, tmp_path, qft3_file, order_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["approximate", qft3_file, "-m", "2", "-n", "2",
                "--ordering", order_file, "--starts", "4", "--seed", "11",
                "--max-iter", "400"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_membership_target_reports_zero_distance(self, tmp_path):
        target = tmp_path / "target.json"
        serialize.save_matrix(target, np.eye(3))
        out = tmp_path / "report.json"
        code = run(["approximate", str(target), "-m", "2", "-n", "2",
                    "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["clusters"][0]["final_distance"] < 1e-9
        assert report["clusters"][0]["circuit"]["elements"] == []

    def test_non_unitary_target_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        A = np.eye(3, dtype=complex)
        A[0, 0] = 1.1
        serialize.save_matrix(bad, A)
        assert run(["approximate", str(bad), "-m", "2", "-n", "2",
                    "-o", str(tmp_path / "x.json")]) == 3
        assert "residual" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path):
        two = tmp_path / "two.json"
        serialize.save_matrix(two, np.eye(2))
        assert run(["approximate", str(two), "-m", "2", "-n", "2",
                    "-o", str(tmp_path / "x.json")]) == 2

    def test_malformed_file_exits_1(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{oops")
        assert run(["approximate", str(junk), "-m", "2", "-n", "2",
                    "-o", str(tmp_path / "x.json")]) == 1

    def test_non_convergence_warns(self, tmp_path, qft3_file, order_file, capsys):
        args = ["approximate", qft3_file, "-m", "2", "-n", "2",
                "--ordering", order_file, "--max-iter", "1"]
        assert run(args + ["-o", str(tmp_path / "a.json")]) == 0
        err = capsys.readouterr().err
        assert "did not converge" in err and "max_iter=1" in err
        assert run(args[:-1] + ["400", "-o", str(tmp_path / "b.json")]) == 0
        assert "did not converge" not in capsys.readouterr().err

    def test_numerical_instability_exits_4(self, tmp_path, capsys, qft3_file,
                                           monkeypatch):
        def unstable(*args, **kwargs):
            raise NumericalInstabilityError("geodesic norm grew", step=3)

        monkeypatch.setattr("optiq.cli.multi_start", unstable)
        out = tmp_path / "report.json"
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2", "-o", str(out)]) == 4
        assert capsys.readouterr().err == "error: step 3: geodesic norm grew\n"
        assert not out.exists()

    def test_report_streams_one_cluster_at_a_time(self, tmp_path):
        # the writer holds one cluster's lists and dicts at a time, never the
        # whole report as a tree, as chunks or as one string
        U = haar_random(10, 3)
        target = tmp_path / "target.json"
        serialize.save_matrix(target, U)
        ib = build_image_basis(enumerate_basis(3, 3))
        multi_start(U, ib, k=3)  # lift tables and first-call caches
        tracemalloc.start()
        try:
            multi_start(U, ib, k=50)
            engine = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert run(["approximate", str(target), "-m", "3", "-n", "3",
                        "--starts", "50", "--trace",
                        "-o", str(tmp_path / "report.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= engine + 1e6, (peak, engine)

    def test_report_is_written_in_one_piece_per_cluster(self, tmp_path, monkeypatch):
        # one write for the header with the first cluster, one for each
        # further cluster with its separator, one for the tail: never one
        # per token, and never more than one cluster's text at a time
        target, out = tmp_path / "target.json", tmp_path / "report.json"
        serialize.save_matrix(target, haar_random(10, 3))
        dump, writes = serialize.dump_canonical, []

        class Recorder:
            def __init__(self, f):
                self.f = f

            def write(self, text):
                writes.append(len(text))
                return self.f.write(text)

        monkeypatch.setattr(serialize, "dump_canonical", lambda obj, f: dump(obj, Recorder(f)))
        assert run(["approximate", str(target), "-m", "3", "-n", "3", "--starts", "6",
                    "--trace", "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        clusters = json.loads(text)["clusters"]
        header = text.index("{", text.index('"clusters": ['))
        longest = max(len(serialize.dumps_canonical(c).replace("\n", "\n    ")) - 5
                      for c in clusters)
        assert len(clusters) >= 5 and all("trace" in c for c in clusters)
        assert sum(writes) == len(text)
        assert len(writes) <= len(clusters) + 2
        assert max(writes) <= header + longest

    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
    def test_streamed_report_matches_eager_encoding(self, tmp_path, capsys, qft3_file,
                                                    order_file, trace):
        args = ["approximate", qft3_file, "-m", "2", "-n", "2",
                "--ordering", order_file, "--starts", "6", "--seed", "3",
                "--max-iter", "400"] + (["--trace"] if trace else [])
        out = tmp_path / "report.json"
        assert run(args + ["-o", str(out)]) == 0
        config = cli.RunConfig(m=2, n=2, ordering=[list(s) for s in golden.ORDER_22],
                               max_iter=400, starts=6, rng_seed=3)
        target = serialize.load_matrix(qft3_file)
        clusters = multi_start(target, build_image_basis(config.basis()), config.starts,
                               max_iter=config.max_iter, rng_seed=config.rng_seed)
        bounds = [fidelity_bound(result.trace[-1].normal_norm) for result, _ in clusters]
        assert len(clusters) > 1
        eager = {"format_version": cli.REPORT_VERSION, "config": config.to_obj(),
                 "target": serialize.matrix_to_obj(target),
                 "clusters": [cli._cluster_builder(result, hits, trace)()
                              for result, hits in clusters]}
        assert [c["fidelity_bound"] for c in eager["clusters"]] == list(bounds)
        assert out.read_text(encoding="utf-8") == serialize.dumps_canonical(eager)
        capsys.readouterr()
        assert run(args + ["-o", "-"]) == 0
        assert capsys.readouterr().out == serialize.dumps_canonical(eager)

    def test_reports_to_devices_and_directories(self, tmp_path, capsys, qft3_file,
                                                order_file):
        args = ["approximate", qft3_file, "-m", "2", "-n", "2", "--ordering", order_file,
                "--starts", "3", "-o"]
        assert run(args + [os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        assert run(args + [str(out) + os.sep]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert list(out.iterdir()) == []

    def test_failed_write_keeps_earlier_report(self, tmp_path, qft3_file, order_file,
                                               monkeypatch):
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report\n")
        before = sorted(tmp_path.iterdir())
        to_obj, calls = serialize.matrix_to_obj, []

        def failing(A):
            calls.append(1)
            if len(calls) == 5:  # the target, then cluster 0's two, then cluster 1's
                raise OSError("disk full")
            return to_obj(A)

        monkeypatch.setattr(serialize, "matrix_to_obj", failing)
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2",
                    "--ordering", order_file, "--starts", "6", "--seed", "3",
                    "--max-iter", "400", "-o", str(out)]) == 1
        assert len(calls) == 5
        assert out.read_bytes() == b"earlier report\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_failing_cluster_opens_no_file(self, tmp_path, capsys, qft3_file, order_file,
                                           monkeypatch):
        plans = []

        def failing(S):
            plans.append(S)
            if len(plans) == 2:
                raise InternalConsistencyError("mesh does not reconstruct")
            return decompose(S)

        monkeypatch.setattr(cli, "decompose", failing)
        before = sorted(tmp_path.iterdir())
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2",
                    "--ordering", order_file, "--starts", "6", "--seed", "3",
                    "--max-iter", "400", "-o", str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == "error: mesh does not reconstruct\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("option,value", [
        ("--starts", "0"), ("--tol", "0"), ("--max-iter", "0"), ("--cluster-tol", "0"),
    ])
    def test_bad_run_option_exits_1(self, tmp_path, capsys, qft3_file, option, value):
        out = tmp_path / "report.json"
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2",
                    option, value, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_replay_detects_tampering(self, tmp_path, capsys, qft3_file, order_file):
        out = tmp_path / "report.json"
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2",
                    "--ordering", order_file, "--starts", "2", "--seed", "5",
                    "--max-iter", "400", "-o", str(out)]) == 0
        original = out.read_text()

        def nudge(matrix):
            def tamper(clusters):
                clusters[0][matrix]["entries"][0][1][0] += 1e-3
            return tamper

        for tamper, message in [
                (lambda clusters: clusters[0].update(
                    final_distance=clusters[0]["final_distance"] + 0.5),
                 "replay mismatch: clusters.0.final_distance: recorded "),
                (lambda clusters: clusters.pop(),
                 "replay mismatch: clusters: 0 items recorded, 1 recomputed"),
                (lambda clusters: clusters[0].update(
                    hit_count=clusters[0]["hit_count"] + 40),
                 "replay mismatch: clusters.0.hit_count: recorded "),
                (nudge("scattering_matrix"),
                 "replay mismatch: clusters.0.scattering_matrix.entries.0.1.0: recorded "),
                (nudge("evolution_matrix"),
                 "replay mismatch: clusters.0.evolution_matrix.entries.0.1.0: recorded "),
                (lambda clusters: clusters[-1].update(converged=not clusters[-1]["converged"]),
                 ".converged: recorded ")]:
            report = json.loads(original)
            tamper(report["clusters"])
            out.write_text(json.dumps(report))
            capsys.readouterr()
            assert run(["replay", str(out)]) == 1
            assert message in capsys.readouterr().err

        # another member's iterations, and a scattering matrix that differs
        # by an n-th root of unity (-1 for n = 2) and so has the same lift
        report = json.loads(original)
        cluster = report["clusters"][0]
        cluster["iterations"] += 7
        cluster["scattering_matrix"]["entries"] = \
            (-np.array(cluster["scattering_matrix"]["entries"])).tolist()
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["replay", str(out)]) == 1
        err = capsys.readouterr().err
        assert "clusters.0.iterations" in err and "clusters.0.scattering_matrix" in err
        assert "evolution_matrix" not in err

    @pytest.mark.parametrize("index,value", [(0, float("nan")), (-1, float("nan")),
                                             (-1, "0.5"), (0, True)],
                             ids=["first-nan", "last-nan", "last-str", "first-bool"])
    def test_replay_rejects_malformed_distance(self, tmp_path, capsys, qft3_file,
                                              index, value):
        out = tmp_path / "report.json"
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2", "--starts", "4",
                    "--max-iter", "400", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["clusters"]) == 3
        report["clusters"][index]["final_distance"] = value
        out.write_text(json.dumps(report))  # NaN as the JSON literal NaN
        capsys.readouterr()
        assert run(["replay", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"replay mismatch: clusters.{index % 3}.final_distance: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("version", [1, 3, "1", True, None],
                             ids=["1", "3", "str", "bool", "missing"])
    def test_replay_rejects_other_format_versions(self, tmp_path, capsys, qft3_file, version):
        out = tmp_path / "report.json"
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2", "--starts", "2",
                    "--max-iter", "400", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        if version is None:
            del report["format_version"]
        else:
            report["format_version"] = version
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["replay", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report: ") and err.count("\n") == 1
        assert "format_version" in err

    def test_replay_compares_every_field(self, tmp_path, capsys, qft3_file, order_file,
                                         monkeypatch):
        # each leaf of a --trace report, changed alone in a seeded way, fails
        # replay with a line that names it (in the mesh, one line that names
        # the circuit), except in the config and the target (they steer the
        # search); those may verify or fail, but no exception escapes
        out = tmp_path / "report.json"
        assert run(["approximate", qft3_file, "-m", "2", "-n", "2", "--ordering", order_file,
                    "--starts", "4", "--trace", "-o", str(out)]) == 0
        original = json.loads(out.read_text())
        capsys.readouterr()
        assert run(["replay", str(out)]) == 0
        assert capsys.readouterr().err == \
            f"replay verified: {len(original['clusters'])} cluster(s) match within 1e-09\n"

        def leaves(obj, path=()):
            if not isinstance(obj, (dict, list)):
                yield path
            for key, value in obj.items() if isinstance(obj, dict) else \
                    enumerate(obj) if isinstance(obj, list) else ():
                yield from leaves(value, path + (key,))

        def get(path, obj=original):
            for key in path:
                obj = obj[key]
            return obj

        def mutation(x):
            options = [None, float("nan"), 1e308, repr(x), [], {}, "delete"]
            if isinstance(x, bool):
                options += [not x, int(x)]
            elif isinstance(x, str):
                options += [x + "_"]
            else:
                options += [x + 0.37, x + 7, float(x) if isinstance(x, int) else int(x)]
            return options[rng.integers(len(options))]

        def mutated(path, value):
            report = json.loads(json.dumps(original))
            if value == "delete":
                del get(path[:-1], report)[path[-1]]
            else:
                get(path[:-1], report)[path[-1]] = value
            return report

        def replay(report):
            out.write_text(json.dumps(report))
            capsys.readouterr()
            code = run(["replay", str(out)])
            return code, capsys.readouterr().err

        rng = np.random.default_rng(18)
        paths = list(leaves(original))
        steering = [p for p in paths if p[0] in ("config", "target")]
        for i in rng.choice(len(steering), 12, replace=False):
            code, err = replay(mutated(steering[i], mutation(get(steering[i]))))
            assert code in (0, 1, 2, 3, 4)
            assert all(line.startswith(("error: ", "replay ")) for line in err.splitlines())

        # the search depends on config and target alone, so it is run once
        clusters = cli._search(cli.RunConfig.from_obj(original["config"]),
                               serialize.matrix_from_obj(original["target"]))
        monkeypatch.setattr(cli, "_search", lambda config, target: clusters)
        checked = [p for p in paths if p[0] == "clusters" and "circuit" not in p]
        assert len(checked) > 400
        for path in checked:
            code, err = replay(mutated(path, value := mutation(get(path))))
            named = ".".join(map(str, path[:-1] if value == "delete" else path))
            assert code == 1 and f"replay mismatch: {named}: " in err, (path, value, err)
            assert err.count("\n") <= cli.REPLAY_LINES + 1
        # the mesh is checked by its product, so also every angle + 0.37
        circuits = [p for p in paths if "circuit" in p]
        angles = [p for p in circuits if p[-1] in ("theta", "phi") or p[-2] == "residual_phases"]
        assert len(angles) > 10
        for path, value in [(p, mutation(get(p))) for p in circuits] + \
                           [(p, get(p) + 0.37) for p in angles]:
            code, err = replay(mutated(path, value))
            assert code == 1 and err.count("\n") == 1, (path, value, err)
            assert err.startswith(f"replay mismatch: clusters.{path[1]}.circuit: ")

        # a change everywhere prints REPLAY_LINES lines, then counts the rest
        report = json.loads(json.dumps(original))
        records = [record for cluster in report["clusters"] for record in cluster["trace"]]
        for record in records:
            record["distance"] += 0.5
        code, err = replay(report)
        lines = err.splitlines()
        assert code == 1 and len(lines) == cli.REPLAY_LINES + 1
        assert lines[0].startswith("replay mismatch: clusters.0.trace.0.distance: ")
        assert lines[-1] == f"replay mismatch: {len(records) - cli.REPLAY_LINES} more not shown"

    def test_replay_tolerates_kernel_roundoff(self, tmp_path, capsys, qft3_file, order_file,
                                              monkeypatch):
        # a unit phase of 2e-15 on every step's exponential moves each float
        # of a --trace report by roundoff alone, so it still replays unpatched
        args = ["approximate", qft3_file, "-m", "2", "-n", "2", "--ordering", order_file,
                "--starts", "20", "--seed", "7", "--trace", "-o"]
        plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
        assert run(args + [str(plain)]) == 0
        exp = approx.matrix_exp
        monkeypatch.setattr(approx, "matrix_exp", lambda A: exp(A) * np.exp(2e-15j))
        assert run(args + [str(patched)]) == 0
        monkeypatch.undo()
        assert plain.read_bytes() != patched.read_bytes()
        capsys.readouterr()
        assert run(["replay", str(patched)]) == 0
        assert capsys.readouterr().err.startswith("replay verified: ")


CONFIG = {"m": 2, "n": 2, "ordering": "lex_desc", "tol": 1e-10, "max_iter": 400,
          "starts": 1, "rng_seed": 0, "cluster_tol": 1e-4}


def replay_input(**fields) -> dict:
    """A report with a valid version, config and target; ``fields`` replace them."""
    return {"format_version": cli.REPORT_VERSION, "config": CONFIG, "clusters": [],
            "target": serialize.matrix_to_obj(np.eye(3)), **fields}


# each input exits 1 at the check it was written for, named by a substring
@pytest.mark.parametrize("command,content,expected", [
    ("replay", {"config": {}}, "malformed report: KeyError('format_version')"),
    ("replay", [1, 2], "malformed report: TypeError"),
    ("replay", {"format_version": cli.REPORT_VERSION, "config": CONFIG, "clusters": []},
     "malformed report: KeyError('target')"),
    ("replay", replay_input(config={**CONFIG, "ordering": 5}), "malformed state list"),
    ("replay", replay_input(target={**serialize.matrix_to_obj(np.eye(3)), "dim": [3]}),
     "declared dim must be an integer"),
    ("approximate", 5, "malformed state list"),
    ("approximate", [[2.7, 0], [0, 2], [1, 1]], "malformed state list"),
    *[("replay", replay_input(config={**CONFIG, key: value}), expected)
      for key, value, expected in [
          ("m", 2.9, "malformed run configuration: TypeError"),
          ("starts", True, "malformed run configuration: TypeError"),
          ("max_iter", 400.7, "malformed run configuration: TypeError"),
          ("tol", True, "tolerances must be numbers"),
          ("tol", "1e-10", "tolerances must be numbers"),
          ("cluster_tol", True, "tolerances must be numbers"),
          ("cluster_tol", "0.5", "tolerances must be numbers")]],
    ("lift", {"dim": 2, "entries": [[[True, False], [False, False]],
                                    [[False, False], [True, False]]]},
     "malformed matrix entries: True is not a number"),
    ("lift", {"dim": 2, "entries": [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]},
     "malformed matrix entries: int too large"),
    *[("replay", replay_input(config={**CONFIG, key: 10 ** 400}),
       "malformed run configuration: OverflowError") for key in ("tol", "cluster_tol")],
    # raw text: json.dumps cannot nest this deep
    ("replay", "[" * 200000 + "]" * 200000, "JSON nested too deeply"),
    ("lift", '{"a": ' * 100000 + "0" + "}" * 100000, "JSON nested too deeply"),
    ("approximate", "[" * 200000 + "]" * 200000, "JSON nested too deeply"),
], ids=["empty-config", "list-report", "no-target", "config-ordering-int",
        "target-dim-list", "ordering-file-int", "ordering-file-float",
        "config-m-float", "config-starts-bool", "config-max-iter-float",
        "config-tol-bool", "config-tol-str", "config-cluster-tol-bool",
        "config-cluster-tol-str", "matrix-entries-bool", "matrix-entries-huge-int",
        "config-tol-huge-int", "config-cluster-tol-huge-int", "report-deep", "matrix-deep",
        "ordering-file-deep"])
def test_malformed_input_exits_1(tmp_path, capsys, qft3_file, command, content, expected):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    if command == "replay":
        args = ["replay", str(path)]
    elif command == "lift":
        args = ["lift", str(path), "-m", "2", "-n", "2", "-o", str(tmp_path / "out.json")]
    else:
        args = ["approximate", qft3_file, "-m", "2", "-n", "2",
                "--ordering", "@" + str(path), "-o", str(tmp_path / "out.json")]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


class TestLiftCommand:
    def test_identity(self, tmp_path):
        src = tmp_path / "id2.json"
        serialize.save_matrix(src, np.eye(2))
        out = tmp_path / "out.json"
        assert run(["lift", str(src), "-m", "2", "-n", "2", "-o", str(out)]) == 0
        assert np.array_equal(serialize.load_matrix(out), np.eye(3))

    def test_reference_matrix(self, tmp_path, order_file):
        src = tmp_path / "s.json"
        serialize.save_matrix(src, golden.SA3)
        out = tmp_path / "u.json"
        assert run(["lift", str(src), "-m", "2", "-n", "2",
                    "--ordering", order_file, "-o", str(out)]) == 0
        assert np.max(np.abs(serialize.load_matrix(out) - golden.UA3)) < 1e-4

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "entries": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        "inf 0\n0 1\n",
    ], ids=["json-nan", "text-inf"])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, text):
        src = tmp_path / "s.txt"
        src.write_text(text)
        out = tmp_path / "u.json"
        assert run(["lift", str(src), "-m", "2", "-n", "2", "-o", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_square_entries_exit_2(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"entries": [[[1, 0], [0, 0], [0, 0]],
                                               [[0, 0], [1, 0], [0, 0]]]}))
        out = tmp_path / "u.json"
        assert run(["lift", str(src), "-m", "2", "-n", "2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: matrix entries must be square, got shape (2, 3)\n"
        assert not out.exists()

    def test_random_output_is_unitary(self, tmp_path):
        src = tmp_path / "s.json"
        out = tmp_path / "u.json"
        assert run(["sample", "-m", "3", "--seed", "8", "-o", str(src)]) == 0
        assert run(["lift", str(src), "-m", "3", "-n", "2", "-o", str(out)]) == 0
        U = serialize.load_matrix(out)
        assert np.linalg.norm(U.conj().T @ U - np.eye(len(U))) < 1e-9


class TestSampleCommand:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["sample", "-m", "3", "--seed", "42", "-o", str(a)]) == 0
        assert run(["sample", "-m", "3", "--seed", "42", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_unitary(self, tmp_path):
        path = tmp_path / "s.json"
        assert run(["sample", "-m", "4", "--seed", "0", "-o", str(path)]) == 0
        S = serialize.load_matrix(path)
        assert np.linalg.norm(S.conj().T @ S - np.eye(4)) < 1e-10


class TestDecomposeCommand:
    def test_identity_empty_plan(self, tmp_path):
        src = tmp_path / "id3.json"
        serialize.save_matrix(src, np.eye(3))
        out = tmp_path / "plan.json"
        assert run(["decompose", str(src), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["elements"] == []

    def test_reference_matrix_round_trip(self, tmp_path):
        src = tmp_path / "s.txt"
        src.write_text("0.68301+0.18301i 0.68301-0.18301i\n"
                       "0.68301-0.18301i -0.5+0.5i\n")
        out = tmp_path / "plan.json"
        assert run(["decompose", str(src), "-o", str(out)]) == 0
        plan = serialize.plan_from_obj(json.loads(out.read_text()))
        from optiq.circuit import reconstruct
        assert np.max(np.abs(reconstruct(plan) - golden.SA3)) < 1e-4

    def test_random_round_trip_checked_in_process(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "s.json"
        out = tmp_path / "plan.json"
        assert run(["sample", "-m", "5", "--seed", "77", "-o", str(src)]) == 0
        assert run(["decompose", str(src), "-o", str(out)]) == 0
        plan = serialize.plan_from_obj(json.loads(out.read_text()))
        from optiq.circuit import reconstruct
        S = serialize.load_matrix(src)
        assert np.linalg.norm(reconstruct(plan) - S) < 1e-9
        # a plan that does not reconstruct its input is reported, not written
        monkeypatch.setattr(cli, "reconstruct", lambda plan: reconstruct(plan) * np.exp(1e-6j))
        bad = tmp_path / "bad.json"
        capsys.readouterr()
        assert run(["decompose", str(src), "-o", str(bad)]) == 4
        assert capsys.readouterr().err.startswith("error: plan reconstruction differs from input by")
        assert not bad.exists()


def test_stdout_output(capsys):
    assert run(["sample", "-m", "2", "--seed", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dim"] == 2
