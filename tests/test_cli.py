import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikemine.cli import main
from spikemine.simulator import NetworkConfig


SRC = Path(__file__).resolve().parents[1] / "src"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports spikemine from the tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "in.csv"
    rows = []
    for k in range(30):
        base = 20 * k
        rows += [("A", base), ("B", base + 5), ("C", base + 10)]
    path.write_text("".join(f"{t},{ms / 1000}\n" for t, ms in rows))
    return path


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", str(out), "--seed", "7", "--duration", "2"])
    assert code == 0
    assert out.exists()
    manifest = tmp_path / "run.csv.manifest"
    text = manifest.read_text()
    assert "command = simulate" in text
    assert f"output_sha256 = {sha(out)}" in text
    assert "config.seed = 7" in text
    assert "spikes" in capsys.readouterr().out


def test_simulate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", str(a), "--seed", "3", "--duration", "2", "--pattern", "example1"]) == 0
    assert main(["simulate", str(b), "--seed", "3", "--duration", "2", "--pattern", "example1"]) == 0
    assert sha(a) == sha(b)


def test_mine_serial_finds_chain(tmp_path, tiny_csv, capsys):
    out = tmp_path / "res.txt"
    code = main([
        "mine", "serial", str(tiny_csv), "--out", str(out),
        "--threshold", "0.2", "--intervals", "4-6", "--max-size", "4",
    ])
    assert code == 0
    text = out.read_text()
    assert "A -(4,6]-> B -(4,6]-> C" in text
    assert (tmp_path / "res.txt.manifest").exists()


def test_mine_parallel_empty_result_still_succeeds(tmp_path, tiny_csv):
    out = tmp_path / "res.txt"
    code = main([
        "mine", "parallel", str(tiny_csv), "--out", str(out),
        "--threshold", "0.9", "--expiry", "1", "--max-size", "3",
    ])
    assert code == 0
    assert "level size=1" in out.read_text()


def test_mine_output_is_reproducible(tmp_path, tiny_csv):
    flags = ["--threshold", "0.2", "--intervals", "4-6", "--max-size", "3"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["mine", "serial", str(tiny_csv), "--out", str(a), *flags]) == 0
    assert main(["mine", "serial", str(tiny_csv), "--out", str(b), *flags]) == 0
    assert sha(a) == sha(b)


def test_mine_jobs_do_not_change_results(tmp_path, tiny_csv):
    flags = ["--threshold", "0.2", "--intervals", "0-3,4-6", "--max-size", "3"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["mine", "serial", str(tiny_csv), "--out", str(a), "--jobs", "1", *flags]) == 0
    assert main(["mine", "serial", str(tiny_csv), "--out", str(b), "--jobs", "2", *flags]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "A -(4,6]-> B -(4,6]-> C" in a.read_text()
    assert "jobs = 2\n" in (tmp_path / "b.txt.manifest").read_text()


@pytest.fixture
def synfire_csv(tmp_path):
    path = tmp_path / "group.csv"
    rows = []
    for k in range(30):
        base = 20 * k
        rows += [("A", base), ("B", base + 5), ("C", base + 5), ("D", base + 10)]
    path.write_text("".join(f"{t},{ms / 1000}\n" for t, ms in rows))
    return path


def test_mine_synfire_flow(tmp_path, synfire_csv):
    out = tmp_path / "res.txt"
    code = main([
        "mine", "synfire", str(synfire_csv), "--out", str(out),
        "--threshold", "0.2", "--intervals", "4-6", "--expiry", "1",
    ])
    assert code == 0
    assert "[B C]" in out.read_text()


def test_synfire_composite_label_clash_exits_2(tmp_path, capsys):
    # the input has A, B and a real "[A B]": the rewrite would merge its
    # composites of {A B} with those events
    csv = tmp_path / "clash.csv"
    csv.write_text("A,0.010\nB,0.010\nC,0.013\nA,0.030\nB,0.030\nC,0.033\n[A B],0.050\n[A B],0.070\n")
    out = tmp_path / "clash.episodes"
    argv = ["mine", "synfire", str(csv), "--expiry", "1", "--intervals", "0-2,2-4", "--min-count", "1",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: synfire composite label '[A B]' is already a label of the stream\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clash.csv"]


def test_mining_loads_neither_numpy_nor_the_process_pool(tmp_path, tiny_csv, synfire_csv):
    """A cold ``mine`` pays for no simulator arrays and no worker pool."""
    runs = [
        ["mine", "serial", str(tiny_csv), "--out", str(tmp_path / "s.txt"),
         "--threshold", "0.2", "--intervals", "4-6", "--jobs", "2"],
        ["mine", "parallel", str(tiny_csv), "--out", str(tmp_path / "p.txt"),
         "--threshold", "0.2", "--expiry", "1", "--jobs", "2"],
        ["mine", "synfire", str(synfire_csv), "--out", str(tmp_path / "f.txt"),
         "--threshold", "0.2", "--intervals", "4-6", "--expiry", "1", "--jobs", "2"],
    ]
    out = fresh_python("-c", f"""
import sys
from spikemine.cli import main
assert [main(argv) for argv in {runs!r}] == [0, 0, 0]
print(sorted(m for m in ("numpy", "concurrent.futures") if m in sys.modules))
""")
    assert out.splitlines()[-1] == "[]"
    assert "[B C]" in (tmp_path / "f.txt").read_text()


def test_cold_simulate_matches_in_process(tmp_path):
    """``simulate`` loads numpy when called: a fresh interpreter writes the same CSV."""
    flags = ["--seed", "3", "--duration", "2", "--pattern", "example1"]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    fresh_python("-m", "spikemine.cli", "simulate", str(cold), *flags)
    assert main(["simulate", str(warm), *flags]) == 0
    assert cold.read_bytes() == warm.read_bytes()


def test_usage_errors_exit_1(tiny_csv, tmp_path):
    assert main(["mine", "serial", str(tiny_csv)]) == 1  # --intervals missing
    assert main(["mine", "parallel", str(tiny_csv)]) == 1  # --expiry missing
    assert main(["mine", "serial", str(tiny_csv), "--intervals", "4-6,5-8"]) == 1  # overlap
    assert main(["mine", "serial", str(tiny_csv), "--intervals", "banana"]) == 1
    assert main(["mine", "parallel", str(tiny_csv), "--expiry", "0"]) == 1
    assert main(["mine", "serial", str(tiny_csv), "--intervals", "4-6", "--tick", "0.0003"]) == 1


def test_threshold_0_mines_the_episodes_that_occur(tmp_path, tiny_csv):
    # a frequent episode occurs at least once: threshold 0 is a floor of 1
    flags = ["--intervals", "0-3,4-6", "--max-size", "3"]
    zero, one = tmp_path / "zero.txt", tmp_path / "one.txt"
    assert main(["mine", "serial", str(tiny_csv), "--out", str(zero), "--threshold", "0", *flags]) == 0
    assert main(["mine", "serial", str(tiny_csv), "--out", str(one), "--min-count", "1", *flags]) == 0
    assert zero.read_bytes() == one.read_bytes()
    assert " : 0\n" not in zero.read_text()
    assert "A -(4,6]-> B -(4,6]-> C : 30\n" in zero.read_text()


def test_min_count_0_exits_1(tmp_path, tiny_csv, capsys):
    out = tmp_path / "res.txt"
    argv = ["mine", "serial", str(tiny_csv), "--out", str(out), "--intervals", "4-6", "--min-count", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: min_count must be >= 1"]
    assert not out.exists()


def exhausts_memory(*_, **__):
    raise MemoryError


@pytest.mark.parametrize(
    "name,argv,options",
    [("mine_synfire", ["mine", "synfire", "{csv}", "--out", "{out}", "--intervals", "4-6",
                       "--expiry", "1"],
      ["--threshold", "--min-count", "--max-size"]),
     ("simulate", ["simulate", "{out}"], ["--duration"])],
    ids=["mine", "simulate"],
)
def test_a_run_out_of_memory_exits_1_naming_its_size_options(
    tmp_path, synfire_csv, capsys, monkeypatch, name, argv, options
):
    import spikemine.cli as cli_mod

    monkeypatch.setattr(cli_mod, name, exhausts_memory)
    out = tmp_path / "out.txt"
    assert main([a.format(csv=synfire_csv, out=out) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")
    assert all(option in err[0] for option in options)
    assert not out.exists() and not Path(f"{out}.manifest").exists()


def test_missing_input_exits_2(tmp_path):
    missing = tmp_path / "nope.csv"
    assert main(["mine", "serial", str(missing), "--intervals", "4-6"]) == 2


@pytest.mark.parametrize(
    "name,out",
    [("run.episodes", None), ("run.csv", "sub/../run.csv"), ("run.csv.manifest", "run.csv")],
    ids=["default-out", "out", "out-manifest"],
)
def test_mine_refuses_to_overwrite_its_input(tmp_path, tiny_csv, capsys, name, out):
    source = tmp_path / name
    source.write_bytes(tiny_csv.read_bytes())
    (tmp_path / "sub").mkdir()
    argv = ["mine", "serial", str(source), "--intervals", "4-5", "--min-count", "1"]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == 1
    assert "would overwrite the input" in capsys.readouterr().err
    assert source.read_bytes() == tiny_csv.read_bytes()


@pytest.mark.parametrize(
    "name,out", [("net.cfg", "sub/../net.cfg"), ("net.cfg.manifest", "net.cfg")], ids=["out", "out-manifest"]
)
def test_simulate_refuses_to_overwrite_its_config(tmp_path, capsys, monkeypatch, name, out):
    import spikemine.cli as cli_mod

    monkeypatch.setattr(cli_mod, "simulate", lambda config: pytest.fail("simulated"))
    config = tmp_path / name
    config.write_bytes(b"duration = 0.5\nseed = 3\n")
    (tmp_path / "sub").mkdir()
    assert main(["simulate", str(tmp_path / out), "--config", str(config)]) == 1
    assert f"error: output {tmp_path / out} would overwrite the input {config}" in capsys.readouterr().err
    assert config.read_bytes() == b"duration = 0.5\nseed = 3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "sub"])


@pytest.mark.parametrize("name", ["", "/"])
def test_mine_input_without_a_file_name_exits_1(capsys, name):
    assert main(["mine", "serial", name, "--intervals", "4-6"]) == 1
    assert "give --out" in capsys.readouterr().err


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("A,-1\n")
    assert main(["mine", "serial", str(bad), "--intervals", "4-6"]) == 2


def test_mine_track_exits_1(tiny_csv, capsys):
    # the results file never shows occurrences, so mine has no --track
    argv = ["mine", "serial", str(tiny_csv), "--intervals", "4-6", "--track"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "--track" in capsys.readouterr().err
    assert not tiny_csv.with_suffix(".episodes").exists()


@pytest.mark.parametrize(
    "out,named,made",
    [("res", "res", "res"), ("res", "res.manifest", "res.manifest"),
     ("missing/res", "missing/res", None), ("/", "/", None)],
    ids=["out-is-a-directory", "manifest-is-a-directory", "no-parent-directory", "no-file-name"],
)
def test_mine_refuses_an_unwritable_output_before_parsing(tmp_path, capsys, out, named, made):
    bad = tmp_path / "bad.csv"
    bad.write_text("A,-1\n")  # a run that parsed first would report line 1
    if made:
        (tmp_path / made).mkdir()
    assert main(["mine", "serial", str(bad), "--intervals", "4-6", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert f"error: output {tmp_path / named} " in err
    assert f"{bad}:1:" not in err


@pytest.mark.parametrize(
    "out,named,made",
    [("d.csv", "d.csv", "d.csv"), ("d.csv", "d.csv.manifest", "d.csv.manifest"),
     ("missing/d.csv", "missing/d.csv", None), ("/", "/", None)],
    ids=["out-is-a-directory", "manifest-is-a-directory", "no-parent-directory", "no-file-name"],
)
def test_simulate_refuses_an_unwritable_output_before_simulating(
    tmp_path, capsys, monkeypatch, out, named, made
):
    import spikemine.cli as cli_mod

    monkeypatch.setattr(cli_mod, "simulate", lambda config: pytest.fail("simulated"))
    if made:
        (tmp_path / made).mkdir()
    assert main(["simulate", str(tmp_path / out)]) == 2
    assert f"error: output {tmp_path / named} " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ([made] if made else [])


# 4402 significant digits: more than Python prints of one integer
HUGE_DIGITS = "0.001" + "0" * 4400 + "1"


@pytest.mark.parametrize(
    "content",
    [b"A,0.001\nB,nan\n", b"A,0.001\nB,inf\n", b"A,0.001\nB,1e999999999\n",
     b"A,0.001\n\xff,0.002\n", b"A,0.001\nB," + HUGE_DIGITS.encode() + b"\n"],
    ids=["nan", "inf", "huge-exponent", "non-utf8", "huge-digits"],
)
def test_bad_spike_values_exit_2_with_line(tmp_path, capsys, content):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    assert main(["mine", "serial", str(bad), "--intervals", "4-6"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")


@pytest.mark.parametrize("tick", ["abc", "0", pytest.param(HUGE_DIGITS, id="huge-digits")])
def test_bad_tick_exits_1(tiny_csv, capsys, tick):
    assert main(["mine", "serial", str(tiny_csv), "--intervals", "4-6", "--tick", tick]) == 1
    assert capsys.readouterr().err.startswith("error: bad --tick value")
    assert not tiny_csv.with_suffix(".episodes").exists()


@pytest.mark.parametrize(
    "kind,flag,value",
    [("serial", "--intervals", "0-1e999999999"), ("serial", "--intervals", "0-1e300000"),
     ("parallel", "--expiry", "1e999999999"),
     pytest.param("serial", "--intervals", f"0-{HUGE_DIGITS}", id="serial-intervals-huge-digits"),
     pytest.param("parallel", "--expiry", HUGE_DIGITS, id="parallel-expiry-huge-digits")],
)
def test_huge_millisecond_values_exit_1(tiny_csv, tmp_path, capsys, kind, flag, value):
    out = tmp_path / "res.txt"
    t0 = time.perf_counter()
    assert main(["mine", kind, str(tiny_csv), "--out", str(out), flag, value]) == 1
    assert time.perf_counter() - t0 < 5
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: bad millisecond value")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "tiny.csv").write_text("A,0.001\nB,0.005\nA,0.011\nB,0.015\nC,0.016\n")
    return path


csv_lines = st.tuples(
    st.sampled_from(["A", "B", " C ", "", "#", "\u00e9"]),
    st.sampled_from([",", ",", ";", ",,"]),
    st.from_regex(r"-?[0-9]{0,3}(\.[0-9]{0,4})?(e-?[0-9]{1,4})?|nan|inf", fullmatch=True),
).map("".join)
spike_csv = st.binary(max_size=200) | st.lists(csv_lines, max_size=12).map(
    lambda lines: "\n".join(lines).encode()
)


def run(argv):
    """``main``'s return value, or the code of the SystemExit argparse raises,
    and the ``error:`` lines the run printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


def one_short_error(code, errors, *echoed):
    """A refused run prints one ``error:`` line: a short message that may echo
    one of ``echoed`` (an input text), and no number built from it."""
    limit = 100 + max(len(repr(text)) for text in echoed)
    return len(errors) == (code != 0) and all(len(line) <= limit for line in errors)


@settings(max_examples=150, deadline=None)
@given(content=spike_csv)
def test_fuzz_spike_csv_exits_0_or_2(fuzz_dir, content):
    path = fuzz_dir / "fuzz.csv"
    path.write_bytes(content)
    argv = ["mine", "serial", str(path), "--out", str(fuzz_dir / "fuzz.out"),
            "--intervals", "0-4,4-6", "--min-count", "1", "--max-size", "3"]
    assert run(argv)[0] in (0, 2)


ms_value = st.from_regex(r"-?[0-9]{0,3}(\.[0-9]{0,3})?(e-?[0-9]{1,3})?", fullmatch=True)
ms_windows = st.lists(
    st.tuples(ms_value, st.just("-"), ms_value).map("".join), min_size=1, max_size=3
).map(",".join)


def option_text(*valid):
    """Half the time one of ``valid``, else arbitrary or number-like text."""
    noise = st.text(max_size=12) | ms_value | ms_windows
    return st.booleans().flatmap(lambda pick: st.sampled_from(valid) if pick else noise)


@settings(max_examples=150, deadline=None)
@given(
    tick=option_text("0.001", "0.0005"),
    intervals=option_text("4-6", "0-2,2-4"),
    expiry=option_text("1", "2"),
)
def test_fuzz_option_text_exits_0_or_1(fuzz_dir, tick, intervals, expiry):
    argv = ["mine", "synfire", str(fuzz_dir / "tiny.csv"), "--out", str(fuzz_dir / "opt.out"),
            "--min-count", "1", "--max-size", "3",
            f"--tick={tick}", f"--intervals={intervals}", f"--expiry={expiry}"]
    code, errors = run(argv)
    assert code in (0, 1)
    assert one_short_error(code, errors, tick, intervals, expiry), errors


def test_significance_max_size_below_1_exits_1(tmp_path, monkeypatch):
    import spikemine.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_significance", lambda **_: pytest.fail("simulated"))
    out_dir = tmp_path / "sig"
    assert main(["significance", str(out_dir), "--max-size", "0"]) == 1
    assert not out_dir.exists()


def test_significance_max_size_beyond_chain_exits_1(tmp_path, monkeypatch, capsys):
    import spikemine.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_significance", lambda **_: pytest.fail("simulated"))
    out_dir = tmp_path / "sig"
    assert main(["significance", str(out_dir), "--max-size", "11"]) == 1
    assert "--max-size must be from 1 to 10, the embedded chain length" in capsys.readouterr().err
    assert not out_dir.exists()
    assert main(["significance", str(out_dir), "--scale", "paper", "--max-size", "11"]) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("blocked", ["txt", "csv", "manifest"])
def test_significance_output_that_is_a_directory_exits_2_before_simulating(
        tmp_path, monkeypatch, capsys, blocked):
    import spikemine.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_significance", lambda **_: pytest.fail("simulated"))
    out_dir = tmp_path / "sig"
    (out_dir / f"significance.{blocked}").mkdir(parents=True)
    assert main(["significance", str(out_dir), "--max-size", "2"]) == 2
    assert f"significance.{blocked} is a directory" in capsys.readouterr().err
    assert [p.name for p in out_dir.iterdir()] == [f"significance.{blocked}"]


@pytest.mark.parametrize(
    "scale_argv, max_size",
    [([], 6), (["--max-size", "4"], 4),
     (["--scale", "paper"], 10), (["--scale", "paper", "--max-size", "4"], 4)],
    ids=["desk", "desk-4", "paper", "paper-4"],
)
def test_significance_max_size_applies_at_both_scales(tmp_path, monkeypatch, scale_argv, max_size):
    import spikemine.cli as cli_mod
    from spikemine.significance import SignificanceReport

    received = []

    def record(**params):  # simulates nothing
        received.append(params["max_size"])
        return SignificanceReport((1,), (1.0,), (1.0,), 1, 1)

    monkeypatch.setattr(cli_mod, "run_significance", record)
    out_dir = tmp_path / "sig"
    assert main(["significance", str(out_dir), *scale_argv]) == 0
    assert received == [max_size]
    assert f"max_size = {max_size}\n" in (out_dir / "significance.manifest").read_text()


def test_config_edges_reach_the_run(tmp_path, monkeypatch):
    import spikemine.cli as cli_mod

    runs = []
    real = cli_mod.simulate
    monkeypatch.setattr(cli_mod, "simulate", lambda config: runs.append(config) or real(config))
    cfg = tmp_path / "net.cfg"
    cfg.write_text("num_neurons = 4\nedge = A,B,11,5\nedge = C,D,6.41,3\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--config", str(cfg), "--duration", "1"]) == 0
    assert [(e.src, e.dst, e.delay_steps) for e in runs[0].strong_edges] == [(0, 1, 5), (2, 3, 3)]
    manifest = (tmp_path / "o.csv.manifest").read_text()
    assert "config.edge.0 = A,B,11.0,5\n" in manifest
    assert "config.edge.1 = C,D,6.41,3\n" in manifest
    assert "pattern = none\n" in manifest
    # an explicit --pattern replaces the config's edges
    assert main(["simulate", str(out), "--config", str(cfg), "--duration", "1",
                 "--pattern", "chain-2"]) == 0
    assert [(e.src, e.dst) for e in runs[1].strong_edges] == [(0, 1)]
    manifest = (tmp_path / "o.csv.manifest").read_text()
    assert "config.edge.0 = A,B,11.0,5\n" in manifest and "config.edge.1" not in manifest
    assert main(["simulate", str(out), "--config", str(cfg), "--duration", "1",
                 "--pattern", "none"]) == 0
    assert runs[2].strong_edges == ()


@pytest.mark.parametrize("command", ["mine", "significance"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_1_exit_1(tmp_path, tiny_csv, capsys, monkeypatch, command, jobs):
    import spikemine.cli as cli_mod

    for name in ("mine_serial", "run_significance"):
        monkeypatch.setattr(cli_mod, name, lambda *_, **__: pytest.fail("ran"))
    out = tmp_path / "out"
    argv = (["mine", "serial", str(tiny_csv), "--intervals", "4-6", "--out", str(out)]
            if command == "mine" else ["significance", str(out)])
    assert main(argv + ["--jobs", jobs]) == 1
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_edge_labels_past_26_neurons(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("num_neurons = 30\nedge = N3,N5,11.0,5\nedge = 7,N8,6.41,3\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--config", str(cfg), "--duration", "1"]) == 0
    manifest = (tmp_path / "o.csv.manifest").read_text()
    assert "config.edge.0 = N3,N5,11.0,5\n" in manifest
    assert "config.edge.1 = N7,N8,6.41,3\n" in manifest
    cfg.write_text("num_neurons = 30\nedge = N3,N30,11.0,5\n")
    assert main(["simulate", str(out), "--config", str(cfg), "--duration", "1"]) == 3
    assert "net.cfg:2: neuron 'N30' is not among the 30 network labels" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["seed = -1", "weight_seed = -5"])
def test_negative_config_seed_exits_3_with_line(tmp_path, capsys, line):
    cfg = tmp_path / "net.cfg"
    cfg.write_text(f"num_neurons = 3\n{line}\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--config", str(cfg)]) == 3
    assert "net.cfg:2: seed and weight_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_simulate_seed_exits_3(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--seed", "-3", "--duration", "1"]) == 3
    assert "seed and weight_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_significance_seed_exits_1(tmp_path, capsys, monkeypatch):
    import spikemine.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_significance", lambda *_, **__: pytest.fail("ran"))
    out = tmp_path / "sig"
    assert main(["significance", str(out), "--seed", "-5000"]) == 1
    assert "--seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_3(tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("nonsense = 4\n")
    assert main(["simulate", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 3


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_duration_exits_3(tmp_path, capsys, value):
    assert main(["simulate", str(tmp_path / "o.csv"), "--duration", value]) == 3
    assert "duration must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "delta_t = inf", "weight_bound = nan", "rate_offset = nan", "lambda_max = nan",
        "strong_weight = nan", "edge = A,B,1,nan", "edge = A,B,nan,5",
    ],
)
def test_non_finite_config_exits_3_with_line(tmp_path, capsys, line):
    cfg = tmp_path / "net.cfg"
    cfg.write_text(f"num_neurons = 3\n{line}\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--config", str(cfg), "--duration", "1"]) == 3
    assert f"{cfg}:2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["weight_bound = 1e308", "weight_bound = -0", "weight_bound = -0.5"])
def test_bad_weight_bound_exits_3_with_line(tmp_path, capsys, line):
    # 1e308 would overflow numpy's draw from (-bound, bound), and -0 passes
    # a plain ``< 0`` check yet makes that range negative
    cfg = tmp_path / "net.cfg"
    cfg.write_text(f"num_neurons = 3\n{line}\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--config", str(cfg), "--duration", "1"]) == 3
    assert f"{cfg}:2: weight_bound must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bound", ["0", "8.9e307"])
def test_weight_bound_edges_simulate(tmp_path, bound):
    cfg = tmp_path / "net.cfg"
    cfg.write_text(f"num_neurons = 3\nweight_bound = {bound}\n")
    assert main(["simulate", str(tmp_path / "o.csv"), "--config", str(cfg), "--duration", "0.1"]) == 0


def test_config_that_is_not_utf8_exits_3_with_line(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_bytes(b"num_neurons = 3\nrate_mode = \xff\n")
    assert main(["simulate", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 3
    assert f"{cfg}:2: not UTF-8 text" in capsys.readouterr().err


config_keys = [f.name for f in fields(NetworkConfig) if f.name != "strong_edges"] + ["edge"]
# no negative exponent: with the closing ``duration`` line below, delta_t >= 1e-4
# keeps a run to 100 steps, and num_neurons stays below 1000
config_value = st.sampled_from(["-0", "nan", "inf", "1e308", "network", "uniform", "A,B,11,5", "B,C,1,7.5"]) | (
    st.from_regex(r"[0-9]{1,2}(\.[0-9]{1,3})?", fullmatch=True)
) | st.from_regex(r"-?[0-9]{0,3}(\.[0-9]{0,4})?(e[0-9]{1,3})?", fullmatch=True)
config_lines = st.tuples(
    st.sampled_from(config_keys + ["", "#", " bogus "]), st.sampled_from([" = ", " = ", "=", " ", "=="]),
    config_value,
).map("".join)
config_text = st.binary(max_size=200) | st.lists(config_lines, max_size=6).map(
    lambda lines: "\n".join(lines).encode()
)


@settings(max_examples=150, deadline=None)
@given(content=config_text, pattern=st.sampled_from([None, "none", "example1", "example3", "chain-4", "ring"]))
@example(content=b"delta_t = 50", pattern=None)  # 0.01 s is no step of 50 s
def test_fuzz_config_exits_0_or_3(fuzz_dir, content, pattern):
    path = fuzz_dir / "fuzz.cfg"
    # later lines win, so every run is short, far below MAX_GRID_CELLS
    path.write_bytes(content + b"\nduration = 0.01\n")
    out = fuzz_dir / "fuzz.sim.csv"
    code, errors = run(["simulate", str(out), "--config", str(path)]
                       + (["--pattern", pattern] if pattern else []))
    assert code in (0, 3)
    assert one_short_error(code, errors, str(path), *content.splitlines()), errors
    if code == 0:  # a run of no step is refused
        manifest = dict(line.split(" = ", 1) for line in
                        Path(f"{out}.manifest").read_text().splitlines()[1:])
        assert round(float(manifest["config.duration"]) / float(manifest["config.delta_t"])) >= 1


@pytest.mark.parametrize("value", ["1e300", "1e7"])
def test_oversized_duration_exits_3(tmp_path, capsys, value):
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--duration", value]) == 3
    assert "MAX_GRID_CELLS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_oversized_config_duration_exits_3_with_line(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("num_neurons = 3\nduration = 1e300\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--config", str(cfg)]) == 3
    assert f"{cfg}:2:" in capsys.readouterr().err
    assert not out.exists()


def test_zero_step_duration_exits_3(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "o.csv"), "--duration", "0.0004"]) == 3
    assert "duration / delta_t = 0.4 rounds to 0 steps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_zero_step_config_exits_3_with_line(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("delta_t = 10\nduration = 1\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(out), "--config", str(cfg)]) == 3
    assert f"{cfg}:2: duration / delta_t = 0.1 rounds to 0 steps" in capsys.readouterr().err
    assert not out.exists()


def test_huge_config_tick_message_is_short(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("delta_t = 1e300\nduration = 1e301\nedge = A,B,11,5\n")
    assert main(["simulate", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 3
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"error: {cfg}:3: edge delay: 5 ms is not a whole number of ticks at 1e+300 s/tick"


@pytest.mark.parametrize(
    "tick,named", [("1e400", "4 ms is not a whole number of ticks at 1e+400 s/tick"),
                   ("-1e400", "must be positive, got -1e+400")],
    ids=["1e400", "-1e400"],
)
def test_huge_tick_message_is_short(tiny_csv, capsys, tick, named):
    assert main(["mine", "serial", str(tiny_csv), "--intervals", "4-6", f"--tick={tick}"]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert named in err and len(err) < 80


@pytest.mark.parametrize(
    "intervals,message",
    [("0--1e70", "bad interval '0--1e70', LOW must be below HIGH"),
     ("0-1e70,1-2", "intervals '0-1e70,1-2' overlap")],
    ids=["inverted", "overlapping"],
)
def test_bad_windows_are_named_by_their_text(tiny_csv, capsys, intervals, message):
    # in ticks, the first window's bound would run to 74 digits
    assert main(["mine", "serial", str(tiny_csv), f"--intervals={intervals}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_pattern_exits_3(tmp_path):
    assert main(["simulate", str(tmp_path / "o.csv"), "--pattern", "spiral"]) == 3


def test_significance_desk_tiny(tmp_path, monkeypatch):
    # route the desk scale through a tiny parameter set to keep the test quick
    import spikemine.cli as cli_mod

    real = cli_mod.run_significance

    def tiny(jobs, seed0, **params):
        params.update(weight_seeds=1, noise_runs_per_seed=1, random_rate_runs=1,
                      patterned_runs=1, max_size=2)
        from spikemine import NetworkConfig
        return real(NetworkConfig(duration=3.0), jobs=jobs, seed0=seed0, **params)

    monkeypatch.setattr(cli_mod, "run_significance", tiny)
    out_dir = tmp_path / "sig"
    assert main(["significance", str(out_dir), "--max-size", "2"]) == 0
    assert (out_dir / "significance.txt").exists()
    assert (out_dir / "significance.csv").exists()
    assert (out_dir / "significance.manifest").exists()
    csv = (out_dir / "significance.csv").read_text().strip().splitlines()
    assert len(csv) == 1 + 2  # header + one row per size
