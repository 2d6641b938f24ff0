import json
import subprocess
import sys

import pytest

from conftest import C_60_70, CIRCUIT_DIR, GOLDEN_DIR, REPO_ROOT, child_env
from qubit_spheres import cli, gates, records
from qubit_spheres.hopf import sphere_set
from qubit_spheres.state import concurrence_det

ENTANGLER_CIRC = str(CIRCUIT_DIR / "entangle_60_70.circ")
Y90_CIRC = str(CIRCUIT_DIR / "entangle_60_70_y90.circ")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_explicit_state_uniform_product(capsys):
    code, out, _ = run_cli(capsys, "map", "--state", "0.5,0,0.5,0,0.5,0,0.5,0")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["concurrence"] <= 1e-12


def test_map_state_near_b_zero(capsys):
    # |p| = 2e-160: its squares are subnormal, and t must still be a unit axis.
    code, out, err = run_cli(capsys, "map", "--state", "1,0,0,0,0,1e-160,0,0")
    assert code == 0, err
    spheres = json.loads(out)["records"][0]["assignments"]["A"]
    assert spheres["base"]["b"] == 2e-160
    assert spheres["entanglement"]["chi_deg"] == 0.0


STATE_ERRORS = [
    ("1,2,3", "ValueError", "--state: needs 8 comma-separated reals, got 3"),
    ("nan,0,0,0,0,0,0,0", "ValueError", "--state: field 1 is nan"),
    ("1,0,0,-inf,0,0,0,0", "ValueError", "--state: field 4 is -inf"),
    ("1,0,0,x,0,0,0,0", "ValueError", "--state: field 4 is not a real number: 'x'"),
    ("1e200,0,0,0,0,0,0,0", "NotNormalizable", "--state: amplitude norm inf is not finite"),
    ("0,0,0,0,0,0,0,0", "NotNormalizable",
     "--state: amplitude norm 0.0 too small to normalize"),
]


@pytest.mark.parametrize("state,error_class,message", STATE_ERRORS,
                         ids=[f"{state}-{message}" for state, _, message in STATE_ERRORS])
def test_map_state_errors_name_the_field(capsys, state, error_class, message):
    code, out, err = run_cli(capsys, "map", f"--state={state}")
    assert (code, out) == (2, "")
    assert err == f"error: {error_class}: {message}\n"


def test_run_final_only(capsys):
    code, out, _ = run_cli(capsys, "run", ENTANGLER_CIRC)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["gates"] == ["rx A 60", "cry A B 70"]
    assert len(doc["records"]) == 1
    assert doc["records"][0]["step"] == 2
    assert doc["records"][0]["concurrence"] == pytest.approx(C_60_70, abs=1e-12)


def test_run_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.circ"
    for text, message in (("rx A sixty\n", "BadAngle: line 1: bad angle 'sixty'"),
                          ("rx A inf\n", "BadAngle: line 1: angle 'inf' is not finite"),
                          ("foo A\n", "UnknownGate: line 1: unknown gate 'foo'")):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert err == f"error: {message}\n"


def test_run_reads_a_circuit_file_with_a_byte_order_mark(tmp_path, capsys):
    plain, bom = tmp_path / "plain.circ", tmp_path / "bom.circ"
    plain.write_bytes(b"rx A 60\ncry A B 70\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, out, err = run_cli(capsys, "run", str(bom), "--steps")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "run", str(plain), "--steps")[1]


def test_run_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/file.circ")
    assert code == 2
    assert "error:" in err


def test_render_circuit_input(tmp_path, capsys):
    out_path = tmp_path / "circ.svg"
    code, _, _ = run_cli(capsys, "render", "--circuit", ENTANGLER_CIRC,
                         "--out", str(out_path), "--assignment", "A")
    assert code == 0
    assert "chi=35.0000deg" in out_path.read_text()


def test_render_io_failure_exits_2(capsys):
    code, _, err = run_cli(capsys, "render", "--bell", "phi+",
                           "--out", "/nonexistent-dir/x.svg")
    assert code == 2
    assert "error:" in err


def test_verify_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "5", "--samples", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["seed"] == 5


def test_verify_zero_samples_usage_error(capsys):
    for option, value in (("--samples", "0"), ("--seed", "-1")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", option, value])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


def test_verify_too_many_samples_exits_2(capsys):
    # 10^15 states need 56.8 PiB, so the allocation fails before a page is touched.
    code, out, err = run_cli(capsys, "verify", "--samples", str(10**15))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "MemoryError" in err


def test_usage_error_exit_code(tmp_path, capsys):
    # No state source: argparse's error line lists the sources.
    svg = tmp_path / "x.svg"
    for argv, source in ((["map"], "--basis"), (["render", "--out", str(svg)], "--circuit")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert source in capsys.readouterr().err.splitlines()[-1]
    assert not svg.exists()


def test_state_value_may_start_with_a_minus_sign(tmp_path, capsys):
    value = "-0.5,0,0.5,0,0.5,0,0.5,0"
    code, out, _ = run_cli(capsys, "map", "--state", value)
    assert code == 0
    assert out == run_cli(capsys, "map", f"--state={value}")[1]
    p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
    assert run_cli(capsys, "render", "--state", value, "--out", str(p1))[0] == 0
    assert run_cli(capsys, "render", f"--state={value}", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli.main(["map", "--state"])
    assert exc.value.code == 2


def _python(*args, importtime=False):
    """`python [-X importtime] ARGS` with the package's src on the path, from the repo root."""
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run([sys.executable, *flags, *args],
                          capture_output=True, text=True, env=child_env(), cwd=REPO_ROOT)


def _imported(stderr: str) -> set[str]:
    """Module names in `-X importtime` output (lines "import time: self | cum | name")."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


# Each call's package modules besides cli: none that it does not run, so none
# that it compiles for nothing, and numpy in none of them.
IMPORT_SETS = [
    (["map", "--bell", "phi+"], 0, {"state", "hopf", "records", "jsonfmt"}),
    (["run", ENTANGLER_CIRC, "--steps"], 0, {"state", "hopf", "gates", "records", "jsonfmt"}),
    (["render", "--bell", "phi+", "--out", "{tmp}/bell.svg"], 0,
     {"state", "hopf", "gates", "render"}),
    # A malformed state fails at parsing, before a module that would map it loads.
    (["map", "--state=nan,0,0,0,0,0,0,0"], 2, {"state"}),
    (["map", "--state=1e200,0,0,0,0,0,0,0"], 2, {"state"}),
]


@pytest.mark.parametrize("argv,code,modules", IMPORT_SETS,
                         ids=[f"argv{i}" for i in range(len(IMPORT_SETS))])
def test_commands_without_arrays_do_not_import_numpy(tmp_path, argv, code, modules):
    proc = _python("-m", "qubit_spheres", *(arg.format(tmp=tmp_path) for arg in argv),
                   importtime=True)
    assert proc.returncode == code
    names = _imported(proc.stderr)
    assert {n for n in names if n.startswith("qubit_spheres.")} == {
        f"qubit_spheres.{m}" for m in ("cli", *modules)}
    assert sorted(n for n in names if n.split(".")[0] == "numpy") == []
    assert "dataclasses" not in names
    errors = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
    assert len(errors) == (code != 0) and all(line.startswith("error: ") for line in errors)


def test_verify_loads_numpy_on_demand():
    proc = _python("-m", "qubit_spheres", "verify", "--samples", "10", importtime=True)
    assert proc.returncode == 0
    assert "numpy" in _imported(proc.stderr)
    # A bare import loads no submodule; `import *` still yields every name.
    proc = _python("-c", "import sys, qubit_spheres\n"
                         "assert 'numpy' not in sys.modules\n"
                         "loaded = [m for m in sys.modules if m.startswith('qubit_spheres.')]\n"
                         "assert loaded == [], loaded\n"
                         "from qubit_spheres import *\n"
                         "assert set(qubit_spheres.__all__) <= set(globals())\n"
                         "assert isinstance(run_suite(seed=1, samples=5), VerificationReport)\n")
    assert proc.returncode == 0, proc.stderr


# (sphere_set calls, concurrence_det calls); a test id names the first.
@pytest.mark.parametrize("argv,calls", [
    (["render", "--circuit", Y90_CIRC, "--out", "{tmp}/y90.svg"], (2, 0)),
    (["run", Y90_CIRC], (2, 1)),
    (["run", Y90_CIRC, "--steps"], (2 * 4, 4)),   # 3 gates: 4 steps, 2 sets each
    (["map", "--bell", "phi+", "--assignment", "A"], (1, 1)),
    (["render", "--bell", "phi+", "--out", "{tmp}/bell.svg"], (2, 0)),
], ids=lambda v: str(v[0]) if isinstance(v, tuple) else None)
def test_each_command_maps_only_what_it_prints(tmp_path, capsys, monkeypatch, argv, calls):
    counted = {sphere_set: [], concurrence_det: []}

    def counting(f):
        def count(*args):
            counted[f].append(args)
            return f(*args)
        return count

    # Every name they are looked up by: a step's accessors in gates, a record's in records.
    for module in (gates, records):
        for f in counted:
            monkeypatch.setattr(module, f.__name__, counting(f))
    code, _, _ = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 0
    assert tuple(map(len, counted.values())) == calls


# -- golden files -------------------------------------------------------------

GOLDEN_CASES = [
    ("map_bell_phi_plus.json", ["map", "--bell", "phi+"]),
    ("run_entangle_60_70.json", ["run", ENTANGLER_CIRC, "--steps"]),
    ("map_state.json", ["map", "--state=0.6,-0,0,0.3,-0.5,0.2,0.1,-0.4"]),
    ("map_basis_10_b.json", ["map", "--basis", "10", "--assignment", "B"]),
    ("map_bell_psi_minus.txt", ["map", "--bell", "psi-", "--format", "text"]),
    ("run_entangle_60_70_y90_a.json", ["run", Y90_CIRC, "--steps", "--assignment", "A"]),
    # One assignment, a renormalized --state and a zeta_f written -0.0000.
    ("map_state_b.txt", ["map", "--state=0.6,-0,0,0.3,-0.5,0.2,0.1,-0.4",
                         "--assignment", "B", "--format", "text"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_golden_stdout(capsys, name, argv):
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert out1 == golden


GOLDEN_SVGS = [
    ("map_bell_phi_plus.svg", lambda tmp: ["render", "--bell", "phi+", "--out", tmp]),
    ("run_entangle_60_70.svg",
     lambda tmp: ["render", "--circuit", ENTANGLER_CIRC, "--out", tmp]),
]


@pytest.mark.parametrize("name,argv_fn", GOLDEN_SVGS)
def test_golden_svg(tmp_path, capsys, name, argv_fn):
    p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
    run_cli(capsys, *argv_fn(str(p1)))
    run_cli(capsys, *argv_fn(str(p2)))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() == (GOLDEN_DIR / name).read_bytes()
